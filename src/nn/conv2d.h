// 2-D convolution on the implicit-im2col GEMM (tensor/gemm.h gemm_conv).
//
// Input  (B, IC, H, W) -> Output (B, OC, OH, OW).
// The forward pass parallelizes over the batch: each sample is zero-padded
// once, then one serial gemm_conv packs the unfolded matrix's panels
// straight from that copy, followed by its bias add. No (K, OH*OW) column
// matrix is built. The backward pass parallelizes the input gradient over
// the batch and the weight+bias gradients over output channels, so no
// accumulation races occur:
//  * dW is an NT gemm_conv over the cached padded input;
//  * stride-1 dX is a transposed convolution: dOut padded by kernel-1-pad
//    convolved with the flipped weights (C, OC*kh*kw), one NN gemm_conv
//    per sample into an uninitialized gradient;
//  * stride > 1 dX stays Wᵀ·dOut followed by col2im;
//  * the layer that consumes the model input skips dX (skip_input_grad).
//
// Every recurring buffer — the padded-input cache, the per-thread padded
// stripes, the flipped weights, the stride > 1 grad_col stripes and the dW
// staging tensor — lives in a per-layer Workspace with grow-once semantics,
// so steady-state training steps perform zero heap allocations. While its
// source is bound (WeightSource::binding), the layer reads the shared
// weight and writes dW straight into the binding instead of calling the
// source.
#pragma once

#include "nn/module.h"
#include "nn/weight_source.h"
#include "tensor/im2col.h"
#include "tensor/workspace.h"

namespace csq {

struct Conv2dConfig {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t pad = 1;
  bool bias = false;  // ResNet/VGG convs are bias-free (BN follows).
};

class Conv2d final : public Module {
 public:
  Conv2d(const std::string& name, const Conv2dConfig& config,
         const WeightSourceFactory& weight_factory, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void skip_input_grad() override { input_grad_ = false; }
  const char* kind() const override { return "conv2d"; }
  void lower(GraphLowering& lowering) override;

  WeightSource& source() { return *weight_source_; }
  const Conv2dConfig& config() const { return config_; }
  // Optional bias as a flat span (nullptr when the layer is bias-free).
  const float* bias_data() const {
    return has_bias_ ? bias_.value.data() : nullptr;
  }
  Workspace& workspace() { return ws_; }

 private:
  // Workspace slot indices.
  enum TensorSlot : int { kPaddedSlot = 0, kGradWeightSlot = 1 };
  enum FloatSlot : int {
    kPadStripeSlot = 0,  // per-pool-slot padded sample (eval x, stride-1 dOut)
    kFlippedSlot = 1,    // flipped weights of the stride-1 dX
    kGradColSlot = 2,    // per-pool-slot Wᵀ·dOut columns of stride > 1 dX
  };

  ConvGeometry geometry_for(const Tensor& input) const;
  Tensor input_gradient(const Tensor& grad_output, const float* w_data);

  Conv2dConfig config_;
  WeightSourcePtr weight_source_;
  Parameter bias_;  // empty unless config_.bias
  bool has_bias_ = false;
  bool input_grad_ = true;  // false: backward returns an empty tensor

  // Per-layer scratch arena; kPaddedSlot doubles as the training-mode cache
  // of the zero-padded inputs (B, C, H + 2 pad, W + 2 pad), consumed by
  // backward.
  Workspace ws_;
  ConvGeometry cached_geom_;  // geometry of the cached batch
  std::int64_t cached_batch_ = 0;
};

}  // namespace csq
