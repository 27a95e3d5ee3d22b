// 2-D convolution lowered to GEMM via im2col.
//
// Input  (B, IC, H, W) -> Output (B, OC, OH, OW).
// The forward pass parallelizes over the batch (each sample runs im2col,
// one serial blocked GEMM and its bias add); the backward pass parallelizes
// the input gradient over the batch and the weight+bias gradients over
// output channels so no accumulation races occur.
//
// Every recurring buffer — the cached im2col matrix, the per-thread
// grad_col stripes and the dW staging tensor — lives in a per-layer
// Workspace with grow-once semantics, so steady-state training steps
// perform zero heap allocations. While its source is bound
// (WeightSource::binding), the layer reads the shared weight and writes dW
// straight into the binding instead of calling the source.
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
  enum TensorSlot : int { kColsSlot = 0, kGradWeightSlot = 1 };
  enum FloatSlot : int { kGradColSlot = 0, kEvalColSlot = 1 };

  ConvGeometry geometry_for(const Tensor& input) const;

  Conv2dConfig config_;
  WeightSourcePtr weight_source_;
  Parameter bias_;  // empty unless config_.bias
  bool has_bias_ = false;

  // Per-layer scratch arena; kColsSlot doubles as the training-mode cache
  // of the unfolded inputs (B, K, OH*OW), consumed by backward.
  Workspace ws_;
  ConvGeometry cached_geom_;  // geometry of the cached batch
  std::int64_t cached_batch_ = 0;
};

}  // namespace csq
