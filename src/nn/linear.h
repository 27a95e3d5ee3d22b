// Fully-connected layer: Y = X W^T + b, weights (OUT, IN).
//
// GEMMs run through the pooled blocked kernel with packed-panel scratch from
// the layer's Workspace; the dW staging tensor and the cached forward input
// are recycled across steps, so steady-state forward+backward performs zero
// heap allocations. While its source is bound (WeightSource::binding), the
// layer reads the shared weight and writes dW into the binding instead of
// calling the source.
#pragma once

#include "nn/module.h"
#include "nn/weight_source.h"
#include "tensor/workspace.h"

namespace csq {

class Linear final : public Module {
 public:
  Linear(const std::string& name, std::int64_t in_features,
         std::int64_t out_features, const WeightSourceFactory& weight_factory,
         Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  const char* kind() const override { return "linear"; }
  void lower(GraphLowering& lowering) override;

  WeightSource& source() { return *weight_source_; }
  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  // Optional bias as a flat span (nullptr when the layer is bias-free).
  const float* bias_data() const {
    return has_bias_ ? bias_.value.data() : nullptr;
  }
  Workspace& workspace() { return ws_; }

 private:
  enum TensorSlot : int { kGradWeightSlot = 0 };

  std::int64_t in_features_;
  std::int64_t out_features_;
  WeightSourcePtr weight_source_;
  Parameter bias_;
  bool has_bias_;

  Workspace ws_;
  // (B, IN) from the last training forward. The tensor keeps its storage
  // across steps (same-shape copy-assignment never allocates); the flag
  // gates backward-without-forward misuse.
  Tensor cached_input_;
  bool has_cached_input_ = false;
};

}  // namespace csq
