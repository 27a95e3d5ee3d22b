// WeightSource: the seam between the NN layers and the quantization schemes.
//
// Conv2d and Linear do not own a weight tensor directly; they own a
// WeightSource that materializes the effective weight each step and receives
// dLoss/dWeight back. The full-precision baseline (DenseWeightSource, below)
// stores the weight as a plain parameter. Quantized trainings plug in
// sources from src/quant (STE-Uniform, DoReFa, LQ-Nets, BSQ) or src/core
// (the paper's bi-level continuous-sparsification parameterization).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace csq {

// Exact fixed-point form of a weight tensor:
//   weight[i] = scale / denominator * codes[i]
// with integer codes |q| <= denominator (the sign-magnitude grid of the
// paper's Eq. 1). This is the contract the export container and the integer
// inference runtime consume; a source that answers has_finalized_codes()
// must reproduce its weight(false) materialization from this form up to (at
// worst) one float rounding per element — finalized CSQ sources reproduce it
// bit-exactly.
struct WeightCodes {
  std::vector<std::int32_t> codes;
  float scale = 1.0f;
  float denominator = 255.0f;
  int bits = 0;  // occupied bits per weight (storage accounting)

  // Real value of one quantization step.
  float step() const { return scale / denominator; }
};

// Data-parallel seam of the weight layers (Conv2d, Linear; see
// WeightSource::binding). `weight` and `grad` span weight_count() floats,
// row-major in weight_shape().
struct WeightBinding {
  const float* weight = nullptr;
  float* grad = nullptr;
};

class WeightSource {
 public:
  virtual ~WeightSource() = default;

  WeightSource() = default;
  WeightSource(const WeightSource&) = delete;
  WeightSource& operator=(const WeightSource&) = delete;

  // Materializes the effective weight for the current step. The reference
  // stays valid until the next mutate/materialize call on this source.
  virtual const Tensor& weight(bool training) = 0;

  // Accumulates dLoss/dWeight into the source's own trainable parameters.
  // Must be called after a training-mode weight() materialization.
  virtual void backward(const Tensor& grad_weight) = 0;

  virtual void collect_parameters(std::vector<Parameter*>& out) = 0;

  virtual const char* kind() const = 0;

  // Number of weight elements provided by this source.
  virtual std::int64_t weight_count() const = 0;

  // Shape of the weight tensor ((OC,IC,KH,KW) for conv, (OUT,IN) for
  // linear). Used by the export/lowering paths.
  virtual std::vector<std::int64_t> weight_shape() const = 0;

  // Storage cost per weight element, in bits, under the source's current
  // quantization state (32 for dense). Drives the Comp(x) columns.
  virtual double bits_per_weight() const { return 32.0; }

  // True when the source's CURRENT weights have an exact integer fixed-point
  // form (finalized CSQ, BSQ's rounded planes, STE-Uniform's fake-quant
  // grid). Replaces the former dynamic_cast<CsqWeightSource*> coupling in
  // export/model_io, so any fixed-grid family can export and lower.
  virtual bool has_finalized_codes() const { return false; }

  // The integer form itself. Throws unless has_finalized_codes().
  virtual WeightCodes finalized_codes() const;

  // Number of times this source actually rebuilt its weight tensor. Eval
  // dirty-flag observability: an eval-mode weight() whose inputs (parameter
  // versions + scheme state) are unchanged returns the cached tensor and
  // leaves this counter flat — the regression tests assert it.
  std::uint64_t materialize_count() const { return materialize_count_; }

  // Set by the data-parallel trainer (opt/data_parallel.h) for one step.
  // While `weight` is set, the layer owning this source reads that shared
  // materialization instead of calling weight(), and its backward
  // overwrites `grad` with dL/dW instead of calling backward(). Unset, the
  // layer runs the serial path.
  WeightBinding& binding() { return binding_; }

 protected:
  // Eval dirty-flag helpers for derived sources. A source computes a stamp
  // (the sum of its parameters' version counters plus an internal revision
  // bumped on every scheme mutation — set_beta, freeze_mask, finalize,
  // prune, requantize). Versions only grow, so any mutation changes the
  // sum. eval_cache_fresh() answers whether the cached weight tensor is
  // still valid for that stamp; note_materialized() records a rebuild whose
  // result stays valid until the stamp changes.
  bool eval_cache_fresh(std::uint64_t stamp) const {
    return eval_cache_valid_ && eval_cache_stamp_ == stamp;
  }
  void note_materialized(std::uint64_t stamp) {
    ++materialize_count_;
    eval_cache_valid_ = true;
    eval_cache_stamp_ = stamp;
  }
  void note_materialized_volatile() {
    ++materialize_count_;
    eval_cache_valid_ = false;
  }

 private:
  WeightBinding binding_;
  std::uint64_t materialize_count_ = 0;
  std::uint64_t eval_cache_stamp_ = 0;
  bool eval_cache_valid_ = false;
};

using WeightSourcePtr = std::unique_ptr<WeightSource>;

// Factory signature used by the model builders: receives the dotted layer
// name, the weight shape (OC,IC,KH,KW for conv, OUT,IN for linear) and the
// fan-in for initialization.
using WeightSourceFactory = std::function<WeightSourcePtr(
    const std::string& name, std::vector<std::int64_t> shape,
    std::int64_t fan_in, Rng& rng)>;

// Full-precision weight stored as a single dense parameter.
class DenseWeightSource final : public WeightSource {
 public:
  DenseWeightSource(const std::string& name, std::vector<std::int64_t> shape,
                    std::int64_t fan_in, Rng& rng);

  const Tensor& weight(bool training) override;
  void backward(const Tensor& grad_weight) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  const char* kind() const override { return "dense"; }
  std::int64_t weight_count() const override { return weight_.value.numel(); }
  std::vector<std::int64_t> weight_shape() const override {
    return weight_.value.shape();
  }

  Parameter& parameter() { return weight_; }

 private:
  Parameter weight_;
};

// Factory for the dense source (the FP baseline used in every table's
// first row).
WeightSourceFactory dense_weight_factory();

}  // namespace csq
