#include "nn/linear.h"

#include "nn/lowering.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace csq {

Linear::Linear(const std::string& name, std::int64_t in_features,
               std::int64_t out_features,
               const WeightSourceFactory& weight_factory, Rng& rng, bool bias)
    : in_features_(in_features), out_features_(out_features), has_bias_(bias) {
  CSQ_CHECK(in_features > 0 && out_features > 0) << "linear: bad extents";
  set_name(name);
  weight_source_ =
      weight_factory(name, {out_features, in_features}, in_features, rng);
  if (has_bias_) {
    bias_ = Parameter(name + ".bias", Tensor({out_features}),
                      /*apply_weight_decay=*/false);
  }
}

Tensor Linear::forward(const Tensor& input, bool training) {
  CSQ_CHECK(input.ndim() == 2 && input.dim(1) == in_features_)
      << "linear " << name() << ": expected (B," << in_features_ << "), got "
      << input.shape_string();
  const std::int64_t batch = input.dim(0);
  const WeightBinding& binding = weight_source_->binding();
  const float* weights = binding.weight != nullptr
                             ? binding.weight
                             : weight_source_->weight(training).data();

  // Fully overwritten by the beta=0 GEMM.
  Tensor output = Tensor::uninitialized({batch, out_features_});
  // Y(B, OUT) = X(B, IN) * W^T, W stored (OUT, IN).
  gemm(Trans::no, Trans::yes, batch, out_features_, in_features_, 1.0f,
       input.data(), in_features_, weights, in_features_, 0.0f,
       output.data(), out_features_, &ws_.gemm_scratch(),
       GemmExec{/*pooled=*/true});
  if (has_bias_) {
    float* out = output.data();
    const float* bias = bias_.value.data();
    for (std::int64_t b = 0; b < batch; ++b) {
      for (std::int64_t j = 0; j < out_features_; ++j) {
        out[b * out_features_ + j] += bias[j];
      }
    }
  }
  if (training) {
    cached_input_ = input;  // same-shape assignment recycles the storage
    has_cached_input_ = true;
  } else {
    has_cached_input_ = false;
  }
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  CSQ_CHECK(has_cached_input_)
      << "linear " << name() << ": backward without training forward";
  const std::int64_t batch = cached_input_.dim(0);
  CSQ_CHECK(grad_output.ndim() == 2 && grad_output.dim(0) == batch &&
            grad_output.dim(1) == out_features_)
      << "linear " << name() << ": grad_output shape mismatch";

  // A bound layer reads the shared weight and hands dL/dW to the binding;
  // otherwise it stages dW in its workspace for its own source.
  const WeightBinding& binding = weight_source_->binding();
  const bool bound = binding.weight != nullptr;
  const Tensor* weights =
      bound ? nullptr : &weight_source_->weight(/*training=*/true);

  // dX(B, IN) = dY(B, OUT) * W(OUT, IN)
  Tensor grad_input = Tensor::uninitialized({batch, in_features_});
  gemm(Trans::no, Trans::no, batch, in_features_, out_features_, 1.0f,
       grad_output.data(), out_features_,
       bound ? binding.weight : weights->data(), in_features_, 0.0f,
       grad_input.data(), in_features_, &ws_.gemm_scratch(),
       GemmExec{/*pooled=*/true});

  // dW(OUT, IN) = dY^T(OUT, B) * X(B, IN)
  Tensor* grad_weight =
      bound ? nullptr : &ws_.tensor(kGradWeightSlot, weights->shape());
  gemm(Trans::yes, Trans::no, out_features_, in_features_, batch, 1.0f,
       grad_output.data(), out_features_, cached_input_.data(), in_features_,
       0.0f, bound ? binding.grad : grad_weight->data(), in_features_,
       &ws_.gemm_scratch(), GemmExec{/*pooled=*/true});
  if (!bound) weight_source_->backward(*grad_weight);

  if (has_bias_) {
    float* gb = bias_.grad.data();
    const float* go = grad_output.data();
    for (std::int64_t b = 0; b < batch; ++b) {
      for (std::int64_t j = 0; j < out_features_; ++j) {
        gb[j] += go[b * out_features_ + j];
      }
    }
  }

  has_cached_input_ = false;
  return grad_input;
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  weight_source_->collect_parameters(out);
  if (has_bias_) out.push_back(&bias_);
}

void Linear::lower(GraphLowering& lowering) { lowering.lower_linear(*this); }

}  // namespace csq
