#include "core/csq_weight.h"

#include <algorithm>
#include <cmath>

#include "quant/quantizer.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace csq {

namespace {

// Initial logit magnitude for the bit-representation planes.
constexpr float kInitLogit = 0.2f;

}  // namespace

CsqWeightSource::CsqWeightSource(const std::string& name,
                                 std::vector<std::int64_t> shape,
                                 std::int64_t fan_in,
                                 const CsqWeightOptions& options, Rng& rng)
    : shape_(shape), fixed_precision_(options.fixed_precision) {
  CSQ_CHECK(fixed_precision_ >= 0 && fixed_precision_ <= kBits)
      << "csq: fixed precision out of range";
  element_count_ = shape_numel(shape_);
  quantized_ = Tensor(shape_);
  engine_ = BitPlaneEngine(element_count_, kBits);

  // Train-from-scratch initialization: draw a He-initialized dense weight
  // and decompose it onto the 8-bit grid; logits start at a soft +/- kappa
  // so beta0 = 1 gives a smooth landscape (paper Section III-A trains all
  // logits from real values, any magnitude permitted).
  Tensor dense(shape_);
  fill_he_normal(dense, fan_in, rng);
  const float init_scale = max_abs_scale(dense);
  scale_ = Parameter(name + ".s", Tensor::from_data({1}, {init_scale}),
                     /*apply_weight_decay=*/false);

  for (int b = 0; b < kBits; ++b) {
    pos_logits_[static_cast<std::size_t>(b)] =
        Parameter(name + ".mp" + std::to_string(b), Tensor(shape_),
                  /*apply_weight_decay=*/false);
    neg_logits_[static_cast<std::size_t>(b)] =
        Parameter(name + ".mn" + std::to_string(b), Tensor(shape_),
                  /*apply_weight_decay=*/false);
  }

  const float* w = dense.data();
  for (std::int64_t i = 0; i < element_count_; ++i) {
    std::int64_t code = static_cast<std::int64_t>(
        std::lround(std::fabs(w[i]) / init_scale * kDenominator));
    code = std::min<std::int64_t>(code, 255);
    const bool positive = w[i] >= 0.0f;
    for (int b = 0; b < kBits; ++b) {
      const bool bit_set = ((code >> b) & 1) != 0;
      // Jitter breaks the symmetry between elements sharing a bit pattern.
      const float kappa = kInitLogit * rng.uniform(0.75f, 1.25f);
      float& mp = pos_logits_[static_cast<std::size_t>(b)].value[i];
      float& mn = neg_logits_[static_cast<std::size_t>(b)].value[i];
      mp = (positive && bit_set) ? kappa : -kappa;
      mn = (!positive && bit_set) ? kappa : -kappa;
    }
  }

  // Bit mask: all bits start selected (the budget regularizer grows or
  // prunes from there). In fixed-precision mode the mask is a constant
  // selecting the *top* n bits — on the shared 8-bit grid this spans the
  // same dynamic range as the paper's n-bit Eq. (3) form (denominator
  // 2^n - 1 with bits 0..n-1), up to a scale absorbed by s.
  Tensor mask_init({kBits});
  for (int b = 0; b < kBits; ++b) {
    if (fixed_precision_ > 0) {
      mask_init[b] = b >= kBits - fixed_precision_ ? 1.0f : -1.0f;
    } else {
      mask_init[b] = options.mask_init;
    }
  }
  mask_logits_ = Parameter(name + ".mB", std::move(mask_init),
                           /*apply_weight_decay=*/false);
  if (fixed_precision_ > 0) {
    for (int b = 0; b < kBits; ++b) {
      frozen_mask_[static_cast<std::size_t>(b)] =
          b >= kBits - fixed_precision_;
    }
  }
}

void CsqWeightSource::set_beta(float beta) {
  CSQ_CHECK(beta > 0.0f) << "csq: beta must be positive";
  // A temperature change between a training materialization and its
  // backward would make the cached gate values stale (they were evaluated at
  // the old beta); invalidate so backward() asserts instead of silently
  // mixing temperatures. The stamp revision also invalidates the eval-mode
  // weight cache.
  if (beta != beta_) {
    cache_valid_ = false;
    ++internal_rev_;
  }
  beta_ = beta;
}

std::uint64_t CsqWeightSource::state_stamp() const {
  std::uint64_t stamp =
      internal_rev_ + scale_.version + mask_logits_.version;
  for (int b = 0; b < kBits; ++b) {
    stamp += pos_logits_[static_cast<std::size_t>(b)].version +
             neg_logits_[static_cast<std::size_t>(b)].version;
  }
  return stamp;
}

bool CsqWeightSource::mask_bit_active(int bit) const {
  if (mode_ != CsqMode::joint || fixed_precision_ > 0) {
    return frozen_mask_[static_cast<std::size_t>(bit)];
  }
  return mask_logits_.value[bit] >= 0.0f;
}

float CsqWeightSource::soft_mask_value(int bit) const {
  if (fixed_precision_ > 0 || mode_ != CsqMode::joint) {
    // Frozen hard mask (Eq. 4) — constant 0/1, no gradient.
    return frozen_mask_[static_cast<std::size_t>(bit)] ? 1.0f : 0.0f;
  }
  return gate(mask_logits_.value[bit], beta_);
}

int CsqWeightSource::layer_precision() const {
  int precision = 0;
  for (int b = 0; b < kBits; ++b) precision += mask_bit_active(b) ? 1 : 0;
  return precision;
}

void CsqWeightSource::materialize_soft(bool cache_for_backward) {
  const float factor = scale_.value[0] / kDenominator;

  // Stage the engine planes (Eq. 5): one gated pair per participating bit.
  // With a trainable mask every bit participates (its gradient needs the
  // gates even at tiny mask values); with a frozen mask only active bits are
  // evaluated — inactive ones contribute neither value nor gradient.
  engine_.clear_planes();
  staged_planes_ = 0;
  for (int b = 0; b < kBits; ++b) {
    const float mask_value = soft_mask_value(b);
    if (!mask_trains() && mask_value == 0.0f) continue;
    plane_bits_[static_cast<std::size_t>(staged_planes_)] = b;
    plane_mask_values_[static_cast<std::size_t>(staged_planes_)] = mask_value;
    engine_.add_plane(pos_logits_[static_cast<std::size_t>(b)].value.data(),
                      neg_logits_[static_cast<std::size_t>(b)].value.data(),
                      factor * static_cast<float>(1 << b) * mask_value,
                      1 << b);
    ++staged_planes_;
  }
  engine_.materialize(GateKind::sigmoid, beta_, quantized_.data(),
                      cache_for_backward);
  cache_valid_ = cache_for_backward;
}

void CsqWeightSource::stage_hard_planes() const {
  engine_.clear_planes();
  for (int b = 0; b < kBits; ++b) {
    if (!frozen_mask_[static_cast<std::size_t>(b)]) continue;
    engine_.add_plane(pos_logits_[static_cast<std::size_t>(b)].value.data(),
                      neg_logits_[static_cast<std::size_t>(b)].value.data(),
                      /*coeff=*/0.0f, 1 << b);
  }
}

void CsqWeightSource::materialize_hard() {
  // Integer-first accumulation guarantees the materialized weight is
  // exactly s/255 * code (the "exact quantized model" the paper claims).
  stage_hard_planes();
  engine_.materialize_hard(scale_.value[0] / kDenominator, quantized_.data(),
                           /*codes=*/nullptr);
  staged_planes_ = 0;
  cache_valid_ = false;
}

const Tensor& CsqWeightSource::weight(bool training) {
  // Dirty-flag: soft and hard materializations are pure functions of the
  // parameters, beta and mode, so an unchanged stamp means quantized_
  // already holds the right values. Training-mode calls additionally
  // require the backward gate cache to be live (cache_valid_) — this is
  // what lets the backward pass's weight(true) reuse the forward pass's
  // materialization instead of rebuilding identical weights.
  const std::uint64_t stamp = state_stamp();
  if (eval_cache_fresh(stamp) && (!training || cache_valid_)) {
    return quantized_;
  }
  if (mode_ == CsqMode::finalized) {
    materialize_hard();
  } else {
    materialize_soft(/*cache_for_backward=*/training);
  }
  note_materialized(stamp);
  return quantized_;
}

void CsqWeightSource::backward(const Tensor& grad_weight) {
  CSQ_CHECK(mode_ != CsqMode::finalized)
      << "csq: backward on a finalized source";
  CSQ_CHECK(cache_valid_)
      << "csq: backward without a matching training materialization (the "
         "gate cache is stale after set_beta/freeze_mask/finalize or an "
         "eval-mode forward)";
  CSQ_CHECK(grad_weight.same_shape(quantized_)) << "csq: grad shape mismatch";

  const float s = scale_.value[0];
  const float factor = s / kDenominator;
  const float* g = grad_weight.data();

  // ds: dW/ds = W / s (W is linear in s).
  if (s != 0.0f) {
    scale_.grad[0] +=
        static_cast<float>(engine_.dot(g, quantized_.data()) / s);
  }

  // dW_i/dm_p = factor * 2^b * mask * f'(m_p);   f'(m) = beta*f*(1-f).
  // The mask needs the raw per-plane reduction sum_i g_i*(f(m_p)-f(m_n)).
  for (int p = 0; p < staged_planes_; ++p) {
    const int b = plane_bits_[static_cast<std::size_t>(p)];
    engine_.set_plane_grads(
        p, pos_logits_[static_cast<std::size_t>(b)].grad.data(),
        neg_logits_[static_cast<std::size_t>(b)].grad.data(),
        /*want_diff_sum=*/mask_trains());
  }
  engine_.backward(GateKind::sigmoid, beta_, g);

  if (mask_trains()) {
    for (int p = 0; p < staged_planes_; ++p) {
      const int b = plane_bits_[static_cast<std::size_t>(p)];
      const float bit_scale = factor * static_cast<float>(1 << b);
      // dW_i/dm_B = factor * 2^b * (f(m_p)-f(m_n)) * f'(m_B).
      const float mask_derivative = gate_derivative_from_value(
          plane_mask_values_[static_cast<std::size_t>(p)], beta_);
      mask_logits_.grad[b] += static_cast<float>(engine_.diff_sum(p)) *
                              bit_scale * mask_derivative;
    }
  }
  cache_valid_ = false;
}

void CsqWeightSource::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&scale_);
  for (int b = 0; b < kBits; ++b) {
    out.push_back(&pos_logits_[static_cast<std::size_t>(b)]);
    out.push_back(&neg_logits_[static_cast<std::size_t>(b)]);
  }
  out.push_back(&mask_logits_);
}

void CsqWeightSource::add_budget_regularizer_gradient(float strength) {
  if (mode_ != CsqMode::joint || fixed_precision_ > 0) return;
  for (int b = 0; b < kBits; ++b) {
    mask_logits_.grad[b] +=
        strength * gate_derivative(mask_logits_.value[b], beta_);
  }
}

void CsqWeightSource::freeze_mask() {
  CSQ_CHECK(mode_ == CsqMode::joint) << "csq: freeze_mask outside joint mode";
  if (fixed_precision_ == 0) {
    for (int b = 0; b < kBits; ++b) {
      frozen_mask_[static_cast<std::size_t>(b)] =
          mask_logits_.value[b] >= 0.0f;
    }
  }
  mode_ = CsqMode::finetune;
  cache_valid_ = false;
  ++internal_rev_;
}

void CsqWeightSource::finalize() {
  if (mode_ == CsqMode::joint) freeze_mask();
  mode_ = CsqMode::finalized;
  cache_valid_ = false;
  ++internal_rev_;
  // No backward can ever run again: drop the 16x-weight gate cache.
  engine_.release_gate_cache();
}

std::vector<std::int32_t> CsqWeightSource::integer_codes() const {
  CSQ_CHECK(mode_ == CsqMode::finalized)
      << "csq: integer codes require a finalized source";
  std::vector<std::int32_t> codes(static_cast<std::size_t>(element_count_));
  stage_hard_planes();
  engine_.materialize_hard(/*unit=*/0.0f, /*out=*/nullptr, codes.data());
  return codes;
}

WeightCodes CsqWeightSource::finalized_codes() const {
  WeightCodes result;
  result.codes = integer_codes();
  result.scale = scale_.value[0];
  result.denominator = kDenominator;
  result.bits = layer_precision();
  return result;
}

WeightSourceFactory csq_weight_factory(
    std::vector<CsqWeightSource*>* registry,
    const CsqWeightOptions& options) {
  CSQ_CHECK(registry != nullptr) << "csq factory: null registry";
  return [registry, options](const std::string& name,
                             std::vector<std::int64_t> shape,
                             std::int64_t fan_in, Rng& rng) -> WeightSourcePtr {
    auto source = std::make_unique<CsqWeightSource>(name, std::move(shape),
                                                    fan_in, options, rng);
    registry->push_back(source.get());
    return source;
  };
}

}  // namespace csq
