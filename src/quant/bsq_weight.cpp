#include "quant/bsq_weight.h"

#include <algorithm>
#include <cmath>

#include "quant/quantizer.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace csq {

namespace {
constexpr float kDenominator = 255.0f;  // 2^8 - 1 for the 8-bit ceiling
}

BsqWeightSource::BsqWeightSource(const std::string& name,
                                 std::vector<std::int64_t> shape,
                                 std::int64_t fan_in, Rng& rng)
    : shape_(shape) {
  element_count_ = shape_numel(shape_);
  active_.fill(true);

  // He-initialize a dense weight, then decompose it into bit planes.
  Tensor dense(shape_);
  fill_he_normal(dense, fan_in, rng);
  const float scale_value = max_abs_scale(dense);
  scale_ = Parameter(name + ".scale", Tensor::from_data({1}, {scale_value}),
                     /*apply_weight_decay=*/false);
  for (int b = 0; b < kMaxBits; ++b) {
    pos_[static_cast<std::size_t>(b)] =
        Parameter(name + ".p" + std::to_string(b), Tensor(shape_),
                  /*apply_weight_decay=*/false);
    neg_[static_cast<std::size_t>(b)] =
        Parameter(name + ".n" + std::to_string(b), Tensor(shape_),
                  /*apply_weight_decay=*/false);
  }
  quantized_ = Tensor(shape_);
  engine_ = BitPlaneEngine(element_count_, kMaxBits);
  requantize_from(dense);
}

void BsqWeightSource::reconstruct(Tensor& out) const {
  const float s = scale_.value[0];
  engine_.clear_planes();
  staged_planes_ = 0;
  for (int b = 0; b < kMaxBits; ++b) {
    if (!active_[static_cast<std::size_t>(b)]) continue;
    plane_bits_[static_cast<std::size_t>(staged_planes_)] = b;
    engine_.add_plane(pos_[static_cast<std::size_t>(b)].value.data(),
                      neg_[static_cast<std::size_t>(b)].value.data(),
                      s * static_cast<float>(1 << b) / kDenominator, 1 << b);
    ++staged_planes_;
  }
  // round_clip gates: W = s/(2^N-1) * sum_b 2^b (round(p_b) - round(n_b)).
  engine_.materialize(GateKind::round_clip, /*beta=*/0.0f, out.data(),
                      /*cache=*/false);
}

std::uint64_t BsqWeightSource::state_stamp() const {
  std::uint64_t stamp = internal_rev_ + scale_.version;
  for (int b = 0; b < kMaxBits; ++b) {
    stamp += pos_[static_cast<std::size_t>(b)].version +
             neg_[static_cast<std::size_t>(b)].version;
  }
  return stamp;
}

const Tensor& BsqWeightSource::weight(bool training) {
  // Dirty-flag: the rounded reconstruction is a pure function of the
  // latents, scale and active set. Training-mode reuse additionally needs
  // live plane staging (the backward routes gradients through it); staging
  // from the materialization that set the stamp is still in place.
  const std::uint64_t stamp = state_stamp();
  if (eval_cache_fresh(stamp) && (!training || staged_planes_ > 0)) {
    return quantized_;
  }
  reconstruct(quantized_);
  note_materialized(stamp);
  return quantized_;
}

void BsqWeightSource::backward(const Tensor& grad_weight) {
  CSQ_CHECK(grad_weight.same_shape(quantized_)) << "bsq: grad shape mismatch";
  CSQ_CHECK(staged_planes_ > 0) << "bsq: backward before materialization";
  const float s = scale_.value[0];
  const float* g = grad_weight.data();

  // ds: dW/ds = W / s elementwise.
  if (s != 0.0f) {
    scale_.grad[0] +=
        static_cast<float>(engine_.dot(g, quantized_.data()) / s);
  }

  // Clipped STE into the bit planes: the round() passes gradient through
  // where the latent lies in [0, 1].
  for (int p = 0; p < staged_planes_; ++p) {
    const int b = plane_bits_[static_cast<std::size_t>(p)];
    engine_.set_plane_grads(p, pos_[static_cast<std::size_t>(b)].grad.data(),
                            neg_[static_cast<std::size_t>(b)].grad.data(),
                            /*want_diff_sum=*/false);
  }
  engine_.backward(GateKind::round_clip, /*beta=*/0.0f, g);
}

void BsqWeightSource::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&scale_);
  for (int b = 0; b < kMaxBits; ++b) {
    out.push_back(&pos_[static_cast<std::size_t>(b)]);
    out.push_back(&neg_[static_cast<std::size_t>(b)]);
  }
}

WeightCodes BsqWeightSource::finalized_codes() const {
  WeightCodes result;
  // Integer-first accumulation of the rounded planes,
  //   code_i = sum_{b active} 2^b * (round(clamp(p_b, 0, 1)) -
  //                                  round(clamp(n_b, 0, 1))),
  // mirroring the round_clip gates of reconstruct(). Deliberately does not
  // touch the engine: its plane staging may belong to an in-flight training
  // step whose backward still routes through it.
  result.codes.assign(static_cast<std::size_t>(element_count_), 0);
  for (int b = 0; b < kMaxBits; ++b) {
    if (!active_[static_cast<std::size_t>(b)]) continue;
    const float* p = pos_[static_cast<std::size_t>(b)].value.data();
    const float* n = neg_[static_cast<std::size_t>(b)].value.data();
    const std::int32_t weight = std::int32_t{1} << b;
    for (std::int64_t i = 0; i < element_count_; ++i) {
      const int bit_pos = std::lround(std::clamp(p[i], 0.0f, 1.0f));
      const int bit_neg = std::lround(std::clamp(n[i], 0.0f, 1.0f));
      result.codes[static_cast<std::size_t>(i)] +=
          weight * (bit_pos - bit_neg);
    }
  }
  result.scale = scale_.value[0];
  result.denominator = kDenominator;
  result.bits = active_bits();
  return result;
}

int BsqWeightSource::active_bits() const {
  int count = 0;
  for (const bool active : active_) count += active ? 1 : 0;
  return count;
}

void BsqWeightSource::add_sparsity_regularizer(float strength) {
  for (int b = 0; b < kMaxBits; ++b) {
    if (!active_[static_cast<std::size_t>(b)]) continue;
    for (Parameter* plane : {&pos_[static_cast<std::size_t>(b)],
                             &neg_[static_cast<std::size_t>(b)]}) {
      const float* v = plane->value.data();
      float* grad = plane->grad.data();
      for (std::int64_t i = 0; i < element_count_; ++i) {
        if (v[i] > 0.0f) grad[i] += strength;
        // Latents <= 0 already round to zero; no push needed.
      }
    }
  }
}

int BsqWeightSource::prune_bits(float usage_threshold) {
  Tensor current(shape_);
  reconstruct(current);

  const std::array<bool, kMaxBits> before = active_;
  int removed = 0;
  for (int b = 0; b < kMaxBits; ++b) {
    if (!active_[static_cast<std::size_t>(b)]) continue;
    const float* p = pos_[static_cast<std::size_t>(b)].value.data();
    const float* n = neg_[static_cast<std::size_t>(b)].value.data();
    double usage = 0.0;
    for (std::int64_t i = 0; i < element_count_; ++i) {
      usage += std::round(std::clamp(p[i], 0.0f, 1.0f)) +
               std::round(std::clamp(n[i], 0.0f, 1.0f));
    }
    usage /= static_cast<double>(2 * element_count_);
    if (usage < usage_threshold) {
      active_[static_cast<std::size_t>(b)] = false;
      ++removed;
    }
  }
  // Keep at least one bit: an all-pruned layer would zero its weights.
  if (active_bits() == 0) {
    active_[kMaxBits - 1] = true;
    --removed;
  }
  // Requantize on any change to the active set — not just a net removal:
  // the keep-one-bit fallback can swap which bit is active while leaving
  // `removed` at zero, and the weights (and the eval dirty-flag stamp,
  // bumped inside requantize_from) must follow.
  if (active_ != before) requantize_from(current);
  return removed;
}

void BsqWeightSource::requantize_from(const Tensor& target) {
  ++internal_rev_;  // latents, scale and active set all change
  const float s = max_abs_scale(target);
  scale_.value[0] = s;
  const float* w = target.data();

  for (std::int64_t i = 0; i < element_count_; ++i) {
    // Greedy MSB-first decomposition of |w| onto the active bit grid.
    std::int64_t code = static_cast<std::int64_t>(
        std::lround(std::fabs(w[i]) / s * kDenominator));
    code = std::min<std::int64_t>(code, 255);
    const bool positive = w[i] >= 0.0f;
    std::int64_t remaining = code;
    for (int b = kMaxBits - 1; b >= 0; --b) {
      const std::int64_t bit_value = std::int64_t{1} << b;
      float bit = 0.0f;
      if (active_[static_cast<std::size_t>(b)] && remaining >= bit_value) {
        remaining -= bit_value;
        bit = 1.0f;
      }
      // Latents sit at 0.25 / 0.75 so rounding is unambiguous but training
      // can still flip a bit without a long march.
      pos_[static_cast<std::size_t>(b)].value[i] =
          positive ? (bit > 0.0f ? 0.75f : 0.25f) : 0.25f;
      neg_[static_cast<std::size_t>(b)].value[i] =
          positive ? 0.25f : (bit > 0.0f ? 0.75f : 0.25f);
    }
  }
}

WeightSourceFactory bsq_weight_factory(
    std::vector<BsqWeightSource*>* registry) {
  CSQ_CHECK(registry != nullptr) << "bsq factory: null registry";
  return [registry](const std::string& name, std::vector<std::int64_t> shape,
                    std::int64_t fan_in, Rng& rng) -> WeightSourcePtr {
    auto source =
        std::make_unique<BsqWeightSource>(name, std::move(shape), fan_in, rng);
    registry->push_back(source.get());
    return source;
  };
}

}  // namespace csq
