// CsqWeightSource — the paper's bi-level continuous-sparsification weight
// parameterization (Eq. 3/4/5) with fully analytic gradients (no STE).
//
// Trainable variables per layer (paper Section III-A):
//   s            per-layer scale (scalar),
//   m_p^(b)      bit-representation logits of the positive part, one plane
//                of the weight shape per bit b in [0, 8),
//   m_n^(b)      same for the negative part,
//   m_B^(b)      bit-selection logits, one scalar per bit.
//
// Materialized weight (Eq. 5):
//   W = s/(2^8-1) * sum_b ( f_beta(m_p^(b)) - f_beta(m_n^(b)) ) * 2^b
//                         * f_beta(m_B^(b))
//
// Three modes follow Algorithm 1:
//   joint      — both levels soft; bit masks receive loss + budget gradients.
//   finetune   — the bit mask is frozen to q_b = I(m_B^(b) >= 0) (Eq. 4);
//                only s, m_p, m_n train, under a rewound temperature.
//   finalized  — every gate is a unit step; the weight is exactly
//                W = s/255 * code with integer codes, |code| <= 255.
#pragma once

#include <array>

#include "core/gate.h"
#include "nn/weight_source.h"
#include "quant/bitplane_engine.h"

namespace csq {

enum class CsqMode { joint, finetune, finalized };

struct CsqWeightOptions {
  // 0 = learned precision (bi-level CSQ). A positive value n fixes the mask
  // to the lowest n bits and disables mask training — the paper's
  // "CSQ-Uniform" ablation arm (Eq. 3).
  int fixed_precision = 0;
  // Initial logit for active bit-mask entries.
  float mask_init = 0.3f;
};

class CsqWeightSource final : public WeightSource {
 public:
  static constexpr int kBits = 8;
  static constexpr float kDenominator = 255.0f;  // 2^8 - 1

  CsqWeightSource(const std::string& name, std::vector<std::int64_t> shape,
                  std::int64_t fan_in, const CsqWeightOptions& options,
                  Rng& rng);

  // --- WeightSource interface ------------------------------------------
  const Tensor& weight(bool training) override;
  void backward(const Tensor& grad_weight) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  const char* kind() const override { return "csq"; }
  std::int64_t weight_count() const override { return element_count_; }
  std::vector<std::int64_t> weight_shape() const override { return shape_; }
  // Storage bits per weight under the *current* (hard-counted) bit mask —
  // the paper counts precision as sum_b I(m_B^(b) >= 0) throughout training.
  double bits_per_weight() const override { return layer_precision(); }
  // Finalized sources are exactly s/255 * code — the fixed-point form the
  // export container and the integer runtime consume.
  bool has_finalized_codes() const override {
    return mode_ == CsqMode::finalized;
  }
  WeightCodes finalized_codes() const override;

  // --- CSQ-specific API --------------------------------------------------
  void set_beta(float beta);
  float beta() const { return beta_; }
  CsqMode mode() const { return mode_; }

  // Hard-counted layer precision sum_b I(mask bit active).
  int layer_precision() const;

  // Adds the budget-aware regularizer gradient to m_B (paper Eq. 6/7):
  //   d/dm_B [ strength * sum_b f_beta(m_B^(b)) ]
  // where strength = lambda * DeltaS is computed by the caller. No-op unless
  // the source is in joint mode with a trainable mask.
  void add_budget_regularizer_gradient(float strength);

  // Freezes the bit selection to q_b = I(m_B^(b) >= 0) and enters finetune
  // mode (Algorithm 1, "Mixed-precision finetuning").
  void freeze_mask();

  // Snaps every gate to the unit step; subsequent materializations are
  // exactly quantized (integer code times s/255).
  void finalize();

  // Integer codes of the finalized weight, in [-(2^8-1), 2^8-1]. Requires
  // finalized mode.
  std::vector<std::int32_t> integer_codes() const;
  float scale() const { return scale_.value[0]; }
  const std::vector<std::int64_t>& shape() const { return shape_; }

 private:
  void materialize_soft(bool cache_for_backward);
  void materialize_hard();
  // Eval dirty-flag stamp: parameter versions + scheme revision. Any
  // set_beta / freeze_mask / finalize / optimizer step changes it.
  std::uint64_t state_stamp() const;
  // Stages the engine planes for the hard paths (frozen-active bits only).
  void stage_hard_planes() const;
  bool mask_bit_active(int bit) const;
  float soft_mask_value(int bit) const;
  bool mask_trains() const {
    return mode_ == CsqMode::joint && fixed_precision_ == 0;
  }

  Parameter scale_;
  std::array<Parameter, kBits> pos_logits_;
  std::array<Parameter, kBits> neg_logits_;
  Parameter mask_logits_;  // shape (kBits)
  std::array<bool, kBits> frozen_mask_{};

  Tensor quantized_;
  // Shared materialization pipeline: owns the gate caches and the reduction
  // workspace, so steady-state steps allocate nothing. Mutable because the
  // const hard paths (integer_codes) stage planes through it.
  mutable BitPlaneEngine engine_;
  // Per staged plane: originating bit index and the soft mask value used at
  // the last soft materialization (plane order == engine plane order).
  std::array<int, kBits> plane_bits_{};
  std::array<float, kBits> plane_mask_values_{};
  int staged_planes_ = 0;
  // The gate cache is only usable by backward() while nothing that changes
  // the gate values (set_beta, freeze_mask, finalize, a non-training
  // materialization) has run since the caching forward.
  bool cache_valid_ = false;

  std::vector<std::int64_t> shape_;
  std::int64_t element_count_ = 0;
  float beta_ = 1.0f;
  CsqMode mode_ = CsqMode::joint;
  int fixed_precision_ = 0;
  // Bumped on every scheme mutation (set_beta, freeze_mask, finalize) so
  // state_stamp() changes even when no parameter version moved.
  std::uint64_t internal_rev_ = 0;
};

// Registry-recording factory (the CSQ trainer drives temperature, budget
// regularization and finalization through the registry).
WeightSourceFactory csq_weight_factory(
    std::vector<CsqWeightSource*>* registry,
    const CsqWeightOptions& options = {});

}  // namespace csq
