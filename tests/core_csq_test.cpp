// Tests for the CSQ weight parameterization (paper Eq. 3/4/5): closed-form
// forward, analytic gradients vs numeric differences, precision accounting,
// budget regularizer direction, freeze/finalize semantics and the
// exactness-of-finalized-weights property.
#include <cmath>

#include <gtest/gtest.h>

#include "core/budget.h"
#include "core/csq_weight.h"
#include "core/export.h"
#include "tensor/ops.h"
#include "test_helpers.h"
#include "util/check.h"

namespace csq {
namespace {

using testing::expect_close;
using testing::numeric_derivative;
using testing::probe_loss;
using testing::random_tensor;

CsqWeightSource make_source(Rng& rng, int fixed_precision = 0,
                            std::vector<std::int64_t> shape = {3, 4}) {
  CsqWeightOptions options;
  options.fixed_precision = fixed_precision;
  return CsqWeightSource("layer", std::move(shape), 4, options, rng);
}

// Hand-computed Eq. (5) on the source's own parameters.
Tensor reference_weight(CsqWeightSource& source, float beta) {
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  // Layout from collect_parameters: s, (mp0, mn0) ... (mp7, mn7), mB.
  Parameter* scale = params[0];
  Parameter* mask = params.back();
  const std::int64_t count = source.weight_count();
  Tensor expected({count});
  for (std::int64_t i = 0; i < count; ++i) {
    double acc = 0.0;
    for (int b = 0; b < 8; ++b) {
      const float mp = params[1 + 2 * b]->value[i];
      const float mn = params[2 + 2 * b]->value[i];
      acc += (gate(mp, beta) - gate(mn, beta)) * std::pow(2.0, b) *
             gate(mask->value[b], beta);
    }
    expected[i] =
        static_cast<float>(scale->value[0] / 255.0 * acc);
  }
  return expected;
}

TEST(CsqWeight, ForwardMatchesEquationFive) {
  Rng rng(60);
  CsqWeightSource source = make_source(rng);
  for (float beta : {1.0f, 4.0f, 30.0f}) {
    source.set_beta(beta);
    const Tensor& materialized = source.weight(/*training=*/false);
    Tensor expected = reference_weight(source, beta);
    float max_diff = 0.0f;
    for (std::int64_t i = 0; i < materialized.numel(); ++i) {
      max_diff = std::max(max_diff,
                          std::fabs(materialized[i] - expected[i]));
    }
    EXPECT_LT(max_diff, 1e-5f) << "beta=" << beta;
  }
}

TEST(CsqWeight, InitializationApproximatesHeDenseUnderHardGates) {
  // With hard gates the decomposed initialization reproduces an 8-bit
  // quantization of the dense init: weights should span a reasonable range.
  Rng rng(61);
  CsqWeightSource source = make_source(rng, 0, {16, 16});
  source.set_beta(5000.0f);  // effectively hard
  const Tensor& w = source.weight(false);
  EXPECT_GT(max_abs(w), 0.1f);  // He std for fan_in=4 is ~0.7
  EXPECT_GT(squared_norm(w), 0.0f);
}

// Analytic gradients against numeric differences for every variable class
// (s, m_p, m_n, m_B), across temperatures.
class CsqGradTest : public ::testing::TestWithParam<float> {};

TEST_P(CsqGradTest, AllParameterGradientsMatchNumeric) {
  const float beta = GetParam();
  Rng rng(62);
  CsqWeightSource source = make_source(rng);
  source.set_beta(beta);

  Tensor probe = random_tensor({3, 4}, rng);
  source.weight(/*training=*/true);
  source.backward(probe);

  std::vector<Parameter*> params;
  source.collect_parameters(params);
  for (Parameter* param : params) {
    for (std::int64_t index = 0; index < std::min<std::int64_t>(
                                             param->value.numel(), 3);
         ++index) {
      const float original = param->value[index];
      const double numeric = numeric_derivative(
          [&](float x) {
            param->value[index] = x;
            param->mark_updated();  // direct-mutation contract
            const Tensor& w = source.weight(/*training=*/false);
            return static_cast<double>(probe_loss(w, probe));
          },
          original, 1e-3f);
      param->value[index] = original;
      param->mark_updated();
      SCOPED_TRACE(param->name + "[" + std::to_string(index) + "] beta=" +
                   std::to_string(beta));
      expect_close(param->grad[index], numeric, 5e-2, 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Betas, CsqGradTest,
                         ::testing::Values(1.0f, 3.0f, 8.0f));

TEST(CsqWeight, FixedPrecisionMaskSelectsTopBits) {
  Rng rng(63);
  CsqWeightSource source = make_source(rng, /*fixed_precision=*/3);
  EXPECT_EQ(source.layer_precision(), 3);
  EXPECT_DOUBLE_EQ(source.bits_per_weight(), 3.0);
  // Mask gradient must never flow in fixed-precision mode.
  source.set_beta(2.0f);
  Tensor probe = random_tensor({3, 4}, rng);
  source.weight(true);
  source.backward(probe);
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  Parameter* mask = params.back();
  for (int b = 0; b < 8; ++b) EXPECT_FLOAT_EQ(mask->grad[b], 0.0f);
}

TEST(CsqWeight, FixedPrecisionSpansUsefulDynamicRange) {
  // Top-bit selection keeps the representable range within ~25% of the full
  // scale (the regression behind the CSQ-Uniform fix; lowest-bit selection
  // would shrink it by ~100x at 2 bits).
  Rng rng(64);
  CsqWeightSource source = make_source(rng, /*fixed_precision=*/2, {8, 8});
  source.set_beta(5000.0f);
  const Tensor& w = source.weight(false);
  EXPECT_GT(max_abs(w), 0.5f * source.scale());
}

TEST(CsqWeight, PrecisionCountsNonNegativeMaskLogits) {
  Rng rng(65);
  CsqWeightSource source = make_source(rng);
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  Parameter* mask = params.back();
  for (int b = 0; b < 8; ++b) mask->value[b] = (b % 2 == 0) ? 0.5f : -0.5f;
  EXPECT_EQ(source.layer_precision(), 4);
  mask->value[1] = 0.0f;  // boundary counts as active: I(m >= 0)
  EXPECT_EQ(source.layer_precision(), 5);
}

TEST(CsqWeight, BudgetRegularizerGradientDirection) {
  Rng rng(66);
  CsqWeightSource source = make_source(rng);
  source.set_beta(2.0f);
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  Parameter* mask = params.back();

  // Positive strength (model above budget) pushes every mask logit down.
  source.add_budget_regularizer_gradient(0.5f);
  for (int b = 0; b < 8; ++b) EXPECT_GT(mask->grad[b], 0.0f);  // grad desc -> down
  mask->zero_grad();
  // Negative strength (below budget) grows precision.
  source.add_budget_regularizer_gradient(-0.5f);
  for (int b = 0; b < 8; ++b) EXPECT_LT(mask->grad[b], 0.0f);
}

TEST(CsqWeight, BudgetRegularizerMatchesDerivativeOfEqSix) {
  Rng rng(67);
  CsqWeightSource source = make_source(rng);
  source.set_beta(3.0f);
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  Parameter* mask = params.back();
  source.add_budget_regularizer_gradient(1.0f);
  for (int b = 0; b < 8; ++b) {
    // d/dm [ f_beta(m) ] = beta * f * (1 - f).
    EXPECT_NEAR(mask->grad[b], gate_derivative(mask->value[b], 3.0f), 1e-5f);
  }
}

TEST(CsqWeight, FreezeMaskStopsMaskTrainingButKeepsBitTraining) {
  Rng rng(68);
  CsqWeightSource source = make_source(rng);
  source.set_beta(2.0f);
  source.freeze_mask();
  EXPECT_EQ(source.mode(), CsqMode::finetune);

  Tensor probe = random_tensor({3, 4}, rng);
  source.weight(true);
  source.backward(probe);
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  Parameter* mask = params.back();
  for (int b = 0; b < 8; ++b) EXPECT_FLOAT_EQ(mask->grad[b], 0.0f);
  // Bit-representation gradients still flow for active bits.
  float bit_grad_total = 0.0f;
  for (int b = 0; b < 8; ++b) {
    bit_grad_total += max_abs(params[1 + 2 * b]->grad);
  }
  EXPECT_GT(bit_grad_total, 0.0f);
  // Budget regularizer becomes a no-op.
  source.add_budget_regularizer_gradient(1.0f);
  for (int b = 0; b < 8; ++b) EXPECT_FLOAT_EQ(mask->grad[b], 0.0f);
}

TEST(CsqWeight, FreezeMaskPreservesHardPrecision) {
  Rng rng(69);
  CsqWeightSource source = make_source(rng);
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  Parameter* mask = params.back();
  for (int b = 0; b < 8; ++b) mask->value[b] = b < 5 ? 0.4f : -0.4f;
  const int before = source.layer_precision();
  source.freeze_mask();
  EXPECT_EQ(source.layer_precision(), before);
  // Changing logits after the freeze no longer changes the precision.
  mask->value[7] = 10.0f;
  EXPECT_EQ(source.layer_precision(), before);
}

TEST(CsqWeight, FinalizedWeightsAreExactlyOnTheGrid) {
  Rng rng(70);
  CsqWeightSource source = make_source(rng, 0, {6, 6});
  source.set_beta(50.0f);
  source.finalize();
  EXPECT_EQ(source.mode(), CsqMode::finalized);

  const Tensor& w = source.weight(false);
  const float factor = source.scale() / 255.0f;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    const float code = w[i] / factor;
    // Exact: the materialization is factor * integer, no epsilon needed
    // beyond float division round-off.
    EXPECT_EQ(w[i], factor * std::round(code));
  }
}

TEST(CsqWeight, ExportRoundtripIsBitExact) {
  Rng rng(71);
  CsqWeightSource source = make_source(rng, 0, {10, 10});
  source.finalize();
  EXPECT_EQ(export_roundtrip_error(source), 0.0f);
}

TEST(CsqWeight, IntegerCodesRespectMaskAndRange) {
  Rng rng(72);
  CsqWeightSource source = make_source(rng, /*fixed_precision=*/2, {8, 8});
  source.finalize();
  const std::vector<std::int32_t> codes = source.integer_codes();
  for (const std::int32_t code : codes) {
    EXPECT_LE(std::abs(code), 255);
    // Only the top two bits participate: code must be a multiple of 64.
    EXPECT_EQ(code % 64, 0);
  }
}

// The gate values cached by a training materialization are only valid at the
// temperature/mask state they were computed under. Mutating either between
// forward and backward must assert, not silently mix temperatures.
TEST(CsqWeight, SetBetaBetweenForwardAndBackwardInvalidatesCache) {
  Rng rng(90);
  CsqWeightSource source = make_source(rng);
  source.set_beta(2.0f);
  source.weight(/*training=*/true);
  source.set_beta(4.0f);  // stale gates: cached at beta=2
  EXPECT_THROW(source.backward(Tensor({3, 4})), check_error);
}

TEST(CsqWeight, RedundantSetBetaKeepsCacheValid) {
  Rng rng(91);
  CsqWeightSource source = make_source(rng);
  source.set_beta(2.0f);
  source.weight(/*training=*/true);
  source.set_beta(2.0f);  // no-op: gates still match
  Tensor probe = random_tensor({3, 4}, rng);
  EXPECT_NO_THROW(source.backward(probe));
}

TEST(CsqWeight, FreezeMaskBetweenForwardAndBackwardInvalidatesCache) {
  Rng rng(92);
  CsqWeightSource source = make_source(rng);
  source.set_beta(2.0f);
  source.weight(/*training=*/true);
  source.freeze_mask();  // mask values and plane staging are now stale
  EXPECT_THROW(source.backward(Tensor({3, 4})), check_error);
}

TEST(CsqWeight, BackwardOnFinalizedSourceThrows) {
  Rng rng(73);
  CsqWeightSource source = make_source(rng);
  source.finalize();
  source.weight(false);
  EXPECT_THROW(source.backward(Tensor({3, 4})), check_error);
}

TEST(CsqWeight, IntegerCodesRequireFinalizedMode) {
  Rng rng(74);
  CsqWeightSource source = make_source(rng);
  EXPECT_THROW(source.integer_codes(), check_error);
}

// ---------------------------------------------------------------- budget --

TEST(Budget, AveragePrecisionIsElementWeighted) {
  Rng rng(75);
  CsqWeightOptions small_opts;
  small_opts.fixed_precision = 2;
  CsqWeightOptions big_opts;
  big_opts.fixed_precision = 8;
  CsqWeightSource small("small", {2, 2}, 2, small_opts, rng);    // 4 elems
  CsqWeightSource big("big", {6, 6}, 6, big_opts, rng);          // 36 elems
  const double avg = average_precision({&small, &big});
  EXPECT_NEAR(avg, (2.0 * 4 + 8.0 * 36) / 40.0, 1e-9);
}

TEST(Budget, DeltaSignMatchesPaperSemantics) {
  Rng rng(76);
  CsqWeightOptions opts;
  opts.fixed_precision = 4;
  CsqWeightSource source("s", {3, 3}, 3, opts, rng);
  EXPECT_GT(budget_delta({&source}, 3.0), 0.0);  // above budget -> prune
  EXPECT_LT(budget_delta({&source}, 5.0), 0.0);  // below budget -> grow
  EXPECT_NEAR(budget_delta({&source}, 4.0), 0.0, 1e-12);
}

TEST(Budget, LayerPrecisionsReportNamesAndCounts) {
  Rng rng(77);
  CsqWeightOptions opts;
  opts.fixed_precision = 3;
  CsqWeightSource source("conv1", {2, 3}, 3, opts, rng);
  const auto layers = layer_precisions({{"conv1", &source}});
  ASSERT_EQ(layers.size(), 1u);
  EXPECT_EQ(layers[0].name, "conv1");
  EXPECT_EQ(layers[0].bits, 3);
  EXPECT_EQ(layers[0].weight_count, 6);
}

// ---------------------------------------------------------------- export --

TEST(Export, StorageBitsAccounting) {
  QuantizedLayerExport layer;
  layer.codes.assign(100, 0);
  layer.bits = 3;
  // Codes plus the two per-layer floats of the v2 container (scale +
  // grid denominator).
  EXPECT_EQ(layer.storage_bits(), 100 * 3 + 64);
}

}  // namespace
}  // namespace csq
