// Tests for src/quant: uniform quantizer properties, STE / DoReFa /
// LQ-Nets / BSQ weight sources, activation quantizers, PTQ, and the shared
// bit-plane engine / quant-kernel pipeline every family materializes
// through (cross-family gradient checks, serial-vs-pooled parity).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>

#include <gtest/gtest.h>

#include "core/csq_weight.h"
#include "nn/conv2d.h"
#include "quant/act_quant.h"
#include "quant/bsq_weight.h"
#include "quant/dorefa_weight.h"
#include "quant/lqnets_weight.h"
#include "quant/ptq.h"
#include "quant/quantizer.h"
#include "quant/ste_uniform_weight.h"
#include "nn/models.h"
#include "tensor/ops.h"
#include "tensor/quant_kernels.h"
#include "test_helpers.h"
#include "util/check.h"

namespace csq {
namespace {

using testing::random_tensor;

// ----------------------------------------------------------- quantizer --

class QuantizerBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerBitsTest, ValuesLandOnTheGrid) {
  const int bits = GetParam();
  const float scale = 1.7f;
  const auto levels = static_cast<float>(levels_per_side(bits));
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const float value = rng.uniform(-3.0f, 3.0f);
    const float q = quantize_symmetric(value, scale, bits);
    // q * levels / scale must be an integer with |.| <= levels.
    const float grid_position = q * levels / scale;
    EXPECT_NEAR(grid_position, std::round(grid_position), 1e-3f);
    EXPECT_LE(std::fabs(grid_position), levels + 1e-3f);
  }
}

TEST_P(QuantizerBitsTest, QuantizationIsIdempotent) {
  const int bits = GetParam();
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const float value = rng.uniform(-2.0f, 2.0f);
    const float once = quantize_symmetric(value, 1.0f, bits);
    EXPECT_FLOAT_EQ(once, quantize_symmetric(once, 1.0f, bits));
  }
}

TEST_P(QuantizerBitsTest, ErrorBoundedByHalfStep) {
  const int bits = GetParam();
  const float scale = 1.0f;
  const float step = scale / static_cast<float>(levels_per_side(bits));
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const float value = rng.uniform(-1.0f, 1.0f);  // inside the clip range
    const float q = quantize_symmetric(value, scale, bits);
    EXPECT_LE(std::fabs(q - value), 0.5f * step + 1e-6f);
  }
}

TEST_P(QuantizerBitsTest, CodesRoundTrip) {
  const int bits = GetParam();
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const float value = rng.uniform(-2.0f, 2.0f);
    const std::int64_t code = symmetric_code(value, 1.5f, bits);
    EXPECT_LE(std::llabs(code), levels_per_side(bits));
    EXPECT_FLOAT_EQ(dequantize_code(code, 1.5f, bits),
                    quantize_symmetric(value, 1.5f, bits));
  }
}

INSTANTIATE_TEST_SUITE_P(AllBits, QuantizerBitsTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Quantizer, ClampsOutOfRangeValues) {
  EXPECT_FLOAT_EQ(quantize_symmetric(10.0f, 1.0f, 3), 1.0f);
  EXPECT_FLOAT_EQ(quantize_symmetric(-10.0f, 1.0f, 3), -1.0f);
}

TEST(Quantizer, UnsignedGridAndClip) {
  EXPECT_FLOAT_EQ(quantize_unsigned(-1.0f, 2.0f, 4), 0.0f);
  EXPECT_FLOAT_EQ(quantize_unsigned(5.0f, 2.0f, 4), 2.0f);
  const float q = quantize_unsigned(1.0f, 2.0f, 2);
  EXPECT_NEAR(q * 3.0f / 2.0f, std::round(q * 3.0f / 2.0f), 1e-5f);
}

TEST(Quantizer, MaxAbsScaleHandlesZeros) {
  EXPECT_FLOAT_EQ(max_abs_scale(Tensor({4})), 1.0f);
  EXPECT_FLOAT_EQ(max_abs_scale(Tensor::from_data({2}, {-3.0f, 2.0f})), 3.0f);
}

TEST(Quantizer, PercentileScaleClipsOutliers) {
  std::vector<float> values(1000, 0.1f);
  values[0] = 100.0f;  // one huge outlier
  Tensor tensor = Tensor::from_data({1000}, std::move(values));
  EXPECT_FLOAT_EQ(percentile_scale(tensor, 0.99f), 0.1f);
  EXPECT_FLOAT_EQ(max_abs_scale(tensor), 100.0f);
}

// --------------------------------------------------------- ste uniform --

TEST(SteUniform, WeightsAreOnGridAndGradPassesThrough) {
  Rng rng(7);
  SteUniformWeightSource source("w", {4, 4}, 4, /*bits=*/3, rng);
  const Tensor& quantized = source.weight(true);
  const float scale = max_abs_scale(quantized);
  for (std::int64_t i = 0; i < quantized.numel(); ++i) {
    const float grid = quantized[i] / scale * 7.0f;
    EXPECT_NEAR(grid, std::round(grid), 1e-3f);
  }

  Tensor grad = Tensor::full({4, 4}, 0.5f);
  source.backward(grad);
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  ASSERT_EQ(params.size(), 1u);
  EXPECT_FLOAT_EQ(params[0]->grad[0], 0.5f);  // pure pass-through
  EXPECT_DOUBLE_EQ(source.bits_per_weight(), 3.0);
}

TEST(SteUniform, MixedFactoryUsesPerLayerBits) {
  Rng rng(8);
  auto factory = ste_mixed_weight_factory({{"a", 2}, {"b", 6}}, 4);
  auto a = factory("a", {2, 2}, 2, rng);
  auto b = factory("b", {2, 2}, 2, rng);
  auto other = factory("unknown", {2, 2}, 2, rng);
  EXPECT_DOUBLE_EQ(a->bits_per_weight(), 2.0);
  EXPECT_DOUBLE_EQ(b->bits_per_weight(), 6.0);
  EXPECT_DOUBLE_EQ(other->bits_per_weight(), 4.0);
}

// -------------------------------------------------------------- dorefa --

TEST(Dorefa, WeightsBoundedAndOnGrid) {
  Rng rng(9);
  DorefaWeightSource source("w", {8, 8}, 8, /*bits=*/2, rng);
  const Tensor& quantized = source.weight(true);
  const auto levels = 3.0f;  // 2^2 - 1
  for (std::int64_t i = 0; i < quantized.numel(); ++i) {
    EXPECT_LE(std::fabs(quantized[i]), 1.0f + 1e-5f);
    const float grid = (quantized[i] + 1.0f) / 2.0f * levels;
    EXPECT_NEAR(grid, std::round(grid), 1e-3f);
  }
}

TEST(Dorefa, GradientScalesWithTanhDerivative) {
  Rng rng(10);
  DorefaWeightSource source("w", {1, 2}, 2, /*bits=*/2, rng);
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  // Put one latent near zero (tanh' ~ 1) and one far out (tanh' ~ 0).
  params[0]->value[0] = 0.0f;
  params[0]->value[1] = 5.0f;
  source.weight(true);
  source.backward(Tensor::full({1, 2}, 1.0f));
  EXPECT_GT(std::fabs(params[0]->grad[0]), 10.0f * std::fabs(params[0]->grad[1]));
}

// -------------------------------------------------------------- lqnets --

TEST(LqNets, EncodingUsesAtMostTwoToTheNLevels) {
  Rng rng(11);
  LqNetsWeightSource source("w", {16, 16}, 16, /*bits=*/2, rng);
  const Tensor& quantized = source.weight(true);
  std::set<float> distinct;
  for (std::int64_t i = 0; i < quantized.numel(); ++i) {
    distinct.insert(quantized[i]);
  }
  EXPECT_LE(distinct.size(), 4u);
  EXPECT_EQ(source.basis().size(), 2u);
}

TEST(LqNets, QemReducesFitError) {
  Rng rng(12);
  LqNetsWeightSource source("w", {32, 32}, 32, /*bits=*/3, rng);
  source.weight(true);
  const float first = source.last_fit_error();
  for (int i = 0; i < 5; ++i) source.weight(true);
  EXPECT_LE(source.last_fit_error(), first * 1.01f);
}

TEST(LqNets, RejectsTooManyBits) {
  Rng rng(13);
  EXPECT_THROW(LqNetsWeightSource("w", {2, 2}, 2, 5, rng), check_error);
}

// ----------------------------------------------------------------- bsq --

TEST(Bsq, InitialReconstructionApproximatesDenseInit) {
  Rng rng(14);
  BsqWeightSource source("w", {8, 8}, 8, rng);
  EXPECT_EQ(source.active_bits(), 8);
  const Tensor& w = source.weight(true);
  // 8-bit decomposition: error <= s/255 half-step.
  const float scale = max_abs_scale(w);
  EXPECT_GT(scale, 0.0f);
}

TEST(Bsq, WeightsLandOnEightBitGrid) {
  Rng rng(15);
  BsqWeightSource source("w", {6, 6}, 6, rng);
  const Tensor& w = source.weight(true);
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  const float s = params[0]->value[0];  // scale is first
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    const float grid = w[i] / s * 255.0f;
    EXPECT_NEAR(grid, std::round(grid), 1e-2f);
  }
}

TEST(Bsq, PruneRemovesUnusedBitsAndRequantizes) {
  Rng rng(16);
  BsqWeightSource source("w", {10, 10}, 10, rng);
  Tensor before = source.weight(true);
  // Aggressive threshold: every bit with < 60% usage dies.
  const int removed = source.prune_bits(0.6f);
  EXPECT_GT(removed, 0);
  EXPECT_EQ(source.active_bits(), 8 - removed);
  EXPECT_GE(source.active_bits(), 1);
  EXPECT_DOUBLE_EQ(source.bits_per_weight(), source.active_bits());
  // Re-quantized weights still approximate the pre-prune weights.
  Tensor after = source.weight(true);
  EXPECT_LT(max_abs_diff(before, after), max_abs_scale(before) * 0.6f);
}

TEST(Bsq, SparsityRegularizerPushesActiveLatentsOnly) {
  Rng rng(17);
  BsqWeightSource source("w", {4, 4}, 4, rng);
  source.add_sparsity_regularizer(0.1f);
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  // Latents sit at 0.25/0.75 > 0, so every plane entry receives +0.1.
  bool any_pushed = false;
  for (std::size_t p = 1; p < params.size(); ++p) {
    for (std::int64_t i = 0; i < params[p]->grad.numel(); ++i) {
      if (params[p]->grad[i] != 0.0f) {
        EXPECT_FLOAT_EQ(params[p]->grad[i], 0.1f);
        any_pushed = true;
      }
    }
  }
  EXPECT_TRUE(any_pushed);
}

TEST(Bsq, SteBackwardRoutesGradientToActivePlanes) {
  Rng rng(18);
  BsqWeightSource source("w", {2, 2}, 2, rng);
  source.weight(true);
  source.backward(Tensor::full({2, 2}, 1.0f));
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  float total = 0.0f;
  for (Parameter* param : params) {
    for (std::int64_t i = 0; i < param->grad.numel(); ++i) {
      total += std::fabs(param->grad[i]);
    }
  }
  EXPECT_GT(total, 0.0f);
}

TEST(Bsq, RoundClipBackwardRejectsDiffSumRequests) {
  // BSQ's round_clip planes cache no gates, so the bit-mask diff sum (which
  // reads them) cannot be served: the kernel refuses the request instead
  // of dereferencing the null gate pointers.
  const std::vector<float> pos = {0.2f, 0.7f};
  const std::vector<float> neg = {0.0f, 1.5f};
  const std::vector<float> grad_out = {1.0f, -1.0f};
  std::vector<float> grad_pos(2, 0.0f);
  BitPlaneGrad plane;
  plane.pos = pos.data();
  plane.neg = neg.data();
  plane.coeff = 1.0f;
  plane.grad_pos = grad_pos.data();
  plane.want_diff_sum = true;
  std::vector<double> partials(
      static_cast<std::size_t>(quant_chunk_count(2)));
  double diff_sum = -1.0;
  EXPECT_THROW(bitplane_backward(GateKind::round_clip, 1.0f, &plane, 1,
                                 grad_out.data(), 2, partials.data(),
                                 &diff_sum, KernelExec::serial),
               check_error);

  // Without the request the same plane runs its clipped STE.
  plane.want_diff_sum = false;
  bitplane_backward(GateKind::round_clip, 1.0f, &plane, 1, grad_out.data(),
                    2, partials.data(), &diff_sum, KernelExec::serial);
  EXPECT_EQ(grad_pos[0], 1.0f);
  EXPECT_EQ(grad_pos[1], -1.0f);
  EXPECT_EQ(diff_sum, 0.0);
}

TEST(BitPlaneKernels, SigmoidBackwardReducesDiffSumsOfRequestedPlanesOnly) {
  // Two sigmoid planes over three grid chunks: plane 0 asks for the
  // bit-mask diff sum, sum_i grad_out[i] * (g_pos[i] - g_neg[i]), read from
  // the gates the soft forward cached; plane 1 does not and reads zero.
  const std::int64_t count = 2 * kQuantChunk + 517;
  const auto n = static_cast<std::size_t>(count);
  const float beta = 3.0f;
  Rng rng(4242);
  std::vector<float> pos0(n), neg0(n), pos1(n), neg1(n), grad_out(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos0[i] = rng.uniform(-2.0f, 2.0f);
    neg0[i] = rng.uniform(-2.0f, 2.0f);
    pos1[i] = rng.uniform(-2.0f, 2.0f);
    neg1[i] = rng.uniform(-2.0f, 2.0f);
    grad_out[i] = rng.uniform(-1.0f, 1.0f);
  }
  std::vector<float> gp0(n), gn0(n), gp1(n), gn1(n), out(n, 0.0f);
  BitPlane planes[2];
  planes[0].pos = pos0.data();
  planes[0].neg = neg0.data();
  planes[0].coeff = 0.5f;
  planes[0].gate_pos = gp0.data();
  planes[0].gate_neg = gn0.data();
  planes[1].pos = pos1.data();
  planes[1].neg = neg1.data();
  planes[1].coeff = 0.25f;
  planes[1].gate_pos = gp1.data();
  planes[1].gate_neg = gn1.data();
  bitplane_materialize(GateKind::sigmoid, beta, planes, 2, out.data(), count,
                       KernelExec::serial);

  // The kernel's reduction order: a double sum per grid chunk, then the
  // chunks in order. Each float-by-float product is exact in double, so the
  // reference matches bit for bit whether or not the compiler fuses the
  // multiply-add.
  const std::int64_t chunks = quant_chunk_count(count);
  ASSERT_EQ(chunks, 3);
  double want = 0.0;
  for (std::int64_t c = 0; c < chunks; ++c) {
    double acc = 0.0;
    for (std::int64_t i = c * kQuantChunk;
         i < std::min(count, (c + 1) * kQuantChunk); ++i) {
      const auto k = static_cast<std::size_t>(i);
      acc += static_cast<double>(grad_out[k]) * (gp0[k] - gn0[k]);
    }
    want += acc;
  }
  ASSERT_NE(want, 0.0);

  std::vector<float> serial_grads;
  for (const KernelExec exec : {KernelExec::serial, KernelExec::pooled}) {
    std::vector<float> grad_pos0(n, 0.0f), grad_neg0(n, 0.0f);
    std::vector<float> grad_pos1(n, 0.0f), grad_neg1(n, 0.0f);
    BitPlaneGrad grads[2];
    const BitPlane* sources[2] = {&planes[0], &planes[1]};
    float* grad_pos[2] = {grad_pos0.data(), grad_pos1.data()};
    float* grad_neg[2] = {grad_neg0.data(), grad_neg1.data()};
    for (int p = 0; p < 2; ++p) {
      grads[p].pos = sources[p]->pos;
      grads[p].neg = sources[p]->neg;
      grads[p].gate_pos = sources[p]->gate_pos;
      grads[p].gate_neg = sources[p]->gate_neg;
      grads[p].coeff = sources[p]->coeff;
      grads[p].grad_pos = grad_pos[p];
      grads[p].grad_neg = grad_neg[p];
    }
    grads[0].want_diff_sum = true;
    std::vector<double> partials(static_cast<std::size_t>(chunks * 2), -1.0);
    double diff_sums[2] = {-1.0, -1.0};
    bitplane_backward(GateKind::sigmoid, beta, grads, 2, grad_out.data(),
                      count, partials.data(), diff_sums, exec);
    EXPECT_EQ(diff_sums[0], want);
    EXPECT_EQ(diff_sums[1], 0.0);

    // Both planes' gradients are the same under either schedule.
    std::vector<float> all = grad_pos0;
    for (const auto* grad : {&grad_neg0, &grad_pos1, &grad_neg1}) {
      all.insert(all.end(), grad->begin(), grad->end());
    }
    if (exec == KernelExec::serial) {
      serial_grads = all;
    } else {
      EXPECT_TRUE(all == serial_grads) << "pooled gradients differ";
    }
  }
}

// --------------------------------------- cross-family engine parity ----
//
// All five WeightSource families materialize through the shared
// BitPlaneEngine / quant_kernels pipeline. The checks below run one
// identical harness over every family: (a) the analytic backward of each
// source matches a finite-difference probe of its own forward (for the
// STE-style families the epsilon spans the quantization step, so the FD
// measures the surrogate slope the STE claims), and (b) pooled (multi-
// thread) and serial execution produce bit-identical weights and gradients.

struct FamilyCase {
  std::string name;
  // Builds a ready-to-train source of the given shape (fan_in = last dim).
  std::function<WeightSourcePtr(Rng&, std::vector<std::int64_t>)> make;
  // Finite-difference epsilons for one parameter coordinate; several values
  // are averaged (used where the forward is a staircase).
  std::function<std::vector<float>(const WeightSource&, const Parameter&,
                                   std::int64_t)>
      eps_list;
  // Rejects coordinates where the FD probe is ill-posed (the scale argmax,
  // clip edges, rounding-boundary straddles).
  std::function<bool(const WeightSource&, const Parameter&, std::int64_t)>
      coordinate_ok;
  double rtol = 5e-2;
  double atol = 1e-3;
};

std::int64_t fan_in_of(const std::vector<std::int64_t>& shape) {
  return shape.back();
}

std::vector<FamilyCase> family_cases() {
  std::vector<FamilyCase> cases;

  {  // CSQ: smooth sigmoid gates — plain small-eps FD on every parameter.
    FamilyCase fc;
    fc.name = "csq";
    fc.make = [](Rng& rng, std::vector<std::int64_t> shape) {
      CsqWeightOptions options;
      auto src = std::make_unique<CsqWeightSource>(
          "w", shape, fan_in_of(shape), options, rng);
      src->set_beta(3.0f);
      return WeightSourcePtr(std::move(src));
    };
    fc.eps_list = [](const WeightSource&, const Parameter&, std::int64_t) {
      return std::vector<float>{1e-3f};
    };
    fc.coordinate_ok = [](const WeightSource&, const Parameter&,
                          std::int64_t) { return true; };
    fc.rtol = 5e-2;
    fc.atol = 1e-3;
    cases.push_back(std::move(fc));
  }

  {  // BSQ: latents sit at 0.25/0.75, so eps=0.5 flips the rounded bit
     // exactly once per side and the clipped STE matches the FD exactly.
    FamilyCase fc;
    fc.name = "bsq";
    fc.make = [](Rng& rng, std::vector<std::int64_t> shape) {
      return WeightSourcePtr(std::make_unique<BsqWeightSource>(
          "w", shape, fan_in_of(shape), rng));
    };
    fc.eps_list = [](const WeightSource&, const Parameter& param,
                     std::int64_t) {
      const bool is_scale = param.value.numel() == 1;
      return std::vector<float>{is_scale ? 1e-3f : 0.5f};
    };
    fc.coordinate_ok = [](const WeightSource&, const Parameter&,
                          std::int64_t) { return true; };
    fc.rtol = 2e-2;
    fc.atol = 1e-5;
    cases.push_back(std::move(fc));
  }

  {  // STE-Uniform: eps = one grid step; away from the clip edge and the
     // scale argmax the staircase shifts exactly one level → FD = 1.
    FamilyCase fc;
    fc.name = "ste_uniform";
    fc.make = [](Rng& rng, std::vector<std::int64_t> shape) {
      return WeightSourcePtr(std::make_unique<SteUniformWeightSource>(
          "w", shape, fan_in_of(shape), /*bits=*/3, rng));
    };
    fc.eps_list = [](const WeightSource&, const Parameter& param,
                     std::int64_t) {
      const float scale = max_abs(param.value);
      return std::vector<float>{scale / 7.0f};
    };
    fc.coordinate_ok = [](const WeightSource&, const Parameter& param,
                          std::int64_t index) {
      const float scale = max_abs(param.value);
      const float step = scale / 7.0f;
      return std::fabs(param.value[index]) < scale - 1.5f * step;
    };
    fc.rtol = 5e-3;
    fc.atol = 1e-3;
    cases.push_back(std::move(fc));
  }

  {  // DoReFa: latents are rewritten to the near-linear region of tanh; the
     // per-coordinate eps is sized so the normalized value moves exactly one
     // grid level, making the FD track the surrogate (1-tanh^2)/max slope.
    FamilyCase fc;
    fc.name = "dorefa";
    fc.make = [](Rng& rng, std::vector<std::int64_t> shape) {
      auto src = std::make_unique<DorefaWeightSource>(
          "w", shape, fan_in_of(shape), /*bits=*/2, rng);
      std::vector<Parameter*> params;
      src->collect_parameters(params);
      Tensor& latent = params[0]->value;
      for (std::int64_t i = 0; i < latent.numel(); ++i) {
        latent[i] = rng.uniform(-0.3f, 0.3f);
      }
      latent[0] = 0.35f;  // pins the max|tanh| away from probed coords
      return WeightSourcePtr(std::move(src));
    };
    const auto max_tanh = [](const Parameter& param) {
      float best = 0.0f;
      for (std::int64_t i = 0; i < param.value.numel(); ++i) {
        best = std::max(best, std::fabs(std::tanh(param.value[i])));
      }
      return best;
    };
    fc.eps_list = [max_tanh](const WeightSource&, const Parameter& param,
                             std::int64_t index) {
      const float t = std::tanh(param.value[index]);
      const float level_step = 2.0f * max_tanh(param) / 3.0f;  // 2^2-1 levels
      return std::vector<float>{level_step / (1.0f - t * t)};
    };
    fc.coordinate_ok = [max_tanh](const WeightSource&, const Parameter& param,
                                  std::int64_t index) {
      const float max_t = max_tanh(param);
      const float t = std::tanh(param.value[index]);
      // The one-level step is 2*max_t/3 in tanh units; the perturbed tanh
      // must stay below max_t or the max-abs normalizer itself would move.
      if (std::fabs(t) > 0.25f * max_t) return false;
      const float norm3 = 3.0f * (t / (2.0f * max_t) + 0.5f);
      const float frac = norm3 - std::round(norm3);
      return std::fabs(frac) < 0.3f;  // rounding-boundary guard
    };
    fc.rtol = 0.15;
    fc.atol = 1e-3;
    cases.push_back(std::move(fc));
  }

  {  // LQ-Nets: the staircase is non-uniform, so the FD averages several
     // wide epsilons; near the center of the range the secant slope tracks
     // the STE's unit pass-through.
    FamilyCase fc;
    fc.name = "lqnets";
    fc.make = [](Rng& rng, std::vector<std::int64_t> shape) {
      auto src = std::make_unique<LqNetsWeightSource>(
          "w", shape, fan_in_of(shape), /*bits=*/2, rng);
      for (int i = 0; i < 8; ++i) src->weight(true);  // settle QEM
      return WeightSourcePtr(std::move(src));
    };
    fc.eps_list = [](const WeightSource&, const Parameter& param,
                     std::int64_t) {
      const float m = max_abs(param.value);
      return std::vector<float>{0.6f * m, 0.8f * m, 1.0f * m};
    };
    fc.coordinate_ok = [](const WeightSource&, const Parameter& param,
                          std::int64_t index) {
      return std::fabs(param.value[index]) < 0.35f * max_abs(param.value);
    };
    fc.rtol = 0.4;
    fc.atol = 1e-2;
    cases.push_back(std::move(fc));
  }

  return cases;
}

class WeightSourceFamilyTest : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(WeightSourceFamilyTest, AnalyticBackwardMatchesFiniteDifference) {
  const FamilyCase& fc = GetParam();
  Rng rng(123);
  WeightSourcePtr source = fc.make(rng, {10, 14});

  const Tensor& w0 = source->weight(/*training=*/true);
  Rng probe_rng(321);
  Tensor probe = random_tensor(w0.shape(), probe_rng);
  source->backward(probe);

  std::vector<Parameter*> params;
  source->collect_parameters(params);
  ASSERT_FALSE(params.empty());

  Rng pick(777);
  int checked = 0;
  for (Parameter* param : params) {
    int param_checked = 0;
    for (int attempt = 0; attempt < 64 && param_checked < 3; ++attempt) {
      const auto index = static_cast<std::int64_t>(pick.uniform_int(
          static_cast<std::uint32_t>(param->value.numel())));
      if (!fc.coordinate_ok(*source, *param, index)) continue;
      const float original = param->value[index];
      const std::vector<float> epss = fc.eps_list(*source, *param, index);
      ASSERT_FALSE(epss.empty());
      double numeric = 0.0;
      for (const float eps : epss) {
        numeric += testing::numeric_derivative(
            [&](float x) {
              param->value[index] = x;
              param->mark_updated();  // direct-mutation contract
              return static_cast<double>(
                  testing::probe_loss(source->weight(/*training=*/false),
                                      probe));
            },
            original, eps);
      }
      numeric /= static_cast<double>(epss.size());
      param->value[index] = original;
      param->mark_updated();
      SCOPED_TRACE(fc.name + ": " + param->name + "[" +
                   std::to_string(index) + "]");
      testing::expect_close(param->grad[index], numeric, fc.rtol, fc.atol);
      ++param_checked;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0) << fc.name << ": every probe coordinate was skipped";
}

TEST_P(WeightSourceFamilyTest, PooledMaterializationBitIdenticalToSerial) {
  const FamilyCase& fc = GetParam();
  const KernelExec prior = default_kernel_exec();
  // > kQuantChunk elements so the pooled path actually spans chunks.
  const std::vector<std::int64_t> shape = {37, 113};

  Rng rng_serial(91);
  set_default_kernel_exec(KernelExec::serial);
  WeightSourcePtr serial_src = fc.make(rng_serial, shape);
  const Tensor& w_serial = serial_src->weight(/*training=*/true);
  Rng probe_rng(17);
  Tensor probe = random_tensor(w_serial.shape(), probe_rng);
  serial_src->backward(probe);

  Rng rng_pooled(91);
  set_default_kernel_exec(KernelExec::pooled);
  WeightSourcePtr pooled_src = fc.make(rng_pooled, shape);
  const Tensor& w_pooled = pooled_src->weight(/*training=*/true);
  pooled_src->backward(probe);

  set_default_kernel_exec(prior);

  ASSERT_EQ(w_serial.numel(), w_pooled.numel());
  EXPECT_EQ(std::memcmp(w_serial.data(), w_pooled.data(),
                        sizeof(float) * static_cast<std::size_t>(
                                            w_serial.numel())),
            0)
      << fc.name << ": pooled weights diverge from serial";

  // Gradients ride the same fixed chunk grid: bit-identical too.
  std::vector<Parameter*> params_serial;
  std::vector<Parameter*> params_pooled;
  serial_src->collect_parameters(params_serial);
  pooled_src->collect_parameters(params_pooled);
  ASSERT_EQ(params_serial.size(), params_pooled.size());
  for (std::size_t p = 0; p < params_serial.size(); ++p) {
    ASSERT_EQ(params_serial[p]->grad.numel(), params_pooled[p]->grad.numel());
    EXPECT_EQ(std::memcmp(params_serial[p]->grad.data(),
                          params_pooled[p]->grad.data(),
                          sizeof(float) * static_cast<std::size_t>(
                                              params_serial[p]->grad.numel())),
              0)
        << fc.name << ": gradient of " << params_serial[p]->name
        << " diverges between pooled and serial";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, WeightSourceFamilyTest, ::testing::ValuesIn(family_cases()),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      return info.param.name;
    });

// ----------------------------------------------------------- act quant --

TEST(FixedActQuant, QuantizesToGridAndTracksRange) {
  FixedActQuant quant("aq", 2);
  Tensor input = Tensor::from_data({1, 4}, {0.0f, 1.0f, 2.0f, 4.0f});
  Tensor out = quant.forward(input, /*training=*/true);
  const float range = quant.range();
  EXPECT_NEAR(range, 4.0f, 1e-4f);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    const float grid = out[i] / range * 3.0f;
    EXPECT_NEAR(grid, std::round(grid), 1e-3f);
  }
}

TEST(FixedActQuant, BackwardMasksOutOfRange) {
  FixedActQuant quant("aq", 4);
  Tensor warmup = Tensor::from_data({1, 2}, {1.0f, 1.0f});
  quant.forward(warmup, true);  // range ~1
  Tensor input = Tensor::from_data({1, 2}, {0.5f, 50.0f});
  quant.forward(input, true);
  Tensor grad = quant.backward(Tensor::full({1, 2}, 1.0f));
  EXPECT_FLOAT_EQ(grad[0], 1.0f);
  EXPECT_FLOAT_EQ(grad[1], 0.0f);  // above the clip: STE masks it
}

TEST(FixedActQuant, ObserveModePassesThrough) {
  FixedActQuant quant("aq", 2);
  quant.set_quantize_enabled(false);
  Tensor input = Tensor::from_data({1, 3}, {0.123f, 0.456f, 0.789f});
  Tensor out = quant.forward(input, true);
  EXPECT_LT(max_abs_diff(out, input), 1e-7f);
  EXPECT_GT(quant.range(), 0.0f);  // statistics still update
}

TEST(PactActQuant, ClipGradientFlowsToAlpha) {
  PactActQuant quant("pact", 4, /*alpha_init=*/1.0f);
  Tensor input = Tensor::from_data({1, 3}, {0.5f, 2.0f, 3.0f});
  quant.forward(input, true);
  Tensor grad = quant.backward(Tensor::full({1, 3}, 1.0f));
  EXPECT_FLOAT_EQ(grad[0], 1.0f);  // in range: STE
  EXPECT_FLOAT_EQ(grad[1], 0.0f);  // clipped
  std::vector<Parameter*> params;
  quant.collect_parameters(params);
  EXPECT_FLOAT_EQ(params[0]->grad[0], 2.0f);  // two clipped entries
}

TEST(PactActQuant, OutputBoundedByAlpha) {
  PactActQuant quant("pact", 3, 0.7f);
  Rng rng(19);
  Tensor input = random_tensor({2, 8}, rng, -1.0f, 5.0f);
  Tensor out = quant.forward(input, false);
  EXPECT_LE(max_value(out), 0.7f + 1e-5f);
  EXPECT_GE(min_value(out), 0.0f);
}

TEST(ActQuantFactories, RegistryRecordsInstances) {
  std::vector<FixedActQuant*> registry;
  auto factory = fixed_act_quant_factory(4, &registry);
  ModulePtr a = factory("aq1");
  ModulePtr b = factory("aq2");
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry[0]->bits(), 4);
}

// ----------------------------------------------------------------- ptq --

TEST(Ptq, QuantizesAllDenseLayersInPlace) {
  Rng rng(20);
  ModelConfig config;
  config.base_width = 4;
  Model model = make_resnet20(config, dense_weight_factory(), nullptr, rng);
  const PtqReport report =
      quantize_dense_weights(model, 4, PtqCalibration::max_abs);
  EXPECT_EQ(report.layers_quantized,
            static_cast<int>(model.quant_layers().size()));
  EXPECT_GT(report.mean_relative_error, 0.0);
  EXPECT_LT(report.mean_relative_error, 0.2);

  // Every dense weight now sits on its layer's 4-bit grid.
  for (const QuantLayer& layer : model.quant_layers()) {
    auto* dense = dynamic_cast<DenseWeightSource*>(layer.source);
    ASSERT_NE(dense, nullptr);
    const Tensor& w = dense->parameter().value;
    const float scale = max_abs_scale(w);
    for (std::int64_t i = 0; i < std::min<std::int64_t>(w.numel(), 50); ++i) {
      const float grid = w[i] / scale * 15.0f;
      EXPECT_NEAR(grid, std::round(grid), 1e-2f);
    }
  }
}

TEST(Ptq, LowerBitsGiveLargerError) {
  Rng rng(21);
  ModelConfig config;
  config.base_width = 4;
  Model model_a = make_resnet20(config, dense_weight_factory(), nullptr, rng);
  Rng rng2(21);
  Model model_b = make_resnet20(config, dense_weight_factory(), nullptr, rng2);
  const PtqReport high =
      quantize_dense_weights(model_a, 8, PtqCalibration::max_abs);
  const PtqReport low =
      quantize_dense_weights(model_b, 2, PtqCalibration::max_abs);
  EXPECT_GT(low.mean_relative_error, high.mean_relative_error * 4);
}

}  // namespace
}  // namespace csq
