// Integer inference runtime tests:
//
//  * the int8 x uint8 -> int32 product (gemm_conv_nhwc as a 1x1
//    convolution) against an exact int64 reference across shapes, one
//    plane and a split layer's fused pair, serial and pooled, and the
//    channels-last conv against an exact int64 reduction over explicit
//    im2col_u8 columns;
//  * PackedIntWeights shift/split normalization: bit-exact reconstruction
//    of full-range sign-magnitude codes from int8 planes, and its gemm in
//    both transpose forms, on 1x1 and 3x3 weights, serial, pooled and from
//    concurrent threads;
//  * integer Conv2d forward parity: exact accumulator match against an
//    int64 reference and float-level agreement with the finalized float
//    path (the satellite the linear-only export tests did not cover);
//  * whole-graph lowering of a finalized ResNet-20 on synthetic CIFAR-like
//    data: bit-exact lowered weights, a top-1 accuracy-drop bound vs the
//    float eval path, and serial-vs-pooled bit-identity;
//  * lowering of the non-CSQ fixed-grid families (STE-Uniform, BSQ)
//    through the generic finalized-codes accessor;
//  * the runtime conformance grid: a parameterized lowering-parity sweep
//    over max-pooling variants (strided/padded/non-tiling windows,
//    non-square kernels and inputs), residual joins, a Linear head over a
//    3x2 map, batch sizes {1, 3, 17} and the three exportable families —
//    remaining genuine gaps are enumerated as skipped cases;
//  * the liveness-colored buffer planner: workspace_bytes() regression
//    against the one-slot-per-edge baseline and bit-identity of planned
//    vs unplanned forwards, a conv's in-place padded input, plus artifact
//    round trips of the pool records (rectangular strided and padded
//    windows), and the rejection of a graph without a Linear head;
//  * deterministic fuzz over PackedIntWeights' shift/split normalization
//    and the int32-headroom bound at the packing entry points.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/csq_weight.h"
#include "core/export.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "opt/trainer.h"
#include "quant/act_quant.h"
#include "quant/bsq_weight.h"
#include "quant/ste_uniform_weight.h"
#include "runtime/compiled_graph.h"
#include "runtime/graph_artifact.h"
#include "runtime/packed_weights.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace csq {
namespace {

using testing::random_tensor;

std::vector<std::int8_t> random_s8(std::int64_t count, Rng& rng,
                                   int magnitude = 127) {
  std::vector<std::int8_t> values(static_cast<std::size_t>(count));
  for (auto& v : values) {
    v = static_cast<std::int8_t>(
        rng.uniform(-static_cast<float>(magnitude),
                    static_cast<float>(magnitude)));
  }
  return values;
}

std::vector<std::uint8_t> random_u8(std::int64_t count, Rng& rng,
                                    int magnitude = 255) {
  std::vector<std::uint8_t> values(static_cast<std::size_t>(count));
  for (auto& v : values) {
    v = static_cast<std::uint8_t>(
        rng.uniform(0.0f, static_cast<float>(magnitude)));
  }
  return values;
}

// A split layer's lo plane: codes in {0, 1}.
std::vector<std::int8_t> random_bits(std::int64_t count, Rng& rng) {
  std::vector<std::int8_t> values(static_cast<std::size_t>(count));
  for (auto& v : values) {
    v = static_cast<std::int8_t>(rng.uniform(0.0f, 2.0f));
  }
  return values;
}

// The s8u8 kind's plain product C = A · B, run as a 1x1 convolution of k
// channels at n positions, against the exact int64 reference across odd
// shapes (k = 1, m and n off the 16-wide tiles, k off whole K-pairs and
// K-quads) and both modes of a layer, one plane and a split layer's fused
// hi/lo planes (C = 2 hi + lo), serial and pooled.
CSQ_INT_ISA_TEST(Int8Gemm, MatchesExactReferenceAcrossShapesAndModes) {
  Rng rng(901);
  const std::int64_t extents[] = {1, 3, 17, 64, 129};
  for (const std::int64_t m : extents) {
    for (const std::int64_t n : extents) {
      for (const std::int64_t k : extents) {
        for (const bool split : {false, true}) {
          const auto a = random_s8(m * k, rng);
          const auto lo = random_bits(m * k, rng);
          const auto b = random_u8(k * n, rng);
          const std::vector<std::int8_t>* plane = split ? &lo : nullptr;
          const auto expected = testing::exact_product(m, n, k, a, plane, b);
          for (const bool pooled : {false, true}) {
            ASSERT_EQ(testing::one_by_one_product(PackedKernel::kS8U8, m, n,
                                                  k, a, plane, b, pooled),
                      expected)
                << "m=" << m << " n=" << n << " k=" << k
                << " split=" << split << " pooled=" << pooled;
          }
        }
      }
    }
  }
}

CSQ_INT_ISA_TEST(Int8Gemm, PooledIsBitIdenticalToSerial) {
  // 160 positions x 192 channels: 10 x 12 blocks of C for the pool.
  Rng rng(902);
  const std::int64_t m = 192, n = 160, k = 300;
  const auto a = random_s8(m * k, rng);
  const auto lo = random_bits(m * k, rng);
  const auto b = random_u8(k * n, rng);
  for (const std::vector<std::int8_t>* plane :
       {static_cast<const std::vector<std::int8_t>*>(nullptr), &lo}) {
    EXPECT_EQ(testing::one_by_one_product(PackedKernel::kS8U8, m, n, k, a,
                                          plane, b, /*pooled=*/false),
              testing::one_by_one_product(PackedKernel::kS8U8, m, n, k, a,
                                          plane, b, /*pooled=*/true))
        << "split " << (plane != nullptr);
  }
}

TEST(Int8Gemm, Im2ColU8HandlesKernelWiderThanOutput) {
  // width=1, kernel=7, pad=3 passes validate() with out_w=1: for the outer
  // kernel columns the in-bounds window falls entirely off the output grid
  // and both fill bounds must clamp (regression: the unit-stride fast path
  // overran the buffer here).
  ConvGeometry geom;
  geom.channels = 1;
  geom.height = 1;
  geom.width = 1;
  geom.kernel_h = geom.kernel_w = 7;
  geom.stride = 1;
  geom.pad = 3;
  geom.validate();
  const std::uint8_t image[1] = {200};
  std::vector<std::uint8_t> col(
      static_cast<std::size_t>(geom.col_rows() * geom.col_cols()), 0xAA);
  std::vector<std::uint8_t> guard(64, 0x5B);  // canary after the buffer
  im2col_u8(geom, image, col.data(), /*pad_code=*/7);
  for (std::int64_t r = 0; r < geom.col_rows(); ++r) {
    // Only the center tap (ki=3, kj=3) reads the pixel; the rest is pad.
    EXPECT_EQ(col[static_cast<std::size_t>(r)], r == 24 ? 200 : 7);
  }
  for (const std::uint8_t byte : guard) EXPECT_EQ(byte, 0x5B);
}

// gemm_conv_nhwc reads the channels-last image in place; its accumulators
// at every output position must equal the exact int64 product of the
// codes and im2col_u8's matrix, for every integer kind and the split chain
// (2 hi + lo, one fused call for the conv), serial and pooled. The
// geometries cover stride 2, a rectangular kernel, 1x1 kernels, fewer
// output columns than a 16-row tile, a kernel wider than its output, depth
// past one KC block and more than kGemmNC output positions. Then come ResNet-20's stride-1
// layers: 4-wide outputs, 8-wide ones and the 3-channel stem (k = 27, tap
// rows of 9 bytes padded to 12). The last two have 2-wide and 12-wide
// outputs. The image's tail, which only discarded grid positions read,
// holds 0xEE.
CSQ_INT_ISA_TEST(IntegerConvGemm, ImplicitMatchesExplicitColumns) {
  struct Shape {
    std::int64_t channels, height, width, kernel_h, kernel_w, stride, pad;
  };
  const Shape shapes[] = {
      {8, 9, 9, 3, 3, 2, 1},   {3, 7, 11, 3, 5, 1, 2},
      {16, 6, 6, 1, 1, 1, 0},  {16, 8, 8, 1, 1, 2, 0},
      {4, 5, 5, 3, 3, 1, 1},   {1, 1, 1, 7, 7, 1, 3},
      {64, 6, 6, 3, 3, 1, 1},  {2, 36, 40, 3, 3, 1, 1},
      {64, 4, 4, 3, 3, 1, 1},  {32, 8, 8, 3, 3, 1, 1},
      {3, 16, 16, 3, 3, 1, 1}, {16, 10, 2, 3, 3, 1, 1},
      {8, 6, 12, 3, 3, 1, 1}};
  struct Kind {
    const char* name;
    PackedKernel kernel;
    bool split;
  };
  const Kind kinds[] = {{"s8u8", PackedKernel::kS8U8, false},
                        {"s8u8-split", PackedKernel::kS8U8, true},
                        {"bitserial", PackedKernel::kLowBit, false},
                        {"bitserial-w16", PackedKernel::kLowBitWide, false}};
  const std::uint8_t pad_code = 37;
  Rng rng(929);
  for (const Shape& shape : shapes) {
    ConvGeometry g;
    g.channels = shape.channels;
    g.height = shape.height;
    g.width = shape.width;
    g.kernel_h = shape.kernel_h;
    g.kernel_w = shape.kernel_w;
    g.stride = shape.stride;
    g.pad = shape.pad;
    g.validate();
    const std::int64_t k = g.col_rows(), n = g.col_cols();
    const auto image = random_u8(g.channels * g.height * g.width, rng);
    std::vector<std::uint8_t> col(static_cast<std::size_t>(k * n));
    im2col_u8(g, image.data(), col.data(), pad_code);

    for (const Kind& kind : kinds) {
      int magnitude = kind.kernel == PackedKernel::kS8U8 ? 127 : 64;
      while (kind.kernel == PackedKernel::kLowBitWide &&
             !gemm_s8u8_wide_eligible(k, magnitude)) {
        --magnitude;
      }
      for (const std::int64_t m : {std::int64_t{5}, std::int64_t{70}}) {
        const testing::NhwcImage source = testing::conv_input(
            g, m, image.data(), g.pad, pad_code, /*tail_fill=*/0xEE);
        const ConvGrid grid = gemm_conv_grid(g, source.pitch, m);
        const auto hi_codes = random_s8(m * k, rng, magnitude);
        std::vector<std::int8_t> lo_codes(static_cast<std::size_t>(m * k));
        for (auto& v : lo_codes) {
          v = static_cast<std::int8_t>(rng.uniform(0.0f, 2.0f));
        }
        const auto hi_conv = testing::pack_conv_codes(kind.kernel, g, m,
                                                      hi_codes);
        const auto lo_conv = testing::pack_conv_codes(kind.kernel, g, m,
                                                      lo_codes);
        // expected[o * n + j] = sum over p of code(o, p) * col[p][j], the
        // code 2 hi + lo for the split chain.
        std::vector<std::int64_t> expected(static_cast<std::size_t>(m * n));
        for (std::int64_t o = 0; o < m; ++o) {
          for (std::int64_t p = 0; p < k; ++p) {
            const auto at = static_cast<std::size_t>(o * k + p);
            const std::int64_t code =
                kind.split ? 2 * hi_codes[at] + lo_codes[at] : hi_codes[at];
            for (std::int64_t j = 0; j < n; ++j) {
              expected[static_cast<std::size_t>(o * n + j)] +=
                  code * col[static_cast<std::size_t>(p * n + j)];
            }
          }
        }
        for (const bool pooled : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << kind.name << ", geometry " << g.channels << "x"
                       << g.height << "x" << g.width << " k" << g.kernel_h
                       << "x" << g.kernel_w << " s" << g.stride << " p"
                       << g.pad << ", m " << m << ", pooled " << pooled);
          std::vector<std::int32_t> actual(
              static_cast<std::size_t>(grid.rows * grid.ldc), 0x5A5A5A5A);
          gemm_conv_nhwc(kind.kernel, g, source.pitch, m, hi_conv.data(),
                         kind.split ? lo_conv.data() : nullptr, /*batch=*/1,
                         source.origin(g.pad), 0, actual.data(), 0, pooled);
          std::int64_t mismatches = 0;
          for (std::int64_t o = 0; o < m; ++o) {
            for (std::int64_t j = 0; j < n; ++j) {
              const std::int64_t q =
                  j / g.out_w() * source.pitch + j % g.out_w();
              mismatches +=
                  actual[static_cast<std::size_t>(q * grid.ldc + o)] !=
                  expected[static_cast<std::size_t>(o * n + j)];
            }
          }
          EXPECT_EQ(mismatches, 0);
        }
      }
    }
  }
}

// ------------------------------------------------------ packed weights --

WeightCodes make_codes(std::vector<std::int32_t> values, float scale,
                       int bits) {
  WeightCodes codes;
  codes.codes = std::move(values);
  codes.scale = scale;
  codes.denominator = 255.0f;
  codes.bits = bits;
  return codes;
}

TEST(PackedWeights, ShiftNormalizationAvoidsSplit) {
  // Top-3-bits codes: multiples of 32, up to 224 — int8 after the shift.
  const WeightCodes codes =
      make_codes({224, -224, 96, 0, -160, 32}, 0.5f, 3);
  runtime::PackedIntWeights packed(codes, 2, 3);
  EXPECT_EQ(packed.shift(), 5);
  EXPECT_FALSE(packed.split());
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(packed.full_code(i), codes.codes[static_cast<std::size_t>(i)]);
    // One float rounding of step * code — identical to materialize_hard.
    const float expected =
        codes.step() *
        static_cast<float>(codes.codes[static_cast<std::size_t>(i)]);
    EXPECT_EQ(packed.weight(i), expected);
  }
}

TEST(PackedWeights, FullSpanCodesSplitIntoTwoPlanes) {
  // Codes with bit 0 and bit 7 both set cannot shift into int8: split.
  const WeightCodes codes = make_codes({255, -255, 129, -129, 1, 0}, 1.0f, 8);
  runtime::PackedIntWeights packed(codes, 3, 2);
  EXPECT_EQ(packed.shift(), 0);
  EXPECT_TRUE(packed.split());
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(packed.full_code(i), codes.codes[static_cast<std::size_t>(i)]);
  }
}

TEST(PackedWeights, SplitGemmMatchesExactReference) {
  Rng rng(903);
  const std::int64_t rows = 9, cols = 31, n = 13;
  std::vector<std::int32_t> values(static_cast<std::size_t>(rows * cols));
  for (auto& v : values) {
    v = static_cast<std::int32_t>(rng.uniform(-255.0f, 255.0f));
  }
  values[0] = 255;  // force the split path
  const WeightCodes codes = make_codes(values, 0.7f, 8);
  runtime::PackedIntWeights packed(codes, rows, cols);
  ASSERT_TRUE(packed.split());

  const auto act = random_u8(cols * n, rng);
  std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * n));
  packed.gemm(Trans::no, n, act.data(), n, acc.data(), n, /*pooled=*/false);

  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t expected = 0;
      for (std::int64_t p = 0; p < cols; ++p) {
        expected += static_cast<std::int64_t>(
                        values[static_cast<std::size_t>(r * cols + p)]) *
                    act[static_cast<std::size_t>(p * n + j)];
      }
      ASSERT_EQ(acc[static_cast<std::size_t>(r * n + j)], expected)
          << "r=" << r << " j=" << j;
    }
  }

  // The other forms of the call, against the same exact reduction: op(B)
  // stored transposed with a row stride wider than the depth (the Linear
  // head's form), pooled, and concurrent calls on one layer from the pool.
  // Both for these weights, packed without a geometry (a 1x1 convolution),
  // and for a split layer packed for a 3x3 convolution, whose 1x1 form the
  // racing first calls pack once.
  ConvGeometry geom;
  geom.channels = 4;
  geom.height = geom.width = 5;
  geom.kernel_h = geom.kernel_w = 3;
  const std::int64_t conv_depth = geom.col_rows();
  std::vector<std::int32_t> conv_values(
      static_cast<std::size_t>(rows * conv_depth));
  for (auto& v : conv_values) {
    v = static_cast<std::int32_t>(rng.uniform(-255.0f, 255.0f));
  }
  conv_values[0] = -255;  // force the split path
  const runtime::PackedIntWeights conv_packed(
      conv_values, /*step=*/0.7f, /*bits=*/8, rows, conv_depth,
      runtime::WeightKernel::kAuto, &geom);
  ASSERT_TRUE(conv_packed.split());
  struct Layer {
    const runtime::PackedIntWeights* weights;
    const std::vector<std::int32_t>* values;
  };
  for (const Layer& layer :
       {Layer{&packed, &values}, Layer{&conv_packed, &conv_values}}) {
    const std::int64_t k = layer.weights->cols(), ldb = k + 3;
    const auto b = random_u8(k * n, rng);  // op(B), k x n
    std::vector<std::uint8_t> b_rows(static_cast<std::size_t>(n * ldb), 0xEE);
    std::vector<std::int32_t> want(static_cast<std::size_t>(rows * n));
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t p = 0; p < k; ++p) {
        b_rows[static_cast<std::size_t>(j * ldb + p)] =
            b[static_cast<std::size_t>(p * n + j)];
      }
      for (std::int64_t r = 0; r < rows; ++r) {
        std::int64_t sum = 0;
        for (std::int64_t p = 0; p < k; ++p) {
          sum += std::int64_t{(*layer.values)[static_cast<std::size_t>(
                     r * k + p)]} *
                 b[static_cast<std::size_t>(p * n + j)];
        }
        want[static_cast<std::size_t>(r * n + j)] =
            static_cast<std::int32_t>(sum);
      }
    }
    const auto run = [&](Trans trans_b, bool pooled) {
      std::vector<std::int32_t> c(static_cast<std::size_t>(rows * n), -1);
      if (trans_b == Trans::no) {
        layer.weights->gemm(Trans::no, n, b.data(), n, c.data(), n, pooled);
      } else {
        layer.weights->gemm(Trans::yes, n, b_rows.data(), ldb, c.data(), n,
                            pooled);
      }
      return c;
    };
    constexpr std::int64_t kCalls = 16;
    std::vector<std::vector<std::int32_t>> concurrent(kCalls);
    parallel_for(0, kCalls, [&](std::int64_t t) {
      concurrent[static_cast<std::size_t>(t)] =
          run(t % 2 == 0 ? Trans::no : Trans::yes, t % 4 < 2);
    });
    for (std::int64_t t = 0; t < kCalls; ++t) {
      EXPECT_EQ(concurrent[static_cast<std::size_t>(t)], want)
          << "depth " << k << ", concurrent call " << t;
    }
    for (const Trans trans_b : {Trans::no, Trans::yes}) {
      for (const bool pooled : {false, true}) {
        EXPECT_EQ(run(trans_b, pooled), want)
            << "depth " << k << ", transposed " << (trans_b == Trans::yes)
            << ", pooled " << pooled;
      }
    }
  }
}

// ------------------------------------------- integer conv2d forward -----

TEST(IntegerConv, AccumulatorsMatchExactReferenceAndFloatFinalizedPath) {
  Rng rng(904);
  const std::int64_t oc = 8, ic = 4, kernel = 3;
  CsqWeightOptions options;
  CsqWeightSource source("conv", {oc, ic, kernel, kernel}, ic * kernel * kernel,
                         options, rng);
  source.finalize();

  runtime::PackedIntWeights packed(source.finalized_codes(), oc,
                                   ic * kernel * kernel);
  ConvGeometry geom;
  geom.channels = ic;
  geom.height = 6;
  geom.width = 6;
  geom.kernel_h = geom.kernel_w = kernel;
  geom.stride = 1;
  geom.pad = 1;

  const float act_scale = 0.01f;
  const auto act = random_u8(ic * geom.height * geom.width, rng);

  // Integer path: uint8 im2col, int8-code GEMM, int32 accumulation.
  std::vector<std::uint8_t> col(
      static_cast<std::size_t>(geom.col_rows() * geom.col_cols()));
  im2col_u8(geom, act.data(), col.data(), /*pad_code=*/0);
  std::vector<std::int32_t> acc(
      static_cast<std::size_t>(oc * geom.col_cols()));
  packed.gemm(Trans::no, geom.col_cols(), col.data(), geom.col_cols(),
              acc.data(), geom.col_cols(), /*pooled=*/false);

  // Exact int64 reference over the raw codes (shift folded out).
  const std::vector<std::int32_t> raw_codes =
      source.finalized_codes().codes;
  for (std::int64_t o = 0; o < oc; ++o) {
    for (std::int64_t p = 0; p < geom.col_cols(); ++p) {
      std::int64_t expected = 0;
      for (std::int64_t r = 0; r < geom.col_rows(); ++r) {
        expected += static_cast<std::int64_t>(
                        raw_codes[static_cast<std::size_t>(
                            o * geom.col_rows() + r)] >>
                        packed.shift()) *
                    col[static_cast<std::size_t>(p + r * geom.col_cols())];
      }
      ASSERT_EQ(acc[static_cast<std::size_t>(o * geom.col_cols() + p)],
                expected);
    }
  }

  // Float finalized path: real activations through the materialized weights
  // (the eval-mode Conv2d computation) — must agree to float precision.
  Tensor real_act({ic, geom.height, geom.width});
  for (std::int64_t i = 0; i < real_act.numel(); ++i) {
    real_act[i] = act_scale * static_cast<float>(act[static_cast<std::size_t>(i)]);
  }
  std::vector<float> real_col(
      static_cast<std::size_t>(geom.col_rows() * geom.col_cols()));
  im2col(geom, real_act.data(), real_col.data());
  const Tensor& weights = source.weight(/*training=*/false);
  std::vector<float> float_out(static_cast<std::size_t>(oc * geom.col_cols()),
                               0.0f);
  gemm(Trans::no, Trans::no, oc, geom.col_cols(), geom.col_rows(), 1.0f,
       weights.data(), geom.col_rows(), real_col.data(), geom.col_cols(),
       0.0f, float_out.data(), geom.col_cols());

  const float combined = packed.effective_step() * act_scale;
  float max_rel = 0.0f;
  float max_abs_out = 0.0f;
  for (std::size_t i = 0; i < float_out.size(); ++i) {
    max_abs_out = std::max(max_abs_out, std::fabs(float_out[i]));
  }
  for (std::size_t i = 0; i < float_out.size(); ++i) {
    const float integer_value = combined * static_cast<float>(acc[i]);
    max_rel = std::max(max_rel, std::fabs(integer_value - float_out[i]));
  }
  EXPECT_LT(max_rel, 1e-4f * std::max(1.0f, max_abs_out));
}

// ------------------------------------------------------- whole graph ----

SyntheticConfig small_data_config() {
  SyntheticConfig config = SyntheticConfig::cifar_like();
  config.train_samples = 192;
  config.test_samples = 256;
  return config;
}

TEST(CompiledGraph, FinalizedResnet20EndToEnd) {
  const SyntheticDataset data = make_synthetic(small_data_config());
  Rng rng(905);
  std::vector<CsqWeightSource*> sources;
  ModelConfig model_config;
  model_config.num_classes = data.train.num_classes();
  model_config.base_width = 8;
  Model model =
      make_resnet20(model_config, csq_weight_factory(&sources),
                    fixed_act_quant_factory(/*bits=*/8), rng);

  // A few training-mode passes settle the BN running statistics and the
  // act-quant EMA clip ranges the lowering folds/pins.
  std::vector<int> indices;
  for (int i = 0; i < 64; ++i) indices.push_back(i);
  const Batch calib = data.train.gather(indices);
  for (int step = 0; step < 3; ++step) {
    model.forward(calib.images, /*training=*/true);
  }
  for (CsqWeightSource* source : sources) source->finalize();

  runtime::LowerOptions options;
  options.in_channels = data.train.channels();
  options.in_height = data.train.height();
  options.in_width = data.train.width();
  runtime::CompiledGraph graph = runtime::lower(model, options);
  graph.calibrate(calib.images);

  // 1. Weight reconstruction from the packed int8 planes is bit-exact vs
  //    the float materialization — the paper's "exact quantized model".
  for (const QuantLayer& layer : model.quant_layers()) {
    const Tensor lowered = graph.dequantized_weights(layer.name);
    const Tensor& reference = layer.source->weight(/*training=*/false);
    ASSERT_EQ(lowered.numel(), reference.numel());
    for (std::int64_t i = 0; i < reference.numel(); ++i) {
      ASSERT_EQ(lowered[i], reference[i])
          << layer.name << "[" << i << "] reconstructed inexactly";
    }
  }

  // 2. Top-1 within 1 point of the float eval path.
  const float float_accuracy = evaluate_accuracy(model, data.test, 64);
  const float int8_accuracy =
      runtime::evaluate_graph_accuracy(graph, data.test, 64);
  EXPECT_LE(std::fabs(float_accuracy - int8_accuracy), 1.0f)
      << "float " << float_accuracy << "% vs int8 " << int8_accuracy << "%";

  // 3. Serial vs pooled integer forwards are bit-identical.
  const Batch batch = data.test.gather({0, 1, 2, 3, 4, 5, 6, 7});
  graph.set_pooled(false);
  const Tensor serial_logits = graph.forward(batch.images);
  graph.set_pooled(true);
  const Tensor pooled_logits = graph.forward(batch.images);
  ASSERT_TRUE(serial_logits.same_shape(pooled_logits));
  for (std::int64_t i = 0; i < serial_logits.numel(); ++i) {
    ASSERT_EQ(serial_logits[i], pooled_logits[i]) << "logit " << i;
  }

  // 4. Layer accounting: every quant layer lowered, scheme bits recorded.
  ASSERT_EQ(graph.layers().size(), model.quant_layers().size());
  EXPECT_LT(graph.weight_storage_bits(),
            model.total_weight_count() * 32);
}

TEST(CompiledGraph, CalibratedGraphWithoutActQuantStaysClose) {
  // PTQ-style flow: no activation quantizers in the trained model; every
  // edge scale comes from calibration.
  const SyntheticDataset data = make_synthetic(small_data_config());
  Rng rng(906);
  std::vector<CsqWeightSource*> sources;
  ModelConfig model_config;
  model_config.num_classes = data.train.num_classes();
  model_config.base_width = 8;
  Model model = make_resnet20(model_config, csq_weight_factory(&sources),
                              nullptr, rng);
  std::vector<int> indices;
  for (int i = 0; i < 64; ++i) indices.push_back(i);
  const Batch calib = data.train.gather(indices);
  for (int step = 0; step < 3; ++step) {
    model.forward(calib.images, /*training=*/true);
  }
  for (CsqWeightSource* source : sources) source->finalize();

  runtime::LowerOptions options;
  options.in_channels = data.train.channels();
  options.in_height = data.train.height();
  options.in_width = data.train.width();
  runtime::CompiledGraph graph = runtime::lower(model, options);
  graph.calibrate(calib.images);

  const float float_accuracy = evaluate_accuracy(model, data.test, 64);
  const float int8_accuracy =
      runtime::evaluate_graph_accuracy(graph, data.test, 64);
  EXPECT_LE(std::fabs(float_accuracy - int8_accuracy), 2.0f)
      << "float " << float_accuracy << "% vs int8 " << int8_accuracy << "%";

  // The integer forward tracks the graph's own float reference closely
  // (8-bit edges; per-edge calibrated scales).
  const Batch batch = data.test.gather({0, 1, 2, 3});
  const Tensor reference = graph.forward_reference(batch.images);
  const Tensor integer = graph.forward(batch.images);
  EXPECT_LT(max_abs_diff(reference, integer),
            0.1f * std::max(1.0f, max_abs(reference)));
}

TEST(CompiledGraph, LowBitActQuantEdgesServeTheTrainedGrid) {
  // A 4-bit act-quant model must serve on the 15-level grid it trained
  // with, not the graph's default 255-level grid — the lowering pins both
  // the clip and the level count of the edge.
  const SyntheticDataset data = make_synthetic(small_data_config());
  Rng rng(912);
  std::vector<CsqWeightSource*> sources;
  ModelConfig model_config;
  model_config.num_classes = data.train.num_classes();
  model_config.base_width = 8;
  Model model =
      make_resnet20(model_config, csq_weight_factory(&sources),
                    fixed_act_quant_factory(/*bits=*/4), rng);
  std::vector<int> indices;
  for (int i = 0; i < 64; ++i) indices.push_back(i);
  const Batch calib = data.train.gather(indices);
  for (int step = 0; step < 3; ++step) {
    model.forward(calib.images, /*training=*/true);
  }
  for (CsqWeightSource* source : sources) source->finalize();

  runtime::LowerOptions options;
  options.in_channels = data.train.channels();
  options.in_height = data.train.height();
  options.in_width = data.train.width();
  runtime::CompiledGraph graph = runtime::lower(model, options);
  graph.calibrate(calib.images);

  const float float_accuracy = evaluate_accuracy(model, data.test, 64);
  const float int8_accuracy =
      runtime::evaluate_graph_accuracy(graph, data.test, 64);
  EXPECT_LE(std::fabs(float_accuracy - int8_accuracy), 1.0f)
      << "float " << float_accuracy << "% vs int8 " << int8_accuracy << "%";
}

TEST(CompiledGraph, LowersSteUniformAndBsqFamilies) {
  // The generic finalized-codes seam: non-CSQ fixed-grid families lower and
  // export too (the former dynamic_cast<CsqWeightSource*> rejected them).
  const SyntheticDataset data = make_synthetic(small_data_config());
  Rng rng(907);
  ModelConfig model_config;
  model_config.num_classes = data.train.num_classes();
  model_config.base_width = 4;

  Model ste_model = make_resnet20(model_config,
                                  ste_uniform_weight_factory(/*bits=*/4),
                                  nullptr, rng);
  runtime::LowerOptions options;
  options.in_channels = data.train.channels();
  options.in_height = data.train.height();
  options.in_width = data.train.width();
  runtime::CompiledGraph ste_graph = runtime::lower(ste_model, options);
  const Batch calib = data.train.gather({0, 1, 2, 3, 4, 5, 6, 7});
  ste_graph.calibrate(calib.images);
  const Tensor ste_logits = ste_graph.forward(calib.images);
  EXPECT_EQ(ste_logits.dim(0), 8);
  EXPECT_TRUE(std::isfinite(max_abs(ste_logits)));
  for (const auto& layer : ste_graph.layers()) EXPECT_EQ(layer.bits, 4);

  std::vector<BsqWeightSource*> bsq_sources;
  Model bsq_model = make_resnet20(
      model_config, bsq_weight_factory(&bsq_sources), nullptr, rng);
  runtime::CompiledGraph bsq_graph = runtime::lower(bsq_model, options);
  bsq_graph.calibrate(calib.images);
  const Tensor bsq_logits = bsq_graph.forward(calib.images);
  EXPECT_TRUE(std::isfinite(max_abs(bsq_logits)));
  // BSQ reconstruction is plane-summed floats: near-exact, not bit-exact.
  for (const QuantLayer& layer : bsq_model.quant_layers()) {
    EXPECT_LT(export_roundtrip_error(*layer.source), 1e-5f);
  }
}

TEST(CompiledGraph, RequiresFinalizedSources) {
  Rng rng(908);
  std::vector<CsqWeightSource*> sources;
  ModelConfig model_config;
  model_config.base_width = 4;
  Model model = make_resnet20(model_config, csq_weight_factory(&sources),
                              nullptr, rng);
  runtime::LowerOptions options;
  options.in_height = 16;
  options.in_width = 16;
  EXPECT_THROW(runtime::lower(model, options), check_error);

  Model dense = make_resnet20(model_config, dense_weight_factory(), nullptr,
                              rng);
  EXPECT_THROW(runtime::lower(dense, options), check_error);
}

TEST(CompiledGraph, ForwardWithoutCalibrationThrows) {
  Rng rng(909);
  std::vector<CsqWeightSource*> sources;
  ModelConfig model_config;
  model_config.base_width = 4;
  Model model = make_resnet20(model_config, csq_weight_factory(&sources),
                              nullptr, rng);
  for (CsqWeightSource* source : sources) source->finalize();
  runtime::LowerOptions options;
  options.in_height = 16;
  options.in_width = 16;
  runtime::CompiledGraph graph = runtime::lower(model, options);
  Tensor input({2, 3, 16, 16});
  EXPECT_THROW(graph.forward(input), check_error);
}

// ------------------------------------------------- buffer planner -------

TEST(CompiledGraph, LivenessPlanShrinksWorkspaceAndPreservesBits) {
  const SyntheticDataset data = make_synthetic(small_data_config());
  Rng rng(913);
  std::vector<CsqWeightSource*> sources;
  ModelConfig model_config;
  model_config.num_classes = data.train.num_classes();
  model_config.base_width = 8;
  Model model =
      make_resnet20(model_config, csq_weight_factory(&sources),
                    fixed_act_quant_factory(/*bits=*/8), rng);
  std::vector<int> indices;
  for (int i = 0; i < 32; ++i) indices.push_back(i);
  const Batch calib = data.train.gather(indices);
  for (int step = 0; step < 2; ++step) {
    model.forward(calib.images, /*training=*/true);
  }
  for (CsqWeightSource* source : sources) source->finalize();

  runtime::LowerOptions planned_options;
  planned_options.in_channels = data.train.channels();
  planned_options.in_height = data.train.height();
  planned_options.in_width = data.train.width();
  runtime::CompiledGraph planned = runtime::lower(model, planned_options);
  planned.calibrate(calib.images);

  // The one-dedicated-slot-per-edge policy of PR 3/4 is the baseline the
  // coloring must beat; both graphs replay the SAME recorded program.
  runtime::LowerOptions baseline_options = planned_options;
  baseline_options.plan_buffers = false;
  runtime::CompiledGraph baseline =
      runtime::build_graph(planned.program(), baseline_options);
  baseline.restore_edge_scales(planned.edge_scales());

  const std::int64_t batch = 16;
  planned.prepare(batch);
  baseline.prepare(batch);
  ASSERT_GT(baseline.workspace_bytes(), 0);
  // ResNet-20 keeps only a handful of edges live at once (residual forks
  // are the widest point) and all convs share one padded stripe, so the
  // colored plan must be a small fraction of the per-edge baseline; 2x is
  // a loose floor that still catches planner regressions.
  EXPECT_LT(planned.workspace_bytes() * 2, baseline.workspace_bytes())
      << "planned " << planned.workspace_bytes() << "B vs baseline "
      << baseline.workspace_bytes() << "B";

  // Slot sharing must not change a single bit of the forward.
  const Batch batch_data = data.test.gather({0, 1, 2, 3, 4, 5, 6, 7});
  const Tensor planned_logits = planned.forward(batch_data.images);
  const Tensor baseline_logits = baseline.forward(batch_data.images);
  ASSERT_TRUE(planned_logits.same_shape(baseline_logits));
  for (std::int64_t i = 0; i < planned_logits.numel(); ++i) {
    ASSERT_EQ(planned_logits[i], baseline_logits[i]) << "logit " << i;
  }

  // Steady state stays zero-allocation under the plan: no workspace growth
  // after the first prepared forward.
  const std::uint64_t growth = planned.buffer_growth_count();
  planned.forward(batch_data.images);
  planned.forward(batch_data.images);
  EXPECT_EQ(planned.buffer_growth_count(), growth);
}

// Every padding convolution reads its input edge's border, which must hold
// the edge's zero point. The planner shares byte slots between edges, so a
// border written once would hold the codes of the slot's next owner at the
// next forward; the producers rewrite it every forward. The audit checks
// every border a convolution reads, sample by sample, across forwards at
// batch 32, 1, 2 and 32 again in one graph (sample-major and layer-major
// runs, pooled and serial); the input edge's zero point is not 0.
TEST(GraphBorders, EveryBorderHoldsItsZeroPointAcrossBatchSizes) {
  Rng rng(3702);
  std::vector<CsqWeightSource*> sources;
  ModelConfig model_config;
  model_config.base_width = 8;
  Model model = make_resnet20(model_config, csq_weight_factory(&sources),
                              fixed_act_quant_factory(/*bits=*/8), rng);
  const Tensor calib = random_tensor({32, 3, 16, 16}, rng);
  model.forward(calib, /*training=*/true);
  for (CsqWeightSource* source : sources) source->finalize();
  runtime::LowerOptions options;
  options.in_height = 16;
  options.in_width = 16;
  runtime::CompiledGraph graph = runtime::lower(model, options);
  graph.calibrate(calib);
  ASSERT_NE(graph.edge_scales().front().zero_point, 0);

  const runtime::ScopedBorderAuditForTest audit;
  for (const bool pooled : {true, false}) {
    graph.set_pooled(pooled);
    for (const std::int64_t batch : {32, 1, 2, 32}) {
      graph.forward(random_tensor({batch, 3, 16, 16}, rng));
    }
  }
  EXPECT_GT(audit.checked.load(), 0);
  EXPECT_EQ(audit.faulted.load(), 0)
      << "of " << audit.checked.load() << " samples checked";
}

TEST(GraphArtifact, PoolRecordsRoundTrip) {
  // A graph exercising both pool record forms: a rectangular strided max
  // pool and a padded square one, ending in the Linear head. Saving and
  // loading must reproduce the forward bit for bit.
  Rng rng(914);
  Model model;
  const WeightSourceFactory factory =
      model.recording_factory(ste_uniform_weight_factory(/*bits=*/4));
  auto net = std::make_unique<Sequential>("net");
  Conv2dConfig c1;
  c1.in_channels = 3;
  c1.out_channels = 6;
  net->add(std::make_unique<Conv2d>("conv1", c1, factory, rng));
  net->add(std::make_unique<BatchNorm2d>("bn1", 6));
  net->add(std::make_unique<ReLU>("relu1"));
  net->add(std::make_unique<MaxPool2d>("pool1", Pool2dConfig{3, 2, 2, 0}));
  Conv2dConfig c2;
  c2.in_channels = 6;
  c2.out_channels = 6;
  net->add(std::make_unique<Conv2d>("conv2", c2, factory, rng));
  net->add(std::make_unique<BatchNorm2d>("bn2", 6));
  net->add(std::make_unique<ReLU>("relu2"));
  net->add(std::make_unique<MaxPool2d>("pool2", Pool2dConfig{2, 2, 2, 1}));
  net->add(std::make_unique<GlobalAvgPool>("gap"));
  net->add(std::make_unique<Flatten>("flatten"));
  net->add(std::make_unique<Linear>("fc", 6, 4, factory, rng));
  model.set_root(std::move(net));

  Rng data_rng(915);
  Tensor calib = random_tensor({6, 3, 13, 11}, data_rng);
  for (int i = 0; i < 3; ++i) model.forward(calib, /*training=*/true);

  runtime::LowerOptions options;
  options.in_height = 13;
  options.in_width = 11;
  runtime::CompiledGraph graph = runtime::lower(model, options);
  graph.calibrate(calib);
  EXPECT_EQ(graph.io_shape().out_features, 4);

  const std::string path =
      ::testing::TempDir() + "csq_pool_roundtrip.csqm";
  ASSERT_TRUE(runtime::save_graph(path, graph));
  runtime::CompiledGraph loaded = runtime::load_graph(path);
  std::remove(path.c_str());

  Tensor input = random_tensor({5, 3, 13, 11}, data_rng);
  const Tensor expected = graph.forward(input);
  const Tensor actual = loaded.forward(input);
  ASSERT_TRUE(expected.same_shape(actual));
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << "output " << i;
  }

  // The loaded program preserves both pools' geometry, in order.
  std::vector<runtime::ProgramInstr> pools;
  for (const runtime::ProgramInstr& instr : loaded.program().instrs) {
    if (instr.kind == runtime::ProgramInstr::Kind::kMaxPool) {
      pools.push_back(instr);
    }
  }
  ASSERT_EQ(pools.size(), 2u);
  EXPECT_EQ(pools[0].kernel, 3);
  EXPECT_EQ(pools[0].kernel_w, 2);
  EXPECT_EQ(pools[0].stride, 2);
  EXPECT_EQ(pools[0].pad, 0);
  EXPECT_EQ(pools[1].kernel, 2);
  EXPECT_EQ(pools[1].kernel_w, 0);  // square windows stay compact
  EXPECT_EQ(pools[1].stride, 2);
  EXPECT_EQ(pools[1].pad, 1);
}

// A convolution has no scratch: it reads its input edge in place, kept
// channels-last inside a border as wide as the conv's pad, with samples
// spaced for what its tiles read (gemm_conv_grid's reach), and writes
// accumulators over its grid (ldc int32 per position). The Linear head is
// one more such convolution, its kernel as large as its input. With one
// dedicated slot per buffer (plan_buffers = false) the workspace is the
// plain sum of those, the requantized codes and the pooled codes: no
// padded stripes, no columns, no head scratch.
TEST(CompiledGraph, ConvReadsItsPaddedInputEdgeInPlace) {
  const std::int64_t c = 5, h = 11, w = 9, oc = 6, features = 4, batch = 8;
  const auto workspace = [&](std::int64_t kernel, std::int64_t stride,
                             std::int64_t pad) {
    Rng rng(930);
    Model model;
    const WeightSourceFactory factory =
        model.recording_factory(ste_uniform_weight_factory(/*bits=*/4));
    auto net = std::make_unique<Sequential>("net");
    Conv2dConfig conv;
    conv.in_channels = c;
    conv.out_channels = oc;
    conv.kernel = kernel;
    conv.stride = stride;
    conv.pad = pad;
    net->add(std::make_unique<Conv2d>("conv", conv, factory, rng));
    net->add(std::make_unique<BatchNorm2d>("bn", oc));
    net->add(std::make_unique<ReLU>("relu"));
    net->add(std::make_unique<GlobalAvgPool>("gap"));
    net->add(std::make_unique<Flatten>("flatten"));
    net->add(std::make_unique<Linear>("fc", oc, features, factory, rng));
    model.set_root(std::move(net));
    Rng data_rng(931);
    const Tensor calib = random_tensor({batch, c, h, w}, data_rng);
    model.forward(calib, /*training=*/true);

    runtime::LowerOptions options;
    options.in_channels = c;
    options.in_height = h;
    options.in_width = w;
    options.plan_buffers = false;
    runtime::CompiledGraph graph = runtime::lower(model, options);
    graph.calibrate(calib);
    graph.prepare(batch);
    return graph.workspace_bytes();
  };
  const auto expected = [&](std::int64_t kernel, std::int64_t stride,
                            std::int64_t pad) {
    ConvGeometry geom;
    geom.channels = c;
    geom.height = h;
    geom.width = w;
    geom.kernel_h = geom.kernel_w = kernel;
    geom.stride = stride;
    geom.pad = pad;
    const std::int64_t pitch = geom.padded_w();
    const ConvGrid grid = gemm_conv_grid(geom, pitch, oc);
    const std::int64_t input =
        std::max(c * geom.padded_h() * pitch, grid.reach);
    const std::int64_t plane = geom.out_h() * geom.out_w();
    // The head reads the pooled edge (oc codes, no border: pitch 1) with a
    // 1x1 kernel of oc channels into `features` outputs. Its grid has
    // rows = 16 positions (one valid) and ldc = 16 int32 columns, and its
    // tiles reach (rows - 1) * oc + tap bytes, tap = oc in whole K-quads:
    // 15 * 6 + 8 = 98 > oc, so the pooled edge's samples sit 98 bytes
    // apart, and the head's accumulators take 4 * 16 * 16 = 1024 bytes.
    ConvGeometry head;
    head.channels = oc;
    head.height = head.width = head.kernel_h = head.kernel_w = 1;
    const ConvGrid head_grid = gemm_conv_grid(head, 1, features);
    EXPECT_EQ(head_grid.reach, 98);
    return batch * (input + 4 * grid.rows * grid.ldc + oc * plane +
                    std::max(oc, head_grid.reach) +
                    4 * head_grid.rows * head_grid.ldc);
  };
  EXPECT_EQ(workspace(3, 1, 1), expected(3, 1, 1));
  EXPECT_EQ(workspace(1, 2, 0), expected(1, 2, 0));
}

// NaN and +-inf input samples quantize to the input edge's end codes: the
// logits equal those of the same input with -1e30 for NaN and -inf and
// +1e30 for +inf, serial and pooled.
TEST(CompiledGraph, NonFiniteInputsQuantizeToEdgeCodes) {
  const std::int64_t c = 3, h = 6, w = 6, oc = 4, features = 3, batch = 4;
  Rng rng(932);
  Model model;
  const WeightSourceFactory factory =
      model.recording_factory(ste_uniform_weight_factory(/*bits=*/4));
  auto net = std::make_unique<Sequential>("net");
  Conv2dConfig conv;
  conv.in_channels = c;
  conv.out_channels = oc;
  conv.kernel = 3;
  conv.stride = 1;
  conv.pad = 1;
  net->add(std::make_unique<Conv2d>("conv", conv, factory, rng));
  net->add(std::make_unique<BatchNorm2d>("bn", oc));
  net->add(std::make_unique<ReLU>("relu"));
  net->add(std::make_unique<GlobalAvgPool>("gap"));
  net->add(std::make_unique<Flatten>("flatten"));
  net->add(std::make_unique<Linear>("fc", oc, features, factory, rng));
  model.set_root(std::move(net));
  Rng data_rng(933);
  const Tensor calib = random_tensor({batch, c, h, w}, data_rng);
  model.forward(calib, /*training=*/true);

  runtime::LowerOptions options;
  options.in_channels = c;
  options.in_height = h;
  options.in_width = w;
  runtime::CompiledGraph graph = runtime::lower(model, options);
  graph.calibrate(calib);

  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor non_finite = calib;
  Tensor edge_values = calib;
  for (std::int64_t i = 0; i < calib.numel(); i += 5) {
    const std::int64_t kind = i / 5 % 3;
    non_finite[i] = kind == 0 ? nan : (kind == 1 ? inf : -inf);
    edge_values[i] = kind == 1 ? 1e30f : -1e30f;
  }
  for (const bool pooled : {false, true}) {
    SCOPED_TRACE(pooled ? "pooled" : "serial");
    graph.set_pooled(pooled);
    const Tensor expected = graph.forward(edge_values);
    const Tensor actual = graph.forward(non_finite);
    ASSERT_TRUE(expected.same_shape(actual));
    EXPECT_EQ(0, std::memcmp(expected.data(), actual.data(),
                             sizeof(float) *
                                 static_cast<std::size_t>(expected.numel())));
  }
}

TEST(CompiledGraph, RejectsModelWithoutLinearHead) {
  // conv -> BN -> ReLU -> GAP and no Linear: the graph would have no
  // logits, so building it fails with the missing head named, both from
  // the live model and from its recorded program.
  Rng rng(916);
  Model model;
  std::vector<CsqWeightSource*> registry;
  CsqWeightOptions csq_options;
  csq_options.fixed_precision = 3;
  const WeightSourceFactory factory =
      model.recording_factory(csq_weight_factory(&registry, csq_options));
  auto net = std::make_unique<Sequential>("net");
  Conv2dConfig conv;
  conv.in_channels = 3;
  conv.out_channels = 6;
  net->add(std::make_unique<Conv2d>("conv", conv, factory, rng));
  net->add(std::make_unique<BatchNorm2d>("bn", 6));
  net->add(std::make_unique<ReLU>("relu"));
  net->add(std::make_unique<GlobalAvgPool>("gap"));
  model.set_root(std::move(net));
  Rng data_rng(917);
  Tensor calib = random_tensor({4, 3, 8, 8}, data_rng);
  model.forward(calib, /*training=*/true);
  for (CsqWeightSource* source : registry) source->finalize();

  runtime::LowerOptions options;
  options.in_height = 8;
  options.in_width = 8;
  const auto expect_head_error = [](auto&& build) {
    try {
      build();
      ADD_FAILURE() << "a graph without a Linear head was built";
    } catch (const check_error& e) {
      EXPECT_NE(std::string(e.what()).find("Linear head"), std::string::npos)
          << e.what();
    }
  };
  expect_head_error([&] { runtime::lower(model, options); });
  const runtime::GraphProgram program = runtime::record_program(model);
  expect_head_error([&] { runtime::build_graph(program, options); });
}

namespace {

// A small finalized-CSQ stack at fixed 3-bit precision: its conv/linear
// layers earn the specialized low-bit GEMMs, exercising kernel selection,
// a program re-recorded on the s8u8 reference and the kernel kinds an
// artifact records.
Model make_lowbit_model(std::vector<CsqWeightSource*>& registry, Rng& rng) {
  Model model;
  CsqWeightOptions csq_options;
  csq_options.fixed_precision = 3;
  const WeightSourceFactory factory =
      model.recording_factory(csq_weight_factory(&registry, csq_options));
  auto net = std::make_unique<Sequential>("net");
  Conv2dConfig c1;
  c1.in_channels = 3;
  c1.out_channels = 8;
  net->add(std::make_unique<Conv2d>("conv1", c1, factory, rng));
  net->add(std::make_unique<BatchNorm2d>("bn1", 8));
  net->add(std::make_unique<ReLU>("relu1"));
  net->add(std::make_unique<MaxPool2d>("pool", Pool2dConfig{3, 3, 2, 1}));
  Conv2dConfig c2;
  c2.in_channels = 8;
  c2.out_channels = 8;
  net->add(std::make_unique<Conv2d>("conv2", c2, factory, rng));
  net->add(std::make_unique<BatchNorm2d>("bn2", 8));
  net->add(std::make_unique<ReLU>("relu2"));
  net->add(std::make_unique<GlobalAvgPool>("gap"));
  net->add(std::make_unique<Flatten>("flatten"));
  net->add(std::make_unique<Linear>("fc", 8, 5, factory, rng));
  model.set_root(std::move(net));
  return model;
}

}  // namespace

TEST(CompiledGraph, ForcedReferenceKernelBitIdentical) {
  Rng rng(930);
  std::vector<CsqWeightSource*> registry;
  Model model = make_lowbit_model(registry, rng);
  Rng data_rng(931);
  Tensor calib = random_tensor({8, 3, 12, 12}, data_rng);
  for (int i = 0; i < 3; ++i) model.forward(calib, /*training=*/true);
  for (CsqWeightSource* source : registry) source->finalize();

  runtime::LowerOptions options;
  options.in_height = 12;
  options.in_width = 12;
  runtime::CompiledGraph graph = runtime::lower(model, options);
  graph.calibrate(calib);

  // The 3-bit layers must have earned a specialized kernel...
  bool saw_specialized = false;
  for (const auto& layer : graph.layers()) {
    EXPECT_FALSE(layer.kernel.empty());
    if (layer.kernel != "s8u8") saw_specialized = true;
  }
  EXPECT_TRUE(saw_specialized)
      << "3-bit layers should not run the s8u8 reference";

  // ...while a program recording s8u8 for every layer replays on the
  // reference.
  runtime::GraphProgram program = graph.program();
  for (runtime::ProgramInstr& instr : program.instrs) {
    if (instr.kind == runtime::ProgramInstr::Kind::kConv ||
        instr.kind == runtime::ProgramInstr::Kind::kLinear) {
      instr.kernel_kind =
          static_cast<std::int32_t>(runtime::WeightKernel::kS8U8);
    }
  }
  runtime::CompiledGraph reference =
      runtime::build_graph(std::move(program), options);
  reference.restore_edge_scales(graph.edge_scales());
  for (const auto& layer : reference.layers()) {
    EXPECT_EQ(layer.kernel, "s8u8");
  }

  // Kernel choice changes latency, never a single bit of the logits.
  Tensor input = random_tensor({5, 3, 12, 12}, data_rng);
  const Tensor fast = graph.forward(input);
  const Tensor slow = reference.forward(input);
  ASSERT_TRUE(fast.same_shape(slow));
  for (std::int64_t i = 0; i < fast.numel(); ++i) {
    ASSERT_EQ(fast[i], slow[i]) << "logit " << i;
  }
}

TEST(GraphArtifact, KernelRecordsRoundTrip) {
  Rng rng(940);
  std::vector<CsqWeightSource*> registry;
  Model model = make_lowbit_model(registry, rng);
  Rng data_rng(941);
  Tensor calib = random_tensor({8, 3, 12, 12}, data_rng);
  for (int i = 0; i < 3; ++i) model.forward(calib, /*training=*/true);
  for (CsqWeightSource* source : registry) source->finalize();

  runtime::LowerOptions options;
  options.in_height = 12;
  options.in_width = 12;
  runtime::CompiledGraph graph = runtime::lower(model, options);
  graph.calibrate(calib);

  const std::string path =
      ::testing::TempDir() + "csq_kernel_roundtrip.csqm";
  ASSERT_TRUE(runtime::save_graph(path, graph));
  runtime::CompiledGraph loaded = runtime::load_graph(path);
  std::remove(path.c_str());

  // The kernel records replay: every conv/linear carries its resolved kernel
  // and the padded max pool keeps its geometry.
  bool saw_pool = false;
  std::size_t layer_index = 0;
  for (const runtime::ProgramInstr& instr : loaded.program().instrs) {
    if (instr.kind == runtime::ProgramInstr::Kind::kConv ||
        instr.kind == runtime::ProgramInstr::Kind::kLinear) {
      EXPECT_GE(instr.kernel_kind, 0) << "unresolved kernel after load";
      ASSERT_LT(layer_index, loaded.layers().size());
      EXPECT_EQ(runtime::weight_kernel_name(static_cast<runtime::WeightKernel>(
                    instr.kernel_kind)),
                loaded.layers()[layer_index].kernel);
      ++layer_index;
    }
    if (instr.kind == runtime::ProgramInstr::Kind::kMaxPool) {
      saw_pool = true;
      EXPECT_EQ(instr.pad, 1);
    }
  }
  EXPECT_TRUE(saw_pool);
  EXPECT_EQ(layer_index, loaded.layers().size());

  Tensor input = random_tensor({5, 3, 12, 12}, data_rng);
  const Tensor expected = graph.forward(input);
  const Tensor actual = loaded.forward(input);
  ASSERT_TRUE(expected.same_shape(actual));
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << "output " << i;
  }

  // Programs without kernel records (kernel_kind = -1, as live lowering
  // records them) re-derive the identical choice: wipe them and rebuild.
  runtime::GraphProgram wiped = loaded.program();
  for (runtime::ProgramInstr& instr : wiped.instrs) {
    instr.kernel_kind = -1;
  }
  runtime::CompiledGraph rederived =
      runtime::build_graph(std::move(wiped), options);
  rederived.restore_edge_scales(graph.edge_scales());
  for (std::size_t i = 0; i < rederived.layers().size(); ++i) {
    EXPECT_EQ(rederived.layers()[i].kernel, loaded.layers()[i].kernel)
        << "layer " << i << " re-derived a different kernel";
  }
  const Tensor rederived_logits = rederived.forward(input);
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_EQ(expected[i], rederived_logits[i]) << "output " << i;
  }
}

// Activation quantization is the integer path's only error source against
// the float reference walk, so a finer activation grid must track the
// reference more closely. No act-quant modules: every edge takes the
// calibrated LowerOptions::act_bits grid.
TEST(CompiledGraph, IntegerForwardQuantizationErrorShrinksWithActBits) {
  Rng rng(79);
  Model model;
  std::vector<CsqWeightSource*> sources;
  const WeightSourceFactory factory =
      model.recording_factory(csq_weight_factory(&sources));
  auto net = std::make_unique<Sequential>("net");
  Conv2dConfig conv;
  conv.in_channels = 3;
  conv.out_channels = 8;
  net->add(std::make_unique<Conv2d>("conv1", conv, factory, rng));
  net->add(std::make_unique<BatchNorm2d>("bn1", 8));
  net->add(std::make_unique<ReLU>("relu1"));
  net->add(std::make_unique<GlobalAvgPool>("gap"));
  net->add(std::make_unique<Flatten>("flatten"));
  net->add(std::make_unique<Linear>("fc", 8, 6, factory, rng));
  model.set_root(std::move(net));

  Tensor input = random_tensor({8, 3, 8, 8}, rng);
  for (int i = 0; i < 3; ++i) model.forward(input, /*training=*/true);
  for (CsqWeightSource* source : sources) source->finalize();

  const auto error_at = [&](int act_bits) {
    runtime::LowerOptions options;
    options.in_height = 8;
    options.in_width = 8;
    options.act_bits = act_bits;
    runtime::CompiledGraph graph = runtime::lower(model, options);
    graph.calibrate(input);
    return max_abs_diff(graph.forward(input), graph.forward_reference(input));
  };
  const float err2 = error_at(2);
  const float err8 = error_at(8);
  EXPECT_GT(err2, 0.0f);
  EXPECT_LT(err8, err2);
}

// ------------------------------------------------- conformance grid -----
//
// Parameterized lowering-parity sweep: a conv/bn/relu stack with an
// optional residual block and pooling layer, lowered and compared against
// the float eval path over every exportable family, the batch sizes the
// serving layer coalesces, and a curated set of shape variants — non-tiling
// and strided max pools, overlapping padded windows, non-square kernels
// and inputs, and both residual skip kinds, alone and feeding a pool.
// Remaining genuine gaps stay enumerated as skipped cells with their
// reasons, so closing one keeps flipping a skip into coverage.

// Residual block after relu1: identity skip BasicBlock{8,8,1}, or
// downsample skip BasicBlock{8,16,2}.
enum class Residual { kNone, kIdentity, kDownsample };

struct ConformanceCase {
  const char* tag;     // shape-variant fragment of the test name
  const char* family;  // "csq" | "bsq" | "ste_uniform"
  int batch = 1;
  int spatial_h = 12;
  int spatial_w = 12;
  int pool_kernel_h = 0;  // 0: no max pool
  int pool_kernel_w = 0;
  int pool_stride = 0;
  int pool_pad = 0;
  Residual residual = Residual::kNone;
  const char* skip_reason = nullptr;  // non-null: a remaining genuine gap
  bool global_pool = true;  // false: the head reads conv2's map flattened
};

std::vector<ConformanceCase> conformance_grid() {
  // One entry per shape variant; the grid takes the product with the three
  // exportable families and the serving batch sizes.
  const ConformanceCase variants[] = {
      {"nopool_s12"},
      {"nopool_s11", "", 0, 11, 11},
      {"max2s2_s12", "", 0, 12, 12, 2, 2, 2, 0},
      // Stride-2 / stride-3 windows that do not tile an 11x11 map (floor
      // output grid drops the trailing rows).
      {"max2s2_s11", "", 0, 11, 11, 2, 2, 2, 0},
      {"max3s3_s11", "", 0, 11, 11, 3, 3, 3, 0},
      // Overlapping strided window with padding (the ResNet-stem shape),
      // on a square and on a non-square input.
      {"max3s2p1_s12", "", 0, 12, 12, 3, 3, 2, 1},
      {"max3s2p1_s11x13", "", 0, 11, 13, 3, 3, 2, 1},
      // Even kernel with padding on an odd input: the first and the last
      // window each hang one tap over a border.
      {"max2s2p1_s11", "", 0, 11, 11, 2, 2, 2, 1},
      // Stride-1 "same" window: overlapping windows keep the map size.
      {"max3s1p1_s12", "", 0, 12, 12, 3, 3, 1, 1},
      // Non-square pool kernel, on a square and on a non-square input, and
      // padded.
      {"max3x2s2_s12", "", 0, 12, 12, 3, 2, 2, 0},
      {"max3x2s2_s11x13", "", 0, 11, 13, 3, 2, 2, 0},
      {"max3x2s2p1_s11x13", "", 0, 11, 13, 3, 2, 2, 1},
      // Residual joins whose planes (121 and 36 values) are not multiples
      // of the 32-wide SIMD requant body, so both it and the scalar tail
      // run for each skip kind.
      {"identity_s11", "", 0, 11, 11, 0, 0, 0, 0, Residual::kIdentity},
      {"downsample_s11", "", 0, 11, 11, 0, 0, 0, 0, Residual::kDownsample},
      // A pool that reads a residual join's output, for each skip kind.
      {"identity_max2s2_s11", "", 0, 11, 11, 2, 2, 2, 0, Residual::kIdentity},
      {"downsample_max3s2p1_s12", "", 0, 12, 12, 3, 3, 2, 1,
       Residual::kDownsample},
      // No global pool: the Linear head reads conv2's 3x2 map straight
      // from Flatten, a 3x2 kernel over 8 channels (48 features in the
      // weights' (c, h, w) order).
      {"flatten3x2_s6x4", "", 0, 6, 4, 0, 0, 0, 0, Residual::kNone, nullptr,
       /*global_pool=*/false},
  };
  std::vector<ConformanceCase> cases;
  for (const ConformanceCase& variant : variants) {
    for (const char* family : {"csq", "bsq", "ste_uniform"}) {
      for (const int batch : {1, 3, 17}) {
        ConformanceCase entry = variant;
        entry.family = family;
        entry.batch = batch;
        cases.push_back(entry);
      }
    }
  }
  // Remaining genuine gaps, enumerated once each so the grid keeps naming
  // what the runtime cannot serve yet.
  ConformanceCase rect_conv;
  rect_conv.tag = "rect_conv_kernel";
  rect_conv.family = "csq";
  rect_conv.skip_reason =
      "non-square CONV kernels: Conv2dConfig and the kConv program record "
      "carry one square kernel extent (pool kernels are rectangular now; "
      "conv kernels are not)";
  cases.push_back(rect_conv);
  ConformanceCase ceil_mode;
  ceil_mode.tag = "ceil_mode_pool";
  ceil_mode.family = "csq";
  ceil_mode.skip_reason =
      "ceil-mode pooling output grids: Pool2dConfig uses floor division "
      "(trailing partial windows are dropped, not padded)";
  cases.push_back(ceil_mode);
  return cases;
}

std::string conformance_name(
    const ::testing::TestParamInfo<ConformanceCase>& info) {
  const ConformanceCase& param = info.param;
  if (param.skip_reason != nullptr) return std::string("gap_") + param.tag;
  std::string name = param.family;
  name += "_b" + std::to_string(param.batch);
  name += "_";
  name += param.tag;
  return name;
}

class RuntimeConformance
    : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(RuntimeConformance, LoweringParityWithFloatEval) {
  const ConformanceCase& param = GetParam();
  if (param.skip_reason != nullptr) {
    GTEST_SKIP() << "runtime op-coverage gap: " << param.skip_reason;
  }
  const std::int64_t spatial_h = param.spatial_h;
  const std::int64_t spatial_w = param.spatial_w;

  Rng rng(1300);
  Model model;
  std::vector<CsqWeightSource*> csq_registry;
  std::vector<BsqWeightSource*> bsq_registry;
  WeightSourceFactory base;
  if (std::string(param.family) == "csq") {
    CsqWeightOptions options;
    options.fixed_precision = 3;
    base = csq_weight_factory(&csq_registry, options);
  } else if (std::string(param.family) == "bsq") {
    base = bsq_weight_factory(&bsq_registry);
  } else {
    base = ste_uniform_weight_factory(/*bits=*/4);
  }
  const WeightSourceFactory factory = model.recording_factory(std::move(base));

  auto net = std::make_unique<Sequential>("net");
  Conv2dConfig c1;
  c1.in_channels = 3;
  c1.out_channels = 8;
  net->add(std::make_unique<Conv2d>("conv1", c1, factory, rng));
  net->add(std::make_unique<BatchNorm2d>("bn1", 8));
  net->add(std::make_unique<ReLU>("relu1"));
  std::int64_t channels = 8;
  if (param.residual != Residual::kNone) {
    BlockConfig block;
    block.in_channels = 8;
    block.out_channels = param.residual == Residual::kIdentity ? 8 : 16;
    block.stride = param.residual == Residual::kIdentity ? 1 : 2;
    net->add(std::make_unique<BasicBlock>("block", block, factory,
                                          /*act_factory=*/nullptr, rng));
    channels = block.out_channels;
  }
  if (param.pool_kernel_h > 0) {
    net->add(std::make_unique<MaxPool2d>(
        "pool", Pool2dConfig{param.pool_kernel_h, param.pool_kernel_w,
                             param.pool_stride, param.pool_pad}));
  }
  Conv2dConfig c2;
  c2.in_channels = channels;
  c2.out_channels = 8;
  c2.stride = 2;
  net->add(std::make_unique<Conv2d>("conv2", c2, factory, rng));
  net->add(std::make_unique<BatchNorm2d>("bn2", 8));
  net->add(std::make_unique<ReLU>("relu2"));
  std::int64_t features = 8;
  if (param.global_pool) {
    net->add(std::make_unique<GlobalAvgPool>("gap"));
  } else {
    // conv2's output map, flattened (the conv has no pool before it here).
    features *= (spatial_h + 1) / 2 * ((spatial_w + 1) / 2);
  }
  net->add(std::make_unique<Flatten>("flatten"));
  net->add(std::make_unique<Linear>("fc", features, 5, factory, rng));
  model.set_root(std::move(net));

  runtime::LowerOptions options;
  options.in_height = spatial_h;
  options.in_width = spatial_w;

  // Settle the BN running statistics the lowering folds.
  Rng data_rng(1400 + param.spatial_h + param.spatial_w);
  Tensor calib = random_tensor({8, 3, spatial_h, spatial_w}, data_rng);
  for (int i = 0; i < 3; ++i) model.forward(calib, /*training=*/true);
  for (CsqWeightSource* source : csq_registry) source->finalize();

  runtime::CompiledGraph graph = runtime::lower(model, options);

  Tensor input =
      random_tensor({param.batch, 3, spatial_h, spatial_w}, data_rng);
  // Calibrate over both batches so every edge's observed range covers the
  // served inputs (ranges accumulate across calls) — the PTQ deployment
  // contract the tolerance below assumes.
  graph.calibrate(calib);
  graph.calibrate(input);
  // Float eval path vs the graph's float reference walk: folded BN and
  // dequantized (bit-exact / near-exact) weights must track the module
  // tree closely.
  const Tensor eval = model.forward(input, /*training=*/false);
  const Tensor reference = graph.forward_reference(input);
  ASSERT_TRUE(eval.same_shape(reference));
  EXPECT_LT(max_abs_diff(eval, reference),
            1e-2f * std::max(1.0f, max_abs(eval)));

  // Integer path vs the reference: activation-quantization error only.
  graph.set_pooled(false);
  const Tensor serial = graph.forward(input);
  EXPECT_LT(max_abs_diff(serial, reference),
            0.1f * std::max(1.0f, max_abs(reference)));

  // Serial and pooled integer forwards are bit-identical.
  graph.set_pooled(true);
  const Tensor pooled = graph.forward(input);
  ASSERT_TRUE(serial.same_shape(pooled));
  for (std::int64_t i = 0; i < serial.numel(); ++i) {
    ASSERT_EQ(serial[i], pooled[i]) << "logit " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, RuntimeConformance,
                         ::testing::ValuesIn(conformance_grid()),
                         conformance_name);

// ------------------------------------------------- packed-weights fuzz ---

TEST(PackedWeightsFuzz, SeededRandomGridsReconstructBitExactly) {
  Rng rng(5001);
  for (int trial = 0; trial < 120; ++trial) {
    const auto rows = 1 + static_cast<std::int64_t>(rng.uniform(0.0f, 5.9f));
    const auto cols = 1 + static_cast<std::int64_t>(rng.uniform(0.0f, 47.9f));
    const int mode = trial % 4;
    std::vector<std::int32_t> values(static_cast<std::size_t>(rows * cols));
    for (auto& v : values) {
      switch (mode) {
        case 0:  // all-zero plane (shift degenerates, codes stay exact)
          v = 0;
          break;
        case 1:  // full span, |code| up to 255 (forces the 2*hi+lo split)
          v = static_cast<std::int32_t>(rng.uniform(-255.9f, 255.9f));
          break;
        case 2:  // multiples of 4: the power-of-two shift path
          v = 4 * static_cast<std::int32_t>(rng.uniform(-63.9f, 63.9f));
          break;
        default: {  // sparse single-bit planes with zeros sprinkled in
          const int bit = static_cast<int>(rng.uniform(0.0f, 7.99f));
          v = (rng.uniform(-1.0f, 1.0f) < 0.0f ? -1 : 1) * (1 << bit);
          if (rng.uniform(0.0f, 1.0f) < 0.3f) v = 0;
          break;
        }
      }
    }
    if (mode == 1) values.front() = 255;  // pin the span's extreme
    const WeightCodes codes =
        make_codes(values, 0.1f + rng.uniform(0.0f, 2.0f), 8);
    runtime::PackedIntWeights packed(codes, rows, cols);
    for (std::int64_t i = 0; i < rows * cols; ++i) {
      ASSERT_EQ(packed.full_code(i),
                values[static_cast<std::size_t>(i)])
          << "trial " << trial << " element " << i;
      // Bit-exact float reconstruction: one rounding of step * code, the
      // same operation materialize_hard performs.
      ASSERT_EQ(packed.weight(i),
                codes.step() *
                    static_cast<float>(values[static_cast<std::size_t>(i)]))
          << "trial " << trial << " element " << i;
    }
    if (trial % 6 == 0) {
      // Drive the packed planes through the GEMM (split trials chain the
      // hi/lo passes through alpha) against an exact int64 reference. The
      // accumulator is in stored-plane units: the power-of-two shift is
      // folded into effective_step(), so the reference uses code >> shift.
      const std::int64_t n = 1 + static_cast<std::int64_t>(
          rng.uniform(0.0f, 6.9f));
      const auto acts = random_u8(cols * n, rng);
      std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * n));
      packed.gemm(Trans::no, n, acts.data(), n, acc.data(), n,
                  /*pooled=*/false);
      for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t j = 0; j < n; ++j) {
          std::int64_t expected = 0;
          for (std::int64_t p = 0; p < cols; ++p) {
            expected +=
                static_cast<std::int64_t>(
                    values[static_cast<std::size_t>(r * cols + p)] >>
                    packed.shift()) *
                acts[static_cast<std::size_t>(p * n + j)];
          }
          ASSERT_EQ(acc[static_cast<std::size_t>(r * n + j)], expected)
              << "trial " << trial << " r=" << r << " j=" << j;
        }
      }
    }
  }
}

TEST(PackedWeightsFuzz, RejectsReductionDepthsBeyondInt32Headroom) {
  // The exactness bound (worst split contribution 65535 per depth step)
  // requires k <= 32767; both PackedIntWeights and the raw conv packer
  // must refuse anything larger.
  std::vector<std::int32_t> values(32768, 1);
  EXPECT_THROW(
      runtime::PackedIntWeights(make_codes(values, 1.0f, 8), 1, 32768),
      check_error);

  ConvGeometry deep;  // a 1x1 convolution 32768 channels deep
  deep.channels = 32768;
  deep.height = deep.width = 1;
  deep.kernel_h = deep.kernel_w = 1;
  EXPECT_THROW(testing::pack_conv_codes(PackedKernel::kS8U8, deep, 1,
                                        std::vector<std::int8_t>(32768, 1)),
               check_error);

  // The boundary itself is legal.
  values.resize(32767);
  runtime::PackedIntWeights packed(make_codes(values, 1.0f, 8), 1, 32767);
  EXPECT_EQ(packed.cols(), 32767);
}

TEST(CompiledGraph, LowersVgg19WithMaxPools) {
  // VGG exercises the maxpool lowering and deep conv/bn/relu chains.
  Rng rng(910);
  ModelConfig model_config;
  model_config.base_width = 4;
  model_config.num_classes = 10;
  Model model = make_vgg19bn(model_config,
                             ste_uniform_weight_factory(/*bits=*/4), nullptr,
                             rng);
  runtime::LowerOptions options;
  options.in_height = 32;
  options.in_width = 32;
  runtime::CompiledGraph graph = runtime::lower(model, options);

  Rng data_rng(911);
  Tensor images = random_tensor({4, 3, 32, 32}, data_rng);
  graph.calibrate(images);
  graph.set_pooled(false);
  const Tensor serial = graph.forward(images);
  graph.set_pooled(true);
  const Tensor pooled = graph.forward(images);
  for (std::int64_t i = 0; i < serial.numel(); ++i) {
    ASSERT_EQ(serial[i], pooled[i]);
  }
  EXPECT_EQ(serial.dim(1), 10);
}

}  // namespace
}  // namespace csq
