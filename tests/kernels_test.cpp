// Integer kernel tests:
//
//  * the low-bit kinds' plain product (a 1x1 convolution) against an exact
//    int64 reference across odd shapes (K=1, non-multiple-of-tile M/N,
//    KC-crossing depths), serial and pooled;
//  * the bitserial-w16 eligibility rule, and a recorded bitserial-w16 kind
//    honored exactly up to each |code|'s deepest eligible depth;
//  * the deterministic kernel-selection policy and PackedIntWeights
//    bit-identity across every forced kernel kind;
//  * the integer ISA: its name, the choice table, the AMX kernel at the
//    s8u8 split chain's int8 extremes, AMX and AVX2 accumulators compared
//    bit for bit, and panels that refuse to run under another ISA, kind or
//    geometry.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/packed_weights.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/rng.h"

namespace csq {
namespace {

using runtime::PackedIntWeights;
using runtime::WeightKernel;

std::vector<std::int8_t> random_s8(std::int64_t count, Rng& rng,
                                   int magnitude) {
  std::vector<std::int8_t> values(static_cast<std::size_t>(count));
  for (auto& v : values) {
    v = static_cast<std::int8_t>(
        rng.uniform(-static_cast<float>(magnitude),
                    static_cast<float>(magnitude)));
  }
  return values;
}

std::vector<std::uint8_t> random_u8(std::int64_t count, Rng& rng) {
  std::vector<std::uint8_t> values(static_cast<std::size_t>(count));
  for (auto& v : values) {
    v = static_cast<std::uint8_t>(rng.uniform(0.0f, 255.0f));
  }
  return values;
}

// ---------------------------------------------- low-bit parity ---------

// Both low-bit kinds' plain product C = A · B, run as a 1x1 convolution of
// k channels at n positions, against the exact reference and its own
// pooled run across tile-straddling shapes. Codes span the K-quad range;
// bitserial-w16 also needs the w16 rule at the depth.
CSQ_INT_ISA_TEST(LowBitGemm, MatchesExactReferenceAcrossShapesAndModes) {
  Rng rng(4201);
  const std::int64_t m_extents[] = {1, 3, 8, 17, 64, 129};
  const std::int64_t n_extents[] = {1, 5, 8, 33};
  const std::int64_t k_extents[] = {1, 3, 4, 17, 256, 300};
  for (const std::int64_t m : m_extents) {
    for (const std::int64_t n : n_extents) {
      for (const std::int64_t k : k_extents) {
        for (const PackedKernel kind :
             {PackedKernel::kLowBit, PackedKernel::kLowBitWide}) {
          if (kind == PackedKernel::kLowBitWide &&
              !gemm_s8u8_wide_eligible(k, 64)) {
            continue;
          }
          const auto a = random_s8(m * k, rng, 64);
          const auto b = random_u8(k * n, rng);
          const auto expected =
              testing::exact_product(m, n, k, a, nullptr, b);
          for (const bool pooled : {false, true}) {
            ASSERT_EQ(testing::one_by_one_product(kind, m, n, k, a, nullptr,
                                                  b, pooled),
                      expected)
                << "kind=" << static_cast<int>(kind) << " m=" << m
                << " n=" << n << " k=" << k << " pooled=" << pooled;
          }
        }
      }
    }
  }
}

// ---------------------------------------------- w16 eligibility rule ----

// The w16 rule admits deep reductions only for codes narrow enough that a
// KC-depth block of K-quad pair sums would fit int16.
TEST(LowBitGemm, WideEligibilityBound) {
  // Binary +/-1 layers qualify at any depth (the KC cap bounds the block).
  EXPECT_TRUE(gemm_s8u8_wide_eligible(1, 1));
  EXPECT_TRUE(gemm_s8u8_wide_eligible(1 << 20, 1));
  // |code| <= 2: one KC block of 128 quad-pairs * 510 stays under 32767.
  EXPECT_TRUE(gemm_s8u8_wide_eligible(128, 2));
  EXPECT_FALSE(gemm_s8u8_wide_eligible(130, 2));
  // |code| <= 64 only survives a four-deep reduction (two quad pairs).
  EXPECT_TRUE(gemm_s8u8_wide_eligible(4, 64));
  EXPECT_FALSE(gemm_s8u8_wide_eligible(5, 64));
}

CSQ_INT_ISA_TEST(LowBitGemm, ForcedWideKernelThrowsPastEligibilityEdges) {
  // A recorded bitserial-w16 kind is honored only where the w16 rule
  // holds: it packs at each |code|'s deepest eligible depth, where its
  // product over activations 255 is exact, and throws one depth step past
  // it (|code| 1 is eligible at every depth). One odd code keeps the
  // layer's power-of-two shift at 0, so the stored codes keep their
  // magnitude.
  using testing::deepest_wide_depth;
  ASSERT_EQ(deepest_wide_depth(2), 128);
  ASSERT_EQ(deepest_wide_depth(64), 4);
  const std::int64_t rows = 2;
  for (std::int32_t magnitude = 1; magnitude <= 64; ++magnitude) {
    const std::int64_t edge = deepest_wide_depth(magnitude);
    for (const std::int64_t depth : {edge, edge + 1}) {
      if (depth > testing::kMaxDepth) continue;
      std::vector<std::int32_t> codes(static_cast<std::size_t>(rows * depth),
                                      magnitude);
      codes[1] = 1;
      const auto pack = [&] {
        return PackedIntWeights(codes, /*step=*/0.01f, /*bits=*/7, rows,
                                depth, WeightKernel::kBitSerialWide);
      };
      if (depth == edge) {
        const PackedIntWeights packed = pack();
        EXPECT_EQ(packed.max_abs_code(), magnitude);
        const std::vector<std::uint8_t> b(static_cast<std::size_t>(depth),
                                          255);
        std::vector<std::int32_t> c(static_cast<std::size_t>(rows), -1);
        packed.gemm(Trans::no, 1, b.data(), 1, c.data(), 1,
                    /*pooled=*/false);
        for (std::int64_t r = 0; r < rows; ++r) {
          std::int64_t sum = 0;
          for (std::int64_t p = 0; p < depth; ++p) {
            sum += codes[static_cast<std::size_t>(r * depth + p)];
          }
          EXPECT_EQ(c[static_cast<std::size_t>(r)], 255 * sum)
              << "depth " << depth << " |code| " << magnitude << " row "
              << r;
        }
      } else {
        EXPECT_THROW(pack(), check_error)
            << "depth " << depth << " |code| " << magnitude;
      }
    }
  }
}

// ------------------------------------------------- integer kernel ISA ----

// Why the cells that force the AMX kernel cannot run here, or "".
std::string amx_skip_reason() {
  if (!gemm_int_isa_supported(GemmIntIsa::kAvx2)) {
    return "this build has no AVX2 baseline, so no AMX kernel";
  }
  if (!gemm_int_isa_supported(GemmIntIsa::kAmx)) {
    return "this host, its kernel or the compiler has no AMX-INT8";
  }
  return "";
}

TEST(GemmIsa, NamesTheIsaItRuns) {
  const bool avx2_build = gemm_int_isa_supported(GemmIntIsa::kAvx2);
  const GemmIntIsa baseline =
      avx2_build ? GemmIntIsa::kAvx2 : GemmIntIsa::kPortable;
  const std::string baseline_name = avx2_build ? "avx2" : "portable";
  const std::string isa = gemm_int_kernel_isa();
  EXPECT_EQ(isa, gemm_int_isa_supported(GemmIntIsa::kAmx) ? "amx"
                                                          : baseline_name);
  // The summary starts with the name; anything after it is a fallback
  // reason in parentheses.
  const std::string summary = gemm_int_isa_summary();
  EXPECT_EQ(summary.substr(0, isa.size()), isa);
  if (summary.size() > isa.size()) {
    EXPECT_EQ(summary.substr(isa.size(), 2), " (");
    EXPECT_EQ(summary.back(), ')');
  }
  {
    const ScopedGemmIntIsaForTest forced(baseline);
    EXPECT_EQ(gemm_int_kernel_isa(), baseline_name);
  }
  EXPECT_EQ(gemm_int_kernel_isa(), isa);
  // A build has one baseline, and the override forces only what can run.
  const GemmIntIsa other =
      avx2_build ? GemmIntIsa::kPortable : GemmIntIsa::kAvx2;
  EXPECT_FALSE(gemm_int_isa_supported(other));
  EXPECT_THROW(ScopedGemmIntIsaForTest{other}, check_error);
  EXPECT_EQ(gemm_int_kernel_isa(), isa);
}

// The ISA choice as a table over its three probes: AMX only when the build
// has the kernel, the CPU reports AMX and the kernel granted the tile
// state; a refusal names its errno; every other row is the baseline with
// no reason given.
TEST(GemmIsa, ChoosesAmxOnlyWhenBuildCpuAndKernelAllow) {
  const GemmIntIsa baseline = gemm_int_isa_supported(GemmIntIsa::kAvx2)
                                  ? GemmIntIsa::kAvx2
                                  : GemmIntIsa::kPortable;
  const GemmIntIsaChoice granted = gemm_choose_int_isa(true, true, 0);
  EXPECT_EQ(granted.isa, GemmIntIsa::kAmx);
  EXPECT_EQ(granted.fallback, "");

  for (const int refusal : {1, 22}) {  // EPERM, EINVAL
    const GemmIntIsaChoice refused = gemm_choose_int_isa(true, true, refusal);
    EXPECT_EQ(refused.isa, baseline);
    EXPECT_EQ(refused.fallback,
              "the CPU has AMX-INT8 but the kernel refused XTILEDATA: errno " +
                  std::to_string(refusal));
  }
  struct Row {
    bool build_has_amx, cpu_has_amx;
  };
  for (const Row row :
       {Row{true, false}, Row{false, true}, Row{false, false}}) {
    const GemmIntIsaChoice choice =
        gemm_choose_int_isa(row.build_has_amx, row.cpu_has_amx, 0);
    EXPECT_EQ(choice.isa, baseline)
        << row.build_has_amx << " " << row.cpu_has_amx;
    EXPECT_EQ(choice.fallback, "");
  }
}

// The AMX kernel on s8u8 codes at both int8 extremes through the split
// chain: a hi plane of -128 or 127 and a lo plane of 1, fused (C = 2 hi +
// lo), over activations 255 at the deepest legal reduction, where the int32
// headroom is tightest (255 * 255 * 32767 < 2^31 - 1). The reduction is a
// 1x1 convolution of 32767 channels; 17 output channels x 33 positions
// have full tiles and edge tiles.
TEST(GemmIsa, AmxS8U8SplitChainAtInt8ExtremesMatchesReference) {
  const std::string skip = amx_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  const ScopedGemmIntIsaForTest forced(GemmIntIsa::kAmx);
  const std::int64_t m = 17, n = 33, k = testing::kMaxDepth;
  const ConvGeometry geom = testing::one_by_one(k, n);
  const ConvGrid grid = gemm_conv_grid(geom, n, m);
  const std::vector<std::uint8_t> image(static_cast<std::size_t>(grid.reach),
                                        255);
  const auto lo = testing::pack_conv_codes(
      PackedKernel::kS8U8, geom, m,
      std::vector<std::int8_t>(static_cast<std::size_t>(m * k), 1));
  for (const std::int32_t hi_code : {-128, 127}) {
    const auto hi = testing::pack_conv_codes(
        PackedKernel::kS8U8, geom, m,
        std::vector<std::int8_t>(static_cast<std::size_t>(m * k),
                                 static_cast<std::int8_t>(hi_code)));
    for (const bool pooled : {false, true}) {
      std::vector<std::int32_t> c(static_cast<std::size_t>(grid.rows *
                                                           grid.ldc),
                                  -1);
      gemm_conv_nhwc(PackedKernel::kS8U8, geom, n, m, hi.data(), lo.data(),
                     /*batch=*/1, image.data(), 0, c.data(), 0, pooled);
      const std::int64_t expected = (2 * std::int64_t{hi_code} + 1) * 255 * k;
      for (std::int64_t q = 0; q < n; ++q) {
        for (std::int64_t o = 0; o < m; ++o) {
          ASSERT_EQ(c[static_cast<std::size_t>(q * grid.ldc + o)], expected)
              << "hi " << hi_code << " pooled " << pooled;
        }
      }
    }
  }
}

// The two ISAs' accumulators compared directly: every kind (s8u8 as its
// fused split chain) through gemm_conv_nhwc over a padded 3x3 conv, serial
// and pooled: every grid position, the discarded ones included, is a
// function of the operands alone.
TEST(GemmIsa, AmxAndAvx2AccumulatorsAreBitIdentical) {
  const std::string skip = amx_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  ConvGeometry geom;
  geom.channels = 16;
  geom.height = geom.width = 9;
  geom.kernel_h = geom.kernel_w = 3;
  geom.pad = 1;
  geom.validate();
  const std::int64_t m = 70, k = geom.col_rows();
  Rng rng(4402);
  const auto image = random_u8(geom.channels * geom.height * geom.width, rng);
  const testing::NhwcImage padded = testing::conv_input(
      geom, m, image.data(), geom.pad, /*fill=*/19, /*tail_fill=*/0xEE);
  const ConvGrid grid = gemm_conv_grid(geom, padded.pitch, m);
  for (const PackedKernel kind : {PackedKernel::kS8U8, PackedKernel::kLowBit,
                                  PackedKernel::kLowBitWide}) {
    int magnitude = kind == PackedKernel::kS8U8 ? 127 : 64;
    while (kind == PackedKernel::kLowBitWide &&
           !gemm_s8u8_wide_eligible(k, magnitude)) {
      --magnitude;
    }
    const auto hi = random_s8(m * k, rng, magnitude);
    const auto lo = random_s8(m * k, rng, 1);
    const bool split = kind == PackedKernel::kS8U8;
    const auto accumulators = [&](GemmIntIsa isa) {
      const ScopedGemmIntIsaForTest forced(isa);
      const auto hi_conv = testing::pack_conv_codes(kind, geom, m, hi);
      const auto lo_conv = testing::pack_conv_codes(kind, geom, m, lo);
      std::vector<std::int32_t> all;
      for (const bool pooled : {false, true}) {
        std::vector<std::int32_t> conv(
            static_cast<std::size_t>(grid.rows * grid.ldc));
        gemm_conv_nhwc(kind, geom, padded.pitch, m, hi_conv.data(),
                       split ? lo_conv.data() : nullptr, /*batch=*/1,
                       padded.origin(geom.pad), 0, conv.data(), 0, pooled);
        all.insert(all.end(), conv.begin(), conv.end());
      }
      return all;
    };
    EXPECT_EQ(accumulators(GemmIntIsa::kAmx), accumulators(GemmIntIsa::kAvx2))
        << "kind " << static_cast<int>(kind);
  }
}

// Panels record the ISA, kind and geometry they were packed for. Running
// them as anything else fails a check instead of reading another layout's
// bytes.
TEST(GemmIsa, PanelsRunOnlyAsTheyWerePacked) {
  Rng rng(4401);
  const std::int64_t m = 9, n = 7, k = 20;
  ConvGeometry geom;  // a 20-deep conv with a single output position
  geom.channels = 5;
  geom.height = geom.width = 2;
  geom.kernel_h = geom.kernel_w = 2;
  geom.validate();
  ASSERT_EQ(geom.col_rows(), k);
  const auto codes = random_s8(m * k, rng, 1);  // eligible for every kind
  const auto b = random_u8(k * n, rng);
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
  const ConvGrid grid = gemm_conv_grid(geom, geom.padded_w(), m);
  const std::vector<std::uint8_t> image(static_cast<std::size_t>(grid.reach));
  std::vector<std::int32_t> conv_c(
      static_cast<std::size_t>(grid.rows * grid.ldc));
  const auto run_conv = [&](PackedKernel kind,
                            const std::vector<std::uint8_t>& w) {
    gemm_conv_nhwc(kind, geom, geom.padded_w(), m, w.data(), nullptr,
                   /*batch=*/1, image.data(), 0, conv_c.data(), 0);
  };
  const auto pack_conv = [&](PackedKernel kind) {
    return testing::pack_conv_codes(kind, geom, m, codes);
  };
  EXPECT_NO_THROW(run_conv(PackedKernel::kLowBit,
                           pack_conv(PackedKernel::kLowBit)));
  EXPECT_THROW(run_conv(PackedKernel::kLowBitWide,
                        pack_conv(PackedKernel::kLowBit)),
               check_error);
  // Same geometry, one output channel fewer than packed.
  const auto lowbit = pack_conv(PackedKernel::kLowBit);
  EXPECT_THROW(gemm_conv_nhwc(PackedKernel::kLowBit, geom, geom.padded_w(),
                              m - 1, lowbit.data(), nullptr, /*batch=*/1,
                              image.data(), 0, conv_c.data(), 0),
               check_error);
  // Same depth, another geometry: 20 channels under a 1x1 kernel.
  ConvGeometry wide = geom;
  wide.channels = 20;
  wide.kernel_h = wide.kernel_w = 1;
  EXPECT_THROW(run_conv(PackedKernel::kS8U8, testing::pack_conv_codes(
                                                 PackedKernel::kS8U8, wide,
                                                 m, codes)),
               check_error);

  const std::string skip = amx_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  const std::vector<std::int32_t> layer_codes(codes.begin(), codes.end());
  for (const PackedKernel kind : {PackedKernel::kS8U8, PackedKernel::kLowBit,
                                  PackedKernel::kLowBitWide}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const auto amx_conv = pack_conv(kind);
    const runtime::PackedIntWeights amx_layer(
        layer_codes, /*step=*/0.01f, /*bits=*/2, m, k,
        static_cast<WeightKernel>(kind));
    std::vector<std::uint8_t> avx2_conv;
    {
      const ScopedGemmIntIsaForTest forced(GemmIntIsa::kAvx2);
      avx2_conv = pack_conv(kind);
      EXPECT_NO_THROW(run_conv(kind, avx2_conv));
      EXPECT_THROW(run_conv(kind, amx_conv), check_error);
      EXPECT_THROW(amx_layer.gemm(Trans::no, n, b.data(), n, c.data(), n,
                                   /*pooled=*/false),
                   check_error);
    }
    EXPECT_NO_THROW(run_conv(kind, amx_conv));
    EXPECT_THROW(run_conv(kind, avx2_conv), check_error);
  }
}

// --------------------------------------------------- kernel selection ----

std::vector<std::int32_t> spread_codes(std::int64_t count,
                                       std::int32_t magnitude, Rng& rng) {
  std::vector<std::int32_t> codes(static_cast<std::size_t>(count));
  for (auto& c : codes) {
    c = static_cast<std::int32_t>(
        rng.uniform(-static_cast<float>(magnitude),
                    static_cast<float>(magnitude) + 1.0f));
  }
  // Pin the extremes so max |code| is exactly `magnitude` and the layer's
  // power-of-two shift is 0 (an odd code is present).
  codes[0] = magnitude;
  if (count > 1) codes[1] = magnitude > 1 ? 1 : -magnitude;
  return codes;
}

TEST(KernelSelect, PolicyMatchesPrecision) {
  Rng rng(4301);
  const std::int64_t rows = 8;
  // 3-bit codes (|code| <= 7) at shallow depth: wide-eligible bit-serial.
  EXPECT_EQ(PackedIntWeights::select_kernel(spread_codes(8 * 16, 7, rng), 3,
                                            16),
            WeightKernel::kBitSerialWide);
  // Same codes at a depth past the int16 headroom: plain bit-serial.
  EXPECT_EQ(PackedIntWeights::select_kernel(spread_codes(8 * 2048, 7, rng),
                                            3, 2048),
            WeightKernel::kBitSerial);
  // A 4-bit layer reaches |code| = 2^4 - 1 = 15: the s8u8 reference.
  EXPECT_EQ(PackedIntWeights::select_kernel(spread_codes(rows * 64, 15, rng),
                                            4, 64),
            WeightKernel::kS8U8);
  // Wide 8-bit codes: the s8u8 reference.
  EXPECT_EQ(PackedIntWeights::select_kernel(spread_codes(rows * 64, 120, rng),
                                            8, 64),
            WeightKernel::kS8U8);
  // Full-span codes force the hi/lo split, which only the reference runs.
  EXPECT_EQ(PackedIntWeights::select_kernel(spread_codes(rows * 64, 255, rng),
                                            8, 64),
            WeightKernel::kS8U8);
  // Selection is deterministic: same inputs, same answer.
  const auto codes = spread_codes(rows * 32, 3, rng);
  EXPECT_EQ(PackedIntWeights::select_kernel(codes, 2, 32),
            PackedIntWeights::select_kernel(codes, 2, 32));
}

TEST(KernelSelect, PackedWeightsBitIdenticalAcrossKernels) {
  Rng rng(4302);
  const std::int64_t rows = 13;
  const std::int64_t cols = 33;
  const std::int64_t n = 21;
  // |code| <= 7: every kernel kind is eligible (wide: only at shallow k, so
  // keep cols inside the |a|<=7 eligibility bound).
  ASSERT_TRUE(gemm_s8u8_wide_eligible(cols, 7));
  const auto codes = spread_codes(rows * cols, 7, rng);
  const auto b = random_u8(cols * n, rng);

  std::vector<std::vector<std::int32_t>> results;
  for (const WeightKernel kernel :
       {WeightKernel::kS8U8, WeightKernel::kBitSerial,
        WeightKernel::kBitSerialWide, WeightKernel::kAuto}) {
    PackedIntWeights packed(codes, /*step=*/0.01f, /*bits=*/3, rows, cols,
                            kernel);
    if (kernel != WeightKernel::kAuto) {
      EXPECT_EQ(packed.kernel(), kernel);
    }
    std::vector<std::int32_t> c(static_cast<std::size_t>(rows * n), -1);
    packed.gemm(Trans::no, n, b.data(), n, c.data(), n, /*pooled=*/false);
    std::vector<std::int32_t> pooled_c(static_cast<std::size_t>(rows * n),
                                       -1);
    packed.gemm(Trans::no, n, b.data(), n, pooled_c.data(), n,
                /*pooled=*/true);
    EXPECT_EQ(c, pooled_c) << runtime::weight_kernel_name(kernel);
    results.push_back(std::move(c));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i])
        << "kernel variant " << i << " diverged from the s8u8 reference";
  }
}

}  // namespace
}  // namespace csq
