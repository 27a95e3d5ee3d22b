// Precision-specialized GEMM kernel tests:
//
//  * the low-bit (K-quad vpmaddubsw) and int16-accumulator prepacked GEMMs
//    against an exact int64 reference across odd shapes (K=1,
//    non-multiple-of-panel M/N, KC-crossing depths), both transpose forms,
//    the power-of-two alpha chain and accumulate mode;
//  * serial vs pooled bit-identity of every specialized entry point;
//  * the int16-accumulator eligibility bound, and worst-case operands at
//    every headroom edge of every integer family (a generated sweep over
//    each low-bit |code|, plus the s8u8 and split-chain extremes);
//  * the deterministic kernel-selection policy and PackedIntWeights
//    bit-identity across every forced kernel kind;
//  * the integer ISA: its name, the choice table, the AMX kernel at the
//    s8u8 split chain's int8 extremes, AMX and AVX2 accumulators compared
//    bit for bit, and panels that refuse to run under another ISA, kind or
//    shape. The GEMM suites above also run as *Avx2 twins with the AVX2
//    kernels forced (CSQ_INT_ISA_TEST).
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

// Exact reference: C = alpha * A * op(B) (+ C), int64 accumulation.
void reference_s8u8(Trans trans_b, std::int64_t m, std::int64_t n,
                    std::int64_t k, std::int32_t alpha, const std::int8_t* a,
                    const std::uint8_t* b, std::int64_t ldb, bool accumulate,
                    std::vector<std::int32_t>& c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        const std::int64_t bv = trans_b == Trans::no ? b[p * ldb + j]
                                                     : b[j * ldb + p];
        acc += static_cast<std::int64_t>(a[i * k + p]) * bv;
      }
      auto& dst = c[static_cast<std::size_t>(i * n + j)];
      dst = static_cast<std::int32_t>((accumulate ? dst : 0) + alpha * acc);
    }
  }
}

// ------------------------------------------- specialized GEMM parity -----

enum class QuadPath { kLowBit, kWide };

void run_quad(QuadPath path, Trans trans_b, std::int64_t m, std::int64_t n,
              std::int64_t k, std::int32_t alpha, const std::int8_t* a,
              const std::uint8_t* b, std::int64_t ldb, bool accumulate,
              bool pooled, std::vector<std::int32_t>& c) {
  const PackedKernel kind = path == QuadPath::kWide
                                ? PackedKernel::kLowBitWide
                                : PackedKernel::kLowBit;
  std::vector<std::uint8_t> packed(
      static_cast<std::size_t>(gemm_packed_a_bytes(kind, m, k)));
  gemm_pack_a(kind, m, k, a, k, packed.data());
  gemm_packed(kind, trans_b, m, n, k, alpha, packed.data(), b, ldb, accumulate,
              c.data(), n, GemmExec{pooled});
}

// Every specialized path against the exact reference and its own pooled
// variant, across panel-straddling shapes and the alpha/accumulate modes.
CSQ_INT_ISA_TEST(LowBitGemm, MatchesExactReferenceAcrossShapesAndModes) {
  Rng rng(4201);
  const std::int64_t m_extents[] = {1, 3, 8, 17, 64, 129};
  const std::int64_t n_extents[] = {1, 5, 8, 33};
  const std::int64_t k_extents[] = {1, 3, 4, 17, 256, 300};
  for (const std::int64_t m : m_extents) {
    for (const std::int64_t n : n_extents) {
      for (const std::int64_t k : k_extents) {
        for (const Trans trans_b : {Trans::no, Trans::yes}) {
          const std::int32_t alpha = (m + n + k) % 2 == 0 ? 1 : 2;
          const bool accumulate = (m + k) % 2 == 1;
          for (const QuadPath path : {QuadPath::kLowBit, QuadPath::kWide}) {
            // Codes span the K-quad range; the wide path also needs the
            // int16 headroom bound.
            if (path == QuadPath::kWide && !gemm_s8u8_wide_eligible(k, 64)) {
              continue;
            }
            const auto a = random_s8(m * k, rng, 64);
            const auto b = random_u8(k * n, rng);
            const std::int64_t ldb = trans_b == Trans::no ? n : k;
            std::vector<std::int32_t> expected(
                static_cast<std::size_t>(m * n));
            std::vector<std::int32_t> serial(
                static_cast<std::size_t>(m * n));
            std::vector<std::int32_t> pooled(
                static_cast<std::size_t>(m * n));
            if (accumulate) {
              for (std::size_t i = 0; i < expected.size(); ++i) {
                const auto seed =
                    static_cast<std::int32_t>(rng.uniform(-100.0f, 100.0f));
                expected[i] = serial[i] = pooled[i] = seed;
              }
            }
            reference_s8u8(trans_b, m, n, k, alpha, a.data(), b.data(), ldb,
                           accumulate, expected);
            run_quad(path, trans_b, m, n, k, alpha, a.data(), b.data(), ldb,
                     accumulate, /*pooled=*/false, serial);
            run_quad(path, trans_b, m, n, k, alpha, a.data(), b.data(), ldb,
                     accumulate, /*pooled=*/true, pooled);
            ASSERT_EQ(expected, serial)
                << "path=" << static_cast<int>(path) << " m=" << m
                << " n=" << n << " k=" << k << " alpha=" << alpha;
            ASSERT_EQ(serial, pooled)
                << "pooled mismatch path=" << static_cast<int>(path)
                << " m=" << m << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

// The wide kernel runs deep reductions only for codes narrow enough that a
// KC-depth block of vpmaddubsw partial sums fits int16.
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

// Worst-case operands at an exact headroom edge: activations all 255 and
// every code `code` (the family's largest magnitude, one sign), so every
// partial sum is as large as the bound admits.
void expect_worst_case_matches_reference(PackedKernel kind, std::int64_t k,
                                         std::int32_t code) {
  const std::int64_t m = 3, n = 5;
  const std::vector<std::int8_t> a(static_cast<std::size_t>(m * k),
                                   static_cast<std::int8_t>(code));
  const std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n), 255);
  std::vector<std::int32_t> expected(static_cast<std::size_t>(m * n));
  reference_s8u8(Trans::no, m, n, k, 1, a.data(), b.data(), n,
                 /*accumulate=*/false, expected);
  std::vector<std::uint8_t> packed(
      static_cast<std::size_t>(gemm_packed_a_bytes(kind, m, k)));
  gemm_pack_a(kind, m, k, a.data(), k, packed.data());
  std::vector<std::int32_t> actual(expected.size(), -1);
  gemm_packed(kind, Trans::no, m, n, k, 1, packed.data(), b.data(), n,
              /*accumulate=*/false, actual.data(), n);
  EXPECT_EQ(actual, expected) << "kind=" << static_cast<int>(kind)
                              << " k=" << k << " code=" << code;
}

// The deepest reduction the int32 accumulators admit for every family.
constexpr std::int64_t kMaxDepth = 32767;

// The deepest depth k* at which bitserial-w16 stays exact for codes up to
// |code| = c. The eligibility bound is monotone in depth, and the KC cap
// bounds every block, so |code| = 1 is eligible at every depth and yields
// kMaxDepth.
std::int64_t deepest_wide_depth(std::int32_t c) {
  std::int64_t k = 0;
  while (k < kMaxDepth && gemm_s8u8_wide_eligible(k + 1, c)) ++k;
  return k;
}

// The split hi/lo chain (code = 2 * hi + lo: an alpha = 2 pass over a hi
// plane reaching -128, then the alpha = 1 lo pass) with every code `code`
// and activations 255 at the deepest reduction, where the s8u8 headroom is
// tightest: 255 * 255 * 32767 < 2^31.
void expect_split_chain_matches_reference(std::int32_t code) {
  const std::int64_t rows = 3, n = 5;
  const std::vector<std::int32_t> codes(
      static_cast<std::size_t>(rows * kMaxDepth), code);
  const PackedIntWeights packed(codes, /*step=*/0.01f, /*bits=*/8, rows,
                                kMaxDepth);
  ASSERT_TRUE(packed.split());
  ASSERT_EQ(packed.kernel(), WeightKernel::kS8U8);
  const std::vector<std::uint8_t> b(static_cast<std::size_t>(kMaxDepth * n),
                                    255);
  std::vector<std::int32_t> c(static_cast<std::size_t>(rows * n), -1);
  packed.gemm(Trans::no, n, b.data(), n, c.data(), n, /*pooled=*/false);
  // The int64 reference of uniform operands: every element is one sum.
  const std::int64_t expected = std::int64_t{code} * 255 * kMaxDepth;
  for (const std::int32_t v : c) {
    EXPECT_EQ(v, expected) << "split chain code=" << code;
  }
}

CSQ_INT_ISA_TEST(LowBitGemm, WorstCaseOperandsAtHeadroomEdgesMatchReference) {
  // The hand-derived edges: one int16 lane reaches 32640 of its 32767 at
  // |code| 2 and depth 128, and at |code| 64 and depth 4.
  ASSERT_EQ(deepest_wide_depth(2), 128);
  ASSERT_EQ(deepest_wide_depth(64), 4);
  // Every low-bit |code|: bitserial-w16 at its deepest eligible depth, and
  // bitserial one step past it and at the deepest legal reduction.
  for (std::int32_t c = 1; c <= 64; ++c) {
    const std::int64_t edge = deepest_wide_depth(c);
    ASSERT_GE(edge, 4) << "|code| " << c;
    for (const std::int32_t sign : {1, -1}) {
      const std::int32_t code = c * sign;
      if (edge == kMaxDepth) {
        // Unbounded by the KC cap: both sides of the block edge and the
        // deepest reduction.
        for (const std::int64_t k : {kGemmKC - 1, kGemmKC + 1, kMaxDepth}) {
          expect_worst_case_matches_reference(PackedKernel::kLowBitWide, k,
                                              code);
        }
      } else {
        expect_worst_case_matches_reference(PackedKernel::kLowBitWide, edge,
                                            code);
        expect_worst_case_matches_reference(PackedKernel::kLowBit, edge + 1,
                                            code);
      }
      expect_worst_case_matches_reference(PackedKernel::kLowBit, kMaxDepth,
                                          code);
    }
  }
  // The s8u8 reference at both int8 extremes, and the split chain at
  // +/-255, all at the deepest reduction.
  expect_worst_case_matches_reference(PackedKernel::kS8U8, kMaxDepth, 127);
  expect_worst_case_matches_reference(PackedKernel::kS8U8, kMaxDepth, -128);
  expect_split_chain_matches_reference(255);
  expect_split_chain_matches_reference(-255);
}

CSQ_INT_ISA_TEST(LowBitGemm, ForcedWideKernelThrowsPastEligibilityEdges) {
  // A recorded bitserial-w16 kind is honored only where the int16 headroom
  // holds: it packs at each |code|'s deepest eligible depth and throws one
  // depth step past it (|code| 1 is eligible at every depth). One odd code
  // keeps the layer's power-of-two shift at 0, so the stored codes keep
  // their magnitude.
  ASSERT_EQ(deepest_wide_depth(2), 128);
  ASSERT_EQ(deepest_wide_depth(64), 4);
  const std::int64_t rows = 2;
  for (std::int32_t magnitude = 1; magnitude <= 64; ++magnitude) {
    const std::int64_t edge = deepest_wide_depth(magnitude);
    for (const std::int64_t depth : {edge, edge + 1}) {
      if (depth > kMaxDepth) continue;
      std::vector<std::int32_t> codes(static_cast<std::size_t>(rows * depth),
                                      magnitude);
      codes[1] = 1;
      const auto pack = [&] {
        return PackedIntWeights(codes, /*step=*/0.01f, /*bits=*/7, rows,
                                depth, WeightKernel::kBitSerialWide);
      };
      if (depth == edge) {
        EXPECT_EQ(pack().max_abs_code(), magnitude);
      } else {
        EXPECT_THROW(pack(), check_error)
            << "depth " << depth << " |code| " << magnitude;
      }
    }
  }
}

CSQ_INT_ISA_TEST(LowBitGemm, AlphaPowerOfTwoChain) {
  // The split-layer chain drives the low-bit paths with alpha in {1, 2} and
  // the |alpha| <= 8 headroom documented at the entry points.
  Rng rng(4203);
  const std::int64_t m = 9, n = 11, k = 37;
  const auto a = random_s8(m * k, rng, 16);
  const auto b = random_u8(k * n, rng);
  for (const std::int32_t alpha : {1, 2, 4, 8}) {
    std::vector<std::int32_t> expected(static_cast<std::size_t>(m * n));
    std::vector<std::int32_t> actual(static_cast<std::size_t>(m * n));
    reference_s8u8(Trans::no, m, n, k, alpha, a.data(), b.data(), n,
                   /*accumulate=*/false, expected);
    run_quad(QuadPath::kLowBit, Trans::no, m, n, k, alpha, a.data(), b.data(),
             n, /*accumulate=*/false, /*pooled=*/false, actual);
    EXPECT_EQ(expected, actual) << "alpha=" << alpha;
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

std::vector<std::uint8_t> pack_codes(PackedKernel kind, std::int64_t m,
                                     std::int64_t k,
                                     const std::vector<std::int8_t>& a) {
  std::vector<std::uint8_t> packed(
      static_cast<std::size_t>(gemm_packed_a_bytes(kind, m, k)));
  gemm_pack_a(kind, m, k, a.data(), k, packed.data());
  return packed;
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
// chain: a hi plane of -128 or 127 (alpha 2, overwrite), a lo plane of 1
// (alpha 1, accumulate) and activations 255 at the deepest legal
// reduction, where the int32 headroom is tightest (255 * 255 * 32767 <
// 2^31 - 1). 17 x 33 has full tiles (alpha 2 through the stack tile, the
// alpha-1 pass loading and storing C in place) and edge tiles.
TEST(GemmIsa, AmxS8U8SplitChainAtInt8ExtremesMatchesReference) {
  const std::string skip = amx_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  const ScopedGemmIntIsaForTest forced(GemmIntIsa::kAmx);
  const std::int64_t m = 17, n = 33, k = kMaxDepth;
  const std::vector<std::uint8_t> b(static_cast<std::size_t>(k * n), 255);
  const auto lo = pack_codes(PackedKernel::kS8U8, m, k,
                             std::vector<std::int8_t>(
                                 static_cast<std::size_t>(m * k), 1));
  for (const std::int32_t hi_code : {-128, 127}) {
    const auto hi = pack_codes(
        PackedKernel::kS8U8, m, k,
        std::vector<std::int8_t>(static_cast<std::size_t>(m * k),
                                 static_cast<std::int8_t>(hi_code)));
    for (const bool pooled : {false, true}) {
      std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), -1);
      gemm_packed(PackedKernel::kS8U8, Trans::no, m, n, k, 2, hi.data(),
                  b.data(), n, /*accumulate=*/false, c.data(), n,
                  GemmExec{pooled});
      gemm_packed(PackedKernel::kS8U8, Trans::no, m, n, k, 1, lo.data(),
                  b.data(), n, /*accumulate=*/true, c.data(), n,
                  GemmExec{pooled});
      const std::int64_t expected = (2 * std::int64_t{hi_code} + 1) * 255 * k;
      for (const std::int32_t v : c) {
        ASSERT_EQ(v, expected) << "hi " << hi_code << " pooled " << pooled;
      }
    }
  }
}

// The two ISAs' accumulators compared directly: every kind (s8u8 as its
// split chain: alpha 2 overwrite, then alpha 1 accumulate) through
// gemm_packed (NN over two MC row tiles, and Trans::yes at m = 10, below
// one 16-row tile) under row, column and grid splits, and gemm_conv_nhwc
// over the same padded 3x3 conv, serial and pooled: every grid position,
// the discarded ones included, is a function of the operands alone.
TEST(GemmIsa, AmxAndAvx2AccumulatorsAreBitIdentical) {
  const std::string skip = amx_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  ConvGeometry geom;
  geom.channels = 16;
  geom.height = geom.width = 9;
  geom.kernel_h = geom.kernel_w = 3;
  geom.pad = 1;
  geom.validate();
  const std::int64_t m = 70, m_t = 10, k = geom.col_rows(),
                     n = geom.col_cols();
  Rng rng(4402);
  const auto image = random_u8(geom.channels * geom.height * geom.width, rng);
  const testing::NhwcImage padded = testing::conv_input(
      geom, m, image.data(), geom.pad, /*fill=*/19, /*tail_fill=*/0xEE);
  const ConvGrid grid = gemm_conv_grid(geom, padded.pitch, m);
  std::vector<std::uint8_t> columns(static_cast<std::size_t>(k * n));
  im2col_u8(geom, image.data(), columns.data(), /*pad_code=*/19);
  // columnsᵀ: n x k, so op(B) = its transpose is the same k x n matrix.
  std::vector<std::uint8_t> rows(columns.size());
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) {
      rows[static_cast<std::size_t>(j * k + p)] =
          columns[static_cast<std::size_t>(p * n + j)];
    }
  }
  const GemmExec execs[] = {GemmExec{}, GemmExec{true, GemmSplit::kRows, 2},
                            GemmExec{true, GemmSplit::kCols, 4},
                            GemmExec{true, GemmSplit::kGrid, 2}};
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
    const std::int32_t alpha = split ? 2 : 1;
    const auto accumulators = [&](GemmIntIsa isa) {
      const ScopedGemmIntIsaForTest forced(isa);
      const auto hi_panels = pack_codes(kind, m, k, hi);
      const auto lo_panels = pack_codes(kind, m, k, lo);
      const auto hi_conv = testing::pack_conv_codes(kind, geom, m, hi);
      const auto lo_conv = testing::pack_conv_codes(kind, geom, m, lo);
      const std::vector<std::int8_t> hi_t(hi.begin(), hi.begin() + m_t * k);
      const std::vector<std::int8_t> lo_t(lo.begin(), lo.begin() + m_t * k);
      const auto hi_t_panels = pack_codes(kind, m_t, k, hi_t);
      const auto lo_t_panels = pack_codes(kind, m_t, k, lo_t);
      std::vector<std::int32_t> all;
      for (const GemmExec& exec : execs) {
        std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
        std::vector<std::int32_t> conv(
            static_cast<std::size_t>(grid.rows * grid.ldc));
        std::vector<std::int32_t> c_t(static_cast<std::size_t>(m_t * n));
        gemm_packed(kind, Trans::no, m, n, k, alpha, hi_panels.data(),
                    columns.data(), n, /*accumulate=*/false, c.data(), n,
                    exec);
        gemm_packed(kind, Trans::yes, m_t, n, k, alpha, hi_t_panels.data(),
                    rows.data(), k, /*accumulate=*/false, c_t.data(), n,
                    exec);
        gemm_conv_nhwc(kind, geom, padded.pitch, m, hi_conv.data(),
                       split ? lo_conv.data() : nullptr, /*batch=*/1,
                       padded.origin(geom.pad), 0, conv.data(), 0,
                       exec.pooled);
        if (split) {
          gemm_packed(kind, Trans::no, m, n, k, 1, lo_panels.data(),
                      columns.data(), n, /*accumulate=*/true, c.data(), n,
                      exec);
          gemm_packed(kind, Trans::yes, m_t, n, k, 1, lo_t_panels.data(),
                      rows.data(), k, /*accumulate=*/true, c_t.data(), n,
                      exec);
        }
        all.insert(all.end(), c.begin(), c.end());
        all.insert(all.end(), c_t.begin(), c_t.end());
        all.insert(all.end(), conv.begin(), conv.end());
      }
      return all;
    };
    EXPECT_EQ(accumulators(GemmIntIsa::kAmx), accumulators(GemmIntIsa::kAvx2))
        << "kind " << static_cast<int>(kind);
  }
}

// Panels record the ISA, kind and shape they were packed for. Running them
// as anything else fails a check instead of reading another layout's bytes.
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
  const auto run = [&](PackedKernel kind, const std::vector<std::uint8_t>& a,
                       std::int64_t rows) {
    gemm_packed(kind, Trans::no, rows, n, k, 1, a.data(), b.data(), n,
                /*accumulate=*/false, c.data(), n);
  };
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
  const auto s8u8 = pack_codes(PackedKernel::kS8U8, m, k, codes);
  const auto lowbit = pack_codes(PackedKernel::kLowBit, m, k, codes);
  EXPECT_NO_THROW(run(PackedKernel::kS8U8, s8u8, m));
  EXPECT_THROW(run(PackedKernel::kLowBit, s8u8, m), check_error);
  EXPECT_THROW(run(PackedKernel::kS8U8, lowbit, m), check_error);
  EXPECT_THROW(run(PackedKernel::kS8U8, s8u8, m - 1), check_error);
  EXPECT_NO_THROW(run_conv(PackedKernel::kLowBit,
                           pack_conv(PackedKernel::kLowBit)));
  EXPECT_THROW(run_conv(PackedKernel::kLowBitWide,
                        pack_conv(PackedKernel::kLowBit)),
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
    const auto amx = pack_codes(kind, m, k, codes);
    const auto amx_conv = pack_conv(kind);
    const runtime::PackedIntWeights amx_layer(
        layer_codes, /*step=*/0.01f, /*bits=*/2, m, k,
        static_cast<WeightKernel>(kind));
    std::vector<std::uint8_t> avx2, avx2_conv;
    {
      const ScopedGemmIntIsaForTest forced(GemmIntIsa::kAvx2);
      avx2 = pack_codes(kind, m, k, codes);
      avx2_conv = pack_conv(kind);
      EXPECT_NO_THROW(run(kind, avx2, m));
      EXPECT_NO_THROW(run_conv(kind, avx2_conv));
      EXPECT_THROW(run(kind, amx, m), check_error);
      EXPECT_THROW(run_conv(kind, amx_conv), check_error);
      EXPECT_THROW(amx_layer.gemm(Trans::no, n, b.data(), n, c.data(), n,
                                   /*pooled=*/false),
                   check_error);
    }
    EXPECT_NO_THROW(run(kind, amx, m));
    EXPECT_NO_THROW(run_conv(kind, amx_conv));
    EXPECT_THROW(run(kind, avx2, m), check_error);
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
