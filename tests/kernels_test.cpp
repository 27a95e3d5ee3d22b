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
//    bit-identity across every forced kernel kind.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/packed_weights.h"
#include "tensor/gemm.h"
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
TEST(LowBitGemm, MatchesExactReferenceAcrossShapesAndModes) {
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

TEST(LowBitGemm, WorstCaseOperandsAtHeadroomEdgesMatchReference) {
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

TEST(LowBitGemm, ForcedWideKernelThrowsPastEligibilityEdges) {
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

TEST(LowBitGemm, AlphaPowerOfTwoChain) {
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
