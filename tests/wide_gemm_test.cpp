// Wide-N GEMM parallelism tests: the column-panel (kCols) and 2-D grid
// (kGrid) pooled decompositions.
//
//  * split-policy pins: gemm_choose_split / gemm_split_task_count for the
//    shapes the policy exists for — a wide-N GEMM with m as small as 1 (or
//    the m=2 batch loops the serial_threshold audit flagged) must schedule
//    more than one task, while tall-M shapes keep the classic row split.
//    The pins count kGemmNR-wide (8-column) panels, the width of the float
//    and AVX2/portable integer kernels; the AMX kernel runs the same policy
//    over its 16-column panels, which the integer bit-identity cells below
//    exercise on AMX hosts;
//  * float bit-identity: serial gemm vs pooled gemm under every forced
//    split mode at 1/2/4/8-way grids, all three transpose forms, beta and
//    alpha variations — exact equality, per the determinism contract;
//  * integer bit-identity: the s8u8, low-bit K-quad and int16-accumulator
//    wide kernels against the exact int64 reference AND their
//    serial runs under forced column/grid splits, including the split-plane
//    alpha chain;
//  * PackedIntWeights::gemm wide-N dispatch: pooled vs serial bit-identity
//    for a split (hi/lo chained) layer at batch-1-like wide-N shapes.
//
// The GemmExec ways override decouples the task grid from the physical thread
// count, so these tests exercise real 2/4/8-way decompositions even on a
// single-hardware-thread runner — bit-identity is a property of the grid,
// not of how many workers drain it.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/packed_weights.h"
#include "tensor/gemm.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace csq {
namespace {

using runtime::PackedIntWeights;
using runtime::WeightKernel;

std::vector<float> random_f32(std::int64_t count, Rng& rng) {
  std::vector<float> values(static_cast<std::size_t>(count));
  for (auto& v : values) v = rng.uniform(-1.0f, 1.0f);
  return values;
}

std::vector<std::int8_t> random_s8(std::int64_t count, Rng& rng,
                                   int magnitude) {
  std::vector<std::int8_t> values(static_cast<std::size_t>(count));
  for (auto& v : values) {
    v = static_cast<std::int8_t>(rng.uniform(
        -static_cast<float>(magnitude), static_cast<float>(magnitude)));
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

// A (m x k) code matrix packed into `kind`'s panel layout.
std::vector<std::uint8_t> pack(PackedKernel kind, std::int64_t m,
                               std::int64_t k,
                               const std::vector<std::int8_t>& a) {
  std::vector<std::uint8_t> packed(
      static_cast<std::size_t>(gemm_packed_a_bytes(kind, m, k)));
  gemm_pack_a(kind, m, k, a.data(), k, packed.data());
  return packed;
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
        const std::int64_t bv =
            trans_b == Trans::no ? b[p * ldb + j] : b[j * ldb + p];
        acc += static_cast<std::int64_t>(a[i * k + p]) * bv;
      }
      auto& dst = c[static_cast<std::size_t>(i * n + j)];
      dst = static_cast<std::int32_t>((accumulate ? dst : 0) + alpha * acc);
    }
  }
}

const GemmSplit kForcedSplits[] = {GemmSplit::kAuto, GemmSplit::kCols,
                                   GemmSplit::kGrid};
const int kWays[] = {1, 2, 4, 8};

// ------------------------------------------------------- split policy ----
//
// Every count here is of 8-column (kGemmNR) panels.

TEST(WideGemm, ChoosesColumnSplitForWideSmallM) {
  // The head-matmul family: one row tile, many column panels.
  EXPECT_EQ(gemm_choose_split(1, 512, 4), GemmSplit::kCols);
  EXPECT_EQ(gemm_choose_split(1, 1000, 8), GemmSplit::kCols);
  EXPECT_EQ(gemm_choose_split(8, 1000, 4), GemmSplit::kCols);
  EXPECT_EQ(gemm_choose_split(64, 512, 2), GemmSplit::kCols);
  // ... and they schedule real parallelism: ways tasks when the panels
  // allow it.
  EXPECT_EQ(gemm_split_task_count(GemmSplit::kAuto, 1, 512, 4), 4);
  EXPECT_EQ(gemm_split_task_count(GemmSplit::kAuto, 1, 1000, 8), 8);
}

TEST(WideGemm, SerialThresholdAuditPin) {
  // parallel_for's serial_threshold == 2 means an m==2 batch loop runs on
  // the calling thread — which is only correct because each sample's GEMM
  // can itself fan out. Pin the policy half of that argument: the m=2
  // wide-N GEMM the ConvOp/LinearOp batch loops hand us takes the column
  // split and schedules more than one task. If this pin breaks, a 2-sample
  // batch silently serializes end to end.
  EXPECT_EQ(gemm_choose_split(2, 1000, 4), GemmSplit::kCols);
  EXPECT_GT(gemm_split_task_count(GemmSplit::kAuto, 2, 1000, 4), 1);
  EXPECT_GT(gemm_split_task_count(GemmSplit::kAuto, 2, 512, 2), 1);
}

TEST(WideGemm, KeepsRowSplitWhereItAlreadyFillsThePool) {
  // Tall-M shapes: the classic MC row split already yields >= ways tasks.
  EXPECT_EQ(gemm_choose_split(256, 1000, 4), GemmSplit::kRows);
  EXPECT_EQ(gemm_split_task_count(GemmSplit::kAuto, 256, 1000, 4), 4);
  // One worker, or a single 8-wide column panel: nothing to column-split.
  EXPECT_EQ(gemm_choose_split(2, 1000, 1), GemmSplit::kRows);
  EXPECT_EQ(gemm_choose_split(8, 8, 4), GemmSplit::kRows);
}

TEST(WideGemm, ChoosesGridWhenBothDimensionsAreMedium) {
  // 2 row tiles, 8 workers: rows alone leave 6 workers idle, columns alone
  // ignore the row tiles -> 2-D grid.
  EXPECT_EQ(gemm_choose_split(128, 2048, 8), GemmSplit::kGrid);
  EXPECT_EQ(gemm_split_task_count(GemmSplit::kAuto, 128, 2048, 8), 8);
}

TEST(WideGemm, StripesAreCappedAtNcColumns) {
  // A 2-way split of 4096 columns would make 2048-column stripes; the
  // driver caps stripes at kGemmNC and schedules more tasks instead, so
  // the per-task packed-B footprint never exceeds the serial path's.
  EXPECT_EQ(gemm_split_task_count(GemmSplit::kCols, 64, 4096, 2), 4);
}

// -------------------------------------------------- float bit-identity ---

void run_float_case(Trans trans_a, Trans trans_b, std::int64_t m,
                    std::int64_t n, std::int64_t k, float alpha, float beta) {
  Rng rng(9000 + static_cast<std::uint64_t>(m * 131 + n * 7 + k));
  const auto a = random_f32(m * k, rng);
  const auto b = random_f32(k * n, rng);
  const auto c0 = random_f32(m * n, rng);
  const std::int64_t lda = trans_a == Trans::no ? k : m;
  const std::int64_t ldb = trans_b == Trans::no ? n : k;

  std::vector<float> expected = c0;
  gemm(trans_a, trans_b, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
       expected.data(), n);

  for (const GemmSplit split : kForcedSplits) {
    for (const int ways : kWays) {
      std::vector<float> actual = c0;
      gemm(trans_a, trans_b, m, n, k, alpha, a.data(), lda, b.data(), ldb,
           beta, actual.data(), n, /*scratch=*/nullptr,
           GemmExec{/*pooled=*/true, split, ways});
      ASSERT_EQ(std::memcmp(actual.data(), expected.data(),
                            actual.size() * sizeof(float)),
                0)
          << "m=" << m << " n=" << n << " k=" << k
          << " split=" << static_cast<int>(split) << " ways=" << ways
          << " beta=" << beta;
    }
  }
}

TEST(WideGemm, FloatColumnAndGridSplitsAreBitIdentical) {
  // k=300 crosses a KC boundary (two pc panels); n=1000 leaves a short
  // final NR panel and a short final stripe. 2*m*n*k clears the pooled
  // dispatch gate for every shape here, so the grid drivers really run.
  for (const std::int64_t m : {1, 2, 8}) {
    for (const std::int64_t n : {512, 1000}) {
      run_float_case(Trans::no, Trans::no, m, n, 300, 1.0f, 0.0f);
    }
  }
  // Transpose forms + alpha/beta blending on one wide shape each.
  run_float_case(Trans::no, Trans::yes, 2, 1000, 300, 1.25f, 0.5f);
  run_float_case(Trans::yes, Trans::no, 8, 512, 300, -0.75f, 1.0f);
  run_float_case(Trans::no, Trans::no, 1, 1000, 513, 1.0f, 0.5f);
}

TEST(WideGemm, FloatGridSplitCoversMultipleRowTiles) {
  // Two MC row tiles x column stripes: the true 2-D grid (row groups > 1).
  run_float_case(Trans::no, Trans::no, 80, 1000, 300, 1.0f, 0.0f);
  run_float_case(Trans::yes, Trans::no, 80, 512, 300, 1.5f, 0.25f);
  run_float_case(Trans::no, Trans::no, 130, 2048, 64, 1.0f, 0.0f);
}

// ------------------------------------------------ integer bit-identity ---

struct IntCase {
  std::int64_t m, n, k;
};

const IntCase kIntCases[] = {{1, 512, 300}, {2, 1000, 300}, {8, 1000, 300},
                             {80, 1000, 256}};

CSQ_INT_ISA_TEST(WideGemm, S8U8ColumnAndGridSplitsMatchReference) {
  Rng rng(9100);
  for (const IntCase& tc : kIntCases) {
    for (const Trans trans_b : {Trans::no, Trans::yes}) {
      const auto a = random_s8(tc.m * tc.k, rng, 127);
      const auto b = random_u8(tc.k * tc.n, rng);
      const std::int64_t ldb = trans_b == Trans::no ? tc.n : tc.k;
      std::vector<std::int32_t> expected(
          static_cast<std::size_t>(tc.m * tc.n));
      reference_s8u8(trans_b, tc.m, tc.n, tc.k, 1, a.data(), b.data(), ldb,
                     false, expected);
      const auto packed = pack(PackedKernel::kS8U8, tc.m, tc.k, a);
      std::vector<std::int32_t> serial(expected.size(), -1);
      gemm_packed(PackedKernel::kS8U8, trans_b, tc.m, tc.n, tc.k, 1,
                  packed.data(), b.data(), ldb, false, serial.data(), tc.n);
      ASSERT_EQ(serial, expected);
      for (const GemmSplit split : kForcedSplits) {
        for (const int ways : kWays) {
          std::vector<std::int32_t> actual(expected.size(), -1);
          gemm_packed(PackedKernel::kS8U8, trans_b, tc.m, tc.n, tc.k, 1,
                      packed.data(), b.data(), ldb, false, actual.data(),
                      tc.n, GemmExec{/*pooled=*/true, split, ways});
          ASSERT_EQ(actual, expected)
              << "m=" << tc.m << " n=" << tc.n
              << " split=" << static_cast<int>(split) << " ways=" << ways;
        }
      }
    }
  }
}

CSQ_INT_ISA_TEST(WideGemm, S8U8PrepackedSplitsMatchSerial) {
  Rng rng(9200);
  for (const IntCase& tc : kIntCases) {
    const auto a = random_s8(tc.m * tc.k, rng, 127);
    const auto b = random_u8(tc.k * tc.n, rng);
    const auto packed = pack(PackedKernel::kS8U8, tc.m, tc.k, a);
    // accumulate=true also exercises the add-into-C handoff at pc == 0.
    for (const bool accumulate : {false, true}) {
      std::vector<std::int32_t> expected(
          static_cast<std::size_t>(tc.m * tc.n), 3);
      gemm_packed(PackedKernel::kS8U8, Trans::no, tc.m, tc.n, tc.k, 1,
                  packed.data(), b.data(), tc.n, accumulate, expected.data(),
                  tc.n);
      for (const GemmSplit split : kForcedSplits) {
        for (const int ways : kWays) {
          std::vector<std::int32_t> actual(
              static_cast<std::size_t>(tc.m * tc.n), 3);
          gemm_packed(PackedKernel::kS8U8, Trans::no, tc.m, tc.n, tc.k, 1,
                      packed.data(), b.data(), tc.n, accumulate,
                      actual.data(), tc.n,
                      GemmExec{/*pooled=*/true, split, ways});
          ASSERT_EQ(actual, expected)
              << "m=" << tc.m << " n=" << tc.n << " accumulate=" << accumulate
              << " split=" << static_cast<int>(split) << " ways=" << ways;
        }
      }
    }
  }
}

CSQ_INT_ISA_TEST(WideGemm, LowBitSplitsMatchReferenceAcrossAlphaChain) {
  Rng rng(9300);
  for (const IntCase& tc : kIntCases) {
    const auto a = random_s8(tc.m * tc.k, rng, 64);  // kernel bound |a|<=64
    const auto b = random_u8(tc.k * tc.n, rng);
    const auto packed = pack(PackedKernel::kLowBit, tc.m, tc.k, a);
    // The split-plane chain: alpha=2 overwrite, then alpha=1 accumulate —
    // the exact call sequence PackedIntWeights issues for hi/lo layers.
    std::vector<std::int32_t> expected(static_cast<std::size_t>(tc.m * tc.n));
    reference_s8u8(Trans::no, tc.m, tc.n, tc.k, 2, a.data(), b.data(), tc.n,
                   false, expected);
    reference_s8u8(Trans::no, tc.m, tc.n, tc.k, 1, a.data(), b.data(), tc.n,
                   true, expected);
    for (const GemmSplit split : kForcedSplits) {
      for (const int ways : kWays) {
        std::vector<std::int32_t> actual(expected.size(), -1);
        gemm_packed(PackedKernel::kLowBit, Trans::no, tc.m, tc.n, tc.k, 2,
                    packed.data(), b.data(), tc.n, false, actual.data(), tc.n,
                    GemmExec{/*pooled=*/true, split, ways});
        gemm_packed(PackedKernel::kLowBit, Trans::no, tc.m, tc.n, tc.k, 1,
                    packed.data(), b.data(), tc.n, true, actual.data(), tc.n,
                    GemmExec{/*pooled=*/true, split, ways});
        ASSERT_EQ(actual, expected)
            << "m=" << tc.m << " n=" << tc.n
            << " split=" << static_cast<int>(split) << " ways=" << ways;
      }
    }
  }
}

CSQ_INT_ISA_TEST(WideGemm, LowBitWideSplitsMatchReference) {
  // int16 accumulation: only exact for codes the eligibility bound admits
  // at this depth — binary +/-1 layers qualify at every tested k.
  Rng rng(9400);
  for (const IntCase& tc : kIntCases) {
    ASSERT_TRUE(gemm_s8u8_wide_eligible(tc.k, 1));
    const auto a = random_s8(tc.m * tc.k, rng, 1);
    const auto b = random_u8(tc.k * tc.n, rng);
    const auto packed = pack(PackedKernel::kLowBitWide, tc.m, tc.k, a);
    std::vector<std::int32_t> expected(static_cast<std::size_t>(tc.m * tc.n));
    reference_s8u8(Trans::no, tc.m, tc.n, tc.k, 1, a.data(), b.data(), tc.n,
                   false, expected);
    for (const GemmSplit split : kForcedSplits) {
      for (const int ways : kWays) {
        std::vector<std::int32_t> actual(expected.size(), -1);
        gemm_packed(PackedKernel::kLowBitWide, Trans::no, tc.m, tc.n, tc.k,
                    1, packed.data(), b.data(), tc.n, false, actual.data(),
                    tc.n, GemmExec{/*pooled=*/true, split, ways});
        ASSERT_EQ(actual, expected)
            << "m=" << tc.m << " n=" << tc.n
            << " split=" << static_cast<int>(split) << " ways=" << ways;
      }
    }
  }
}

CSQ_INT_ISA_TEST(WideGemm, PackedWeightsWideNDispatchIsBitIdentical) {
  // The serving entry point: a split (hi/lo alpha-chained) s8u8 layer at a
  // wide-N activation shape. kAuto must resolve to the column split and
  // stay bit-identical to the serial path.
  Rng rng(9600);
  const std::int64_t rows = 8, cols = 300, n = 1000;
  std::vector<std::int32_t> codes(static_cast<std::size_t>(rows * cols));
  for (auto& code : codes) {
    code = static_cast<std::int32_t>(rng.uniform(-255.0f, 255.0f));
  }
  codes[0] = 255;  // odd max |code| > 127: shift=0, hi/lo split forced
  const PackedIntWeights weights(codes, /*step=*/0.5f, /*bits=*/8, rows, cols,
                                 WeightKernel::kS8U8);
  ASSERT_TRUE(weights.split());
  const auto b = random_u8(cols * n, rng);

  std::vector<std::int32_t> serial(static_cast<std::size_t>(rows * n), -1);
  weights.gemm(Trans::no, n, b.data(), n, serial.data(), n, /*pooled=*/false);
  for (const GemmSplit split : kForcedSplits) {
    std::vector<std::int32_t> pooled(serial.size(), -1);
    weights.gemm(Trans::no, n, b.data(), n, pooled.data(), n,
                 GemmExec{/*pooled=*/true, split});
    ASSERT_EQ(pooled, serial) << "split=" << static_cast<int>(split);
  }
}

}  // namespace
}  // namespace csq
