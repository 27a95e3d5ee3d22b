// Tests for src/tensor: Tensor semantics, elementwise ops, GEMM kernels
// against a naive reference, im2col/col2im adjointness, initializers.
#include <cmath>
#include <cstring>
#include <tuple>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "test_helpers.h"
#include "util/check.h"

namespace csq {
namespace {

using testing::random_tensor;

TEST(Tensor, ConstructionZeroFills) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FromDataAndAt) {
  Tensor t = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({0, 1}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_EQ(t.at({1, 1}), 4.0f);
}

TEST(Tensor, FromDataSizeMismatchThrows) {
  EXPECT_THROW(Tensor::from_data({2, 2}, {1.0f}), check_error);
}

TEST(Tensor, AtOutOfRangeThrows) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at({2, 0}), check_error);
  EXPECT_THROW(t.at({0, -1}), check_error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at({2, 1}), 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), check_error);
}

TEST(Tensor, CopyIsDeep) {
  Tensor a = Tensor::full({3}, 1.0f);
  Tensor b = a;
  b[0] = 9.0f;
  EXPECT_EQ(a[0], 1.0f);
}

TEST(TensorOps, AddSubMul) {
  Tensor a = Tensor::from_data({3}, {1, 2, 3});
  Tensor b = Tensor::from_data({3}, {4, 5, 6});
  EXPECT_EQ(add(a, b)[1], 7.0f);
  EXPECT_EQ(sub(b, a)[2], 3.0f);
  EXPECT_EQ(mul(a, b)[0], 4.0f);
  EXPECT_THROW(add(a, Tensor({4})), check_error);
}

TEST(TensorOps, Reductions) {
  Tensor a = Tensor::from_data({4}, {-3, 1, 2, 0});
  EXPECT_FLOAT_EQ(sum(a), 0.0f);
  EXPECT_FLOAT_EQ(mean(a), 0.0f);
  EXPECT_FLOAT_EQ(max_abs(a), 3.0f);
  EXPECT_FLOAT_EQ(min_value(a), -3.0f);
  EXPECT_FLOAT_EQ(max_value(a), 2.0f);
  EXPECT_FLOAT_EQ(squared_norm(a), 14.0f);
}

TEST(TensorOps, Argmax) {
  const float values[] = {0.5f, 2.0f, -1.0f, 2.0f};
  EXPECT_EQ(argmax(values, 4), 1);  // first maximum wins
}

TEST(TensorOps, MaxAbsDiff) {
  Tensor a = Tensor::from_data({2}, {1, 5});
  Tensor b = Tensor::from_data({2}, {2, 3});
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 2.0f);
}

// ---------------------------------------------------------------- GEMM --

// Naive triple-loop reference.
void reference_gemm(Trans trans_a, Trans trans_b, std::int64_t m,
                    std::int64_t n, std::int64_t k, float alpha,
                    const float* a, std::int64_t lda, const float* b,
                    std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = trans_a == Trans::no ? a[i * lda + p] : a[p * lda + i];
        const float bv = trans_b == Trans::no ? b[p * ldb + j] : b[j * ldb + p];
        acc += static_cast<double>(av) * bv;
      }
      c[i * ldc + j] = beta * c[i * ldc + j] + alpha * static_cast<float>(acc);
    }
  }
}

struct GemmCase {
  Trans trans_a;
  Trans trans_b;
  std::int64_t m, n, k;
  float alpha, beta;
};

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesNaiveReference) {
  const GemmCase& c = GetParam();
  Rng rng(42);
  const std::int64_t a_rows = c.trans_a == Trans::no ? c.m : c.k;
  const std::int64_t a_cols = c.trans_a == Trans::no ? c.k : c.m;
  const std::int64_t b_rows = c.trans_b == Trans::no ? c.k : c.n;
  const std::int64_t b_cols = c.trans_b == Trans::no ? c.n : c.k;

  Tensor a = random_tensor({a_rows, a_cols}, rng);
  Tensor b = random_tensor({b_rows, b_cols}, rng);
  Tensor out = random_tensor({c.m, c.n}, rng);
  Tensor expected = out;

  gemm(c.trans_a, c.trans_b, c.m, c.n, c.k, c.alpha, a.data(), a_cols,
       b.data(), b_cols, c.beta, out.data(), c.n);
  reference_gemm(c.trans_a, c.trans_b, c.m, c.n, c.k, c.alpha, a.data(),
                 a_cols, b.data(), b_cols, c.beta, expected.data(), c.n);
  EXPECT_LT(max_abs_diff(out, expected), 1e-3f);
}

TEST_P(GemmParamTest, ParallelMatchesSerial) {
  const GemmCase& c = GetParam();
  Rng rng(43);
  const std::int64_t a_rows = c.trans_a == Trans::no ? c.m : c.k;
  const std::int64_t a_cols = c.trans_a == Trans::no ? c.k : c.m;
  const std::int64_t b_rows = c.trans_b == Trans::no ? c.k : c.n;
  const std::int64_t b_cols = c.trans_b == Trans::no ? c.n : c.k;

  Tensor a = random_tensor({a_rows, a_cols}, rng);
  Tensor b = random_tensor({b_rows, b_cols}, rng);
  Tensor serial = random_tensor({c.m, c.n}, rng);
  Tensor parallel = serial;

  gemm(c.trans_a, c.trans_b, c.m, c.n, c.k, c.alpha, a.data(), a_cols,
       b.data(), b_cols, c.beta, serial.data(), c.n);
  gemm(c.trans_a, c.trans_b, c.m, c.n, c.k, c.alpha, a.data(), a_cols,
       b.data(), b_cols, c.beta, parallel.data(), c.n, /*scratch=*/nullptr,
       GemmExec{/*pooled=*/true});
  EXPECT_LT(max_abs_diff(serial, parallel), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParamTest,
    ::testing::Values(
        GemmCase{Trans::no, Trans::no, 3, 4, 5, 1.0f, 0.0f},
        GemmCase{Trans::no, Trans::no, 17, 9, 31, 0.5f, 1.0f},
        GemmCase{Trans::no, Trans::no, 64, 64, 64, 1.0f, 0.0f},
        GemmCase{Trans::no, Trans::yes, 3, 4, 5, 1.0f, 0.0f},
        GemmCase{Trans::no, Trans::yes, 21, 13, 40, -1.0f, 0.5f},
        GemmCase{Trans::no, Trans::yes, 50, 10, 128, 1.0f, 0.0f},
        GemmCase{Trans::yes, Trans::no, 3, 4, 5, 1.0f, 0.0f},
        GemmCase{Trans::yes, Trans::no, 23, 17, 29, 2.0f, 1.0f},
        GemmCase{Trans::yes, Trans::no, 72, 256, 8, 1.0f, 0.0f},
        GemmCase{Trans::no, Trans::no, 1, 1, 1, 1.0f, 0.0f},
        GemmCase{Trans::no, Trans::no, 5, 7, 0, 1.0f, 0.5f}));

// Blocked-kernel parity sweep: every transpose variant against the naive
// reference over odd/prime/tile-straddling extents (1 and 3 exercise the
// zero-padded packing tails, 17 a partial micro-tile, 64 exact MC/tile
// multiples, 129 a blocked edge one past 2*MC), with alpha/beta cycling
// through {0, 1, 0.5}.
TEST(GemmBlockedParity, MatchesNaiveAcrossExtentGrid) {
  const std::int64_t extents[] = {1, 3, 17, 64, 129};
  const float coeffs[] = {0.0f, 1.0f, 0.5f};
  const std::pair<Trans, Trans> variants[] = {
      {Trans::no, Trans::no}, {Trans::no, Trans::yes}, {Trans::yes, Trans::no}};
  Rng rng(1234);
  for (const auto& [trans_a, trans_b] : variants) {
    int combo = 0;
    for (const std::int64_t m : extents) {
      for (const std::int64_t n : extents) {
        for (const std::int64_t k : extents) {
          const float alpha = coeffs[combo % 3];
          const float beta = coeffs[(combo / 3) % 3];
          ++combo;
          const std::int64_t a_rows = trans_a == Trans::no ? m : k;
          const std::int64_t a_cols = trans_a == Trans::no ? k : m;
          const std::int64_t b_rows = trans_b == Trans::no ? k : n;
          const std::int64_t b_cols = trans_b == Trans::no ? n : k;
          Tensor a = random_tensor({a_rows, a_cols}, rng);
          Tensor b = random_tensor({b_rows, b_cols}, rng);
          Tensor out = random_tensor({m, n}, rng);
          Tensor expected = out;
          gemm(trans_a, trans_b, m, n, k, alpha, a.data(), a_cols, b.data(),
               b_cols, beta, out.data(), n);
          reference_gemm(trans_a, trans_b, m, n, k, alpha, a.data(), a_cols,
                         b.data(), b_cols, beta, expected.data(), n);
          ASSERT_LT(max_abs_diff(out, expected), 2e-3f)
              << "ta=" << (trans_a == Trans::yes) << " tb="
              << (trans_b == Trans::yes) << " m=" << m << " n=" << n
              << " k=" << k << " alpha=" << alpha << " beta=" << beta;
        }
      }
    }
  }
}

// Determinism contract (gemm.h): pooled and serial execution must be
// BIT-identical, not merely close — per-element accumulation order is a
// function of the blocking constants only.
TEST(GemmBlockedParity, PooledIsBitIdenticalToSerial) {
  struct Case {
    Trans trans_a, trans_b;
    std::int64_t m, n, k;
    float alpha, beta;
  };
  const Case cases[] = {
      {Trans::no, Trans::no, 256, 256, 256, 1.0f, 0.0f},
      {Trans::no, Trans::no, 129, 200, 300, 0.5f, 1.0f},
      {Trans::no, Trans::yes, 192, 160, 129, 1.0f, 0.5f},
      {Trans::yes, Trans::no, 150, 256, 70, -1.0f, 0.0f},
  };
  Rng rng(77);
  for (const Case& c : cases) {
    const std::int64_t a_rows = c.trans_a == Trans::no ? c.m : c.k;
    const std::int64_t a_cols = c.trans_a == Trans::no ? c.k : c.m;
    const std::int64_t b_rows = c.trans_b == Trans::no ? c.k : c.n;
    const std::int64_t b_cols = c.trans_b == Trans::no ? c.n : c.k;
    Tensor a = random_tensor({a_rows, a_cols}, rng);
    Tensor b = random_tensor({b_rows, b_cols}, rng);
    Tensor serial = random_tensor({c.m, c.n}, rng);
    Tensor pooled = serial;
    gemm(c.trans_a, c.trans_b, c.m, c.n, c.k, c.alpha, a.data(), a_cols,
         b.data(), b_cols, c.beta, serial.data(), c.n);
    gemm(c.trans_a, c.trans_b, c.m, c.n, c.k, c.alpha, a.data(), a_cols,
         b.data(), b_cols, c.beta, pooled.data(), c.n, /*scratch=*/nullptr,
         GemmExec{/*pooled=*/true});
    for (std::int64_t i = 0; i < serial.numel(); ++i) {
      ASSERT_EQ(serial[i], pooled[i])
          << "bit mismatch at " << i << " (m=" << c.m << " n=" << c.n
          << " k=" << c.k << ")";
    }
  }
}

// A caller-provided GemmScratch must yield the same bits as the internal
// thread-local scratch (the packing layout is scratch-independent).
TEST(GemmBlockedParity, ExternalScratchMatchesThreadLocal) {
  Rng rng(88);
  Tensor a = random_tensor({100, 129}, rng);
  Tensor b = random_tensor({129, 90}, rng);
  Tensor c1({100, 90});
  Tensor c2({100, 90});
  GemmScratch scratch;
  gemm(Trans::no, Trans::no, 100, 90, 129, 1.0f, a.data(), 129, b.data(), 90,
       0.0f, c1.data(), 90);
  gemm(Trans::no, Trans::no, 100, 90, 129, 1.0f, a.data(), 129, b.data(), 90,
       0.0f, c2.data(), 90, &scratch);
  for (std::int64_t i = 0; i < c1.numel(); ++i) ASSERT_EQ(c1[i], c2[i]);
  EXPECT_FALSE(scratch.packed_a.empty());
  EXPECT_FALSE(scratch.packed_b.empty());
}

TEST(Gemm, BetaZeroIgnoresGarbageInC) {
  Tensor a = Tensor::full({2, 2}, 1.0f);
  Tensor b = Tensor::full({2, 2}, 1.0f);
  Tensor c = Tensor::from_data({2, 2}, {NAN, NAN, NAN, NAN});
  gemm(Trans::no, Trans::no, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.0f,
       c.data(), 2);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], 2.0f);
}

// -------------------------------------------------------------- im2col --

// Direct convolution reference for one image.
void reference_conv(const ConvGeometry& g, const float* image,
                    const float* weights, std::int64_t out_c, float* out) {
  const std::int64_t out_h = g.out_h(), out_w = g.out_w();
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        double acc = 0.0;
        for (std::int64_t c = 0; c < g.channels; ++c) {
          for (std::int64_t ki = 0; ki < g.kernel_h; ++ki) {
            for (std::int64_t kj = 0; kj < g.kernel_w; ++kj) {
              const std::int64_t iy = oy * g.stride - g.pad + ki;
              const std::int64_t ix = ox * g.stride - g.pad + kj;
              if (iy < 0 || iy >= g.height || ix < 0 || ix >= g.width) continue;
              const float w =
                  weights[((oc * g.channels + c) * g.kernel_h + ki) *
                              g.kernel_w + kj];
              acc += static_cast<double>(w) *
                     image[(c * g.height + iy) * g.width + ix];
            }
          }
        }
        out[(oc * out_h + oy) * out_w + ox] = static_cast<float>(acc);
      }
    }
  }
}

struct ConvCase {
  std::int64_t channels, height, width, kernel, stride, pad;
};

class Im2ColParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Im2ColParamTest, GemmOnColumnsEqualsDirectConvolution) {
  const ConvCase& p = GetParam();
  ConvGeometry g;
  g.channels = p.channels;
  g.height = p.height;
  g.width = p.width;
  g.kernel_h = g.kernel_w = p.kernel;
  g.stride = p.stride;
  g.pad = p.pad;
  g.validate();

  Rng rng(9);
  const std::int64_t out_c = 3;
  Tensor image = random_tensor({g.channels, g.height, g.width}, rng);
  Tensor weights =
      random_tensor({out_c, g.channels, g.kernel_h, g.kernel_w}, rng);

  Tensor col({g.col_rows(), g.col_cols()});
  im2col(g, image.data(), col.data());
  Tensor via_gemm({out_c, g.out_h(), g.out_w()});
  gemm(Trans::no, Trans::no, out_c, g.col_cols(), g.col_rows(), 1.0f,
       weights.data(), g.col_rows(), col.data(), g.col_cols(), 0.0f,
       via_gemm.data(), g.col_cols());

  Tensor direct({out_c, g.out_h(), g.out_w()});
  reference_conv(g, image.data(), weights.data(), out_c, direct.data());
  EXPECT_LT(max_abs_diff(via_gemm, direct), 1e-4f);
}

TEST_P(Im2ColParamTest, Col2ImIsAdjointOfIm2Col) {
  // Adjoint identity: <im2col(x), y> == <x, col2im(y)> for all x, y.
  const ConvCase& p = GetParam();
  ConvGeometry g;
  g.channels = p.channels;
  g.height = p.height;
  g.width = p.width;
  g.kernel_h = g.kernel_w = p.kernel;
  g.stride = p.stride;
  g.pad = p.pad;

  Rng rng(10);
  Tensor x = random_tensor({g.channels, g.height, g.width}, rng);
  Tensor y = random_tensor({g.col_rows(), g.col_cols()}, rng);

  Tensor col({g.col_rows(), g.col_cols()});
  im2col(g, x.data(), col.data());
  Tensor back({g.channels, g.height, g.width});
  col2im(g, y.data(), back.data());

  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < col.numel(); ++i) {
    lhs += static_cast<double>(col[i]) * y[i];
  }
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

const ConvCase kConvCases[] = {
    ConvCase{1, 5, 5, 3, 1, 1}, ConvCase{3, 8, 8, 3, 1, 1},
    ConvCase{2, 7, 9, 3, 2, 1}, ConvCase{4, 6, 6, 1, 1, 0},
    ConvCase{2, 8, 8, 1, 2, 0}, ConvCase{3, 5, 5, 5, 1, 2},
    ConvCase{1, 4, 4, 2, 2, 0}};

INSTANTIATE_TEST_SUITE_P(Geometries, Im2ColParamTest,
                         ::testing::ValuesIn(kConvCases));

// gemm_conv packs B~ from the padded image; every panel must hold the bytes
// packing im2col's matrix gives, so C is bit-equal to gemm() over explicit
// columns — NN (forward) and NT (weight gradient), serial and split across
// column stripes and grid tasks (stripes start mid output row). Beyond the
// Im2ColParamTest geometries: depth past one KC block, more than one MC row
// tile, and (NN) more than kGemmNC output positions.
TEST(ConvGemm, ImplicitMatchesExplicitColumns) {
  std::vector<ConvCase> cases(std::begin(kConvCases), std::end(kConvCases));
  cases.push_back(ConvCase{32, 18, 18, 3, 1, 1});
  cases.push_back(ConvCase{16, 33, 20, 3, 2, 1});
  cases.push_back(ConvCase{2, 36, 40, 3, 1, 0});
  const GemmExec execs[] = {GemmExec{}, GemmExec{true, GemmSplit::kCols, 3},
                            GemmExec{true, GemmSplit::kGrid, 4}};
  Rng rng(12);
  for (const ConvCase& p : cases) {
    ConvGeometry g;
    g.channels = p.channels;
    g.height = p.height;
    g.width = p.width;
    g.kernel_h = g.kernel_w = p.kernel;
    g.stride = p.stride;
    g.pad = p.pad;
    g.validate();
    const std::int64_t k = g.col_rows(), n = g.col_cols();
    Tensor image = random_tensor({g.channels, g.height, g.width}, rng);
    Tensor padded({g.channels, g.padded_h(), g.padded_w()});
    pad_image(g, image.data(), padded.data());
    Tensor col({k, n});
    im2col(g, image.data(), col.data());

    for (const std::int64_t m : {std::int64_t{5}, std::int64_t{70}}) {
      Tensor weights = random_tensor({m, k}, rng);
      Tensor grad_out = random_tensor({m, n}, rng);
      Tensor out_init = random_tensor({m, n}, rng);
      Tensor dw_init = random_tensor({m, k}, rng);
      for (const GemmExec& exec : execs) {
        SCOPED_TRACE(::testing::Message()
                     << "geometry " << p.channels << "x" << p.height << "x"
                     << p.width << " k" << p.kernel << " s" << p.stride
                     << " p" << p.pad << ", m " << m << ", split "
                     << static_cast<int>(exec.split));
        Tensor out_explicit = out_init, out_implicit = out_init;
        gemm(Trans::no, Trans::no, m, n, k, 1.0f, weights.data(), k,
             col.data(), n, 0.5f, out_explicit.data(), n, nullptr, exec);
        gemm_conv(Trans::no, m, 1.0f, weights.data(), k, g, padded.data(),
                  0.5f, out_implicit.data(), n, nullptr, exec);
        EXPECT_EQ(0, std::memcmp(out_explicit.data(), out_implicit.data(),
                                 sizeof(float) * out_init.numel()));

        Tensor dw_explicit = dw_init, dw_implicit = dw_init;
        gemm(Trans::no, Trans::yes, m, k, n, 1.0f, grad_out.data(), n,
             col.data(), n, 1.0f, dw_explicit.data(), k, nullptr, exec);
        gemm_conv(Trans::yes, m, 1.0f, grad_out.data(), n, g, padded.data(),
                  1.0f, dw_implicit.data(), k, nullptr, exec);
        EXPECT_EQ(0, std::memcmp(dw_explicit.data(), dw_implicit.data(),
                                 sizeof(float) * dw_init.numel()));
      }
    }
  }
}

TEST(ConvGeometry, RejectsBadConfigs) {
  ConvGeometry g;
  g.channels = 1;
  g.height = 4;
  g.width = 4;
  g.kernel_h = g.kernel_w = 5;
  g.stride = 1;
  g.pad = 0;
  EXPECT_THROW(g.validate(), check_error);
  g.pad = 2;
  EXPECT_NO_THROW(g.validate());
  g.stride = 0;
  EXPECT_THROW(g.validate(), check_error);
}

// ---------------------------------------------------------------- init --

TEST(Init, HeNormalStatistics) {
  Rng rng(21);
  Tensor w({64, 64});
  fill_he_normal(w, 64, rng);
  const double target_std = std::sqrt(2.0 / 64.0);
  double sum = 0.0, sum_sq = 0.0;
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    sum += w[i];
    sum_sq += static_cast<double>(w[i]) * w[i];
  }
  const double mean_v = sum / w.numel();
  const double std_v = std::sqrt(sum_sq / w.numel() - mean_v * mean_v);
  EXPECT_NEAR(mean_v, 0.0, 0.02);
  EXPECT_NEAR(std_v, target_std, 0.02);
}

TEST(Init, XavierUniformWithinLimit) {
  Rng rng(22);
  Tensor w({32, 32});
  fill_xavier_uniform(w, 32, 32, rng);
  const float limit = std::sqrt(6.0f / 64.0f);
  EXPECT_LE(max_abs(w), limit);
  EXPECT_GT(max_abs(w), 0.8f * limit);  // actually uses the range
}

}  // namespace
}  // namespace csq
