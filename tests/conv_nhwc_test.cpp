// The channels-last integer convolution (gemm_conv_nhwc) against a naive
// int64 convolution of the same bordered image, bit for bit, and the
// requantization of its accumulators (requant_channels, as the compiled
// graph's RequantOp runs it) against the scalar formula.
//
// The geometries are the runtime's: the C = 3 stem, stride 1 and 2, pad 0
// and 1, the 1x1 downsample shortcut reading an edge bordered for its 3x3
// sibling, 16-, 8- and 4-wide outputs, grids whose position count is not a
// multiple of 16 (all but one), output channels that are not a multiple of
// 16 and a border wider than the pad. Every kind and the split chain runs
// at batch 1, 2 and 32, serial and pooled, as one batched call and as the
// sample-major forward's per-sample calls inside a pooled loop, natively
// and (IntegerConvNhwcAvx2) on the forced AVX2 kernels. Samples sit
// further apart than their images, with garbage between them that only
// discarded grid positions read.
//
// The headroom edges: a 1x1 convolution of k channels is the plain
// reduction, driven with worst-case uniform operands to the deepest depth
// the int32 accumulators admit (the split chain at the int8 extremes) and
// to each low-bit |code|'s eligibility edge.
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/packed_weights.h"
#include "runtime/requant.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace csq {
namespace {

struct Geometry {
  std::int64_t channels, height, width, kernel, stride, pad, border, oc;
};

struct Kind {
  const char* name;
  PackedKernel kernel;
  bool split;
};

std::vector<std::int8_t> random_codes(std::int64_t count, int magnitude,
                                      Rng& rng) {
  std::vector<std::int8_t> codes(static_cast<std::size_t>(count));
  for (auto& v : codes) {
    v = static_cast<std::int8_t>(rng.uniform(
        -static_cast<float>(magnitude), static_cast<float>(magnitude) + 1));
  }
  return codes;
}

// Per-channel requantization constants, repeated to lcm(oc, 32) values as
// RequantOp keeps them.
struct Requant {
  std::vector<float> mul1, mul2, add;
  std::int64_t period;
};

Requant random_requant(std::int64_t oc, Rng& rng) {
  Requant q;
  q.period = std::lcm(oc, std::int64_t{32});
  for (std::int64_t i = 0; i < oc; ++i) {
    q.mul1.push_back(rng.uniform(1e-5f, 4e-4f));
    q.mul2.push_back(rng.uniform(0.1f, 2.0f));
    q.add.push_back(rng.uniform(-40.0f, 80.0f));
  }
  for (std::vector<float>* values : {&q.mul1, &q.mul2, &q.add}) {
    values->resize(static_cast<std::size_t>(q.period));
    for (std::int64_t i = oc; i < q.period; ++i) {
      (*values)[static_cast<std::size_t>(i)] =
          (*values)[static_cast<std::size_t>(i % oc)];
    }
  }
  return q;
}

CSQ_INT_ISA_TEST(IntegerConvNhwc, MatchesNaiveReferenceAndRequantizes) {
  const Geometry geometries[] = {
      {3, 16, 16, 3, 1, 1, 1, 16},  {16, 16, 16, 3, 1, 1, 1, 16},
      {16, 16, 16, 3, 2, 1, 1, 32}, {16, 16, 16, 1, 2, 0, 1, 32},
      {32, 8, 8, 3, 1, 1, 1, 32},   {32, 8, 8, 3, 2, 1, 1, 64},
      {64, 4, 4, 3, 1, 1, 1, 64},   {64, 4, 4, 1, 1, 0, 0, 10},
      {5, 7, 11, 3, 1, 1, 2, 70},   {8, 9, 9, 3, 2, 0, 0, 24}};
  const Kind kinds[] = {{"s8u8", PackedKernel::kS8U8, false},
                        {"s8u8-split", PackedKernel::kS8U8, true},
                        {"bitserial", PackedKernel::kLowBit, false},
                        {"bitserial-w16", PackedKernel::kLowBitWide, false}};
  constexpr std::int64_t kMaxBatch = 32;
  constexpr std::uint8_t kZeroPoint = 37;
  Rng rng(3701);
  for (const Geometry& shape : geometries) {
    ConvGeometry geom;
    geom.channels = shape.channels;
    geom.height = shape.height;
    geom.width = shape.width;
    geom.kernel_h = geom.kernel_w = shape.kernel;
    geom.stride = shape.stride;
    geom.pad = shape.pad;
    geom.validate();
    const std::int64_t oc = shape.oc, k = geom.col_rows();
    const std::int64_t out_w = geom.out_w(), plane = geom.out_h() * out_w;

    // kMaxBatch bordered images, `stride` bytes apart (the graph's sample
    // spacing), garbage after each image.
    std::vector<testing::NhwcImage> images;
    for (std::int64_t b = 0; b < kMaxBatch; ++b) {
      std::vector<std::uint8_t> chw(
          static_cast<std::size_t>(geom.channels * geom.height * geom.width));
      for (auto& v : chw) v = static_cast<std::uint8_t>(rng.uniform_int(256));
      images.push_back(testing::conv_input(geom, oc, chw.data(), shape.border,
                                           kZeroPoint, /*tail_fill=*/0xEE));
    }
    const std::int64_t pitch = images[0].pitch;
    const std::int64_t stride =
        static_cast<std::int64_t>(images[0].bytes.size());
    const std::int64_t origin = images[0].origin(geom.pad) -
                                images[0].bytes.data();
    std::vector<std::uint8_t> batch_bytes;
    for (const testing::NhwcImage& image : images) {
      batch_bytes.insert(batch_bytes.end(), image.bytes.begin(),
                         image.bytes.end());
    }
    const ConvGrid grid = gemm_conv_grid(geom, pitch, oc);
    const std::int64_t c_stride = grid.rows * grid.ldc;

    for (const Kind& kind : kinds) {
      int magnitude = kind.kernel == PackedKernel::kS8U8 ? 127 : 64;
      while (kind.kernel == PackedKernel::kLowBitWide &&
             !gemm_s8u8_wide_eligible(k, magnitude)) {
        --magnitude;
      }
      const auto hi = random_codes(oc * k, magnitude, rng);
      std::vector<std::int8_t> lo_bits(hi.size());  // the split's 0/1 plane
      for (auto& v : lo_bits) v = static_cast<std::int8_t>(rng.uniform_int(2));
      const auto hi_packed =
          testing::pack_conv_codes(kind.kernel, geom, oc, hi);
      const auto lo_packed =
          testing::pack_conv_codes(kind.kernel, geom, oc, lo_bits);
      // reference[b][(oy * out_w + ox) * oc + o]
      std::vector<std::vector<std::int64_t>> reference;
      for (const testing::NhwcImage& image : images) {
        auto acc = testing::naive_conv_nhwc(geom, pitch, oc,
                                            image.origin(geom.pad), hi.data());
        if (kind.split) {
          const auto low = testing::naive_conv_nhwc(
              geom, pitch, oc, image.origin(geom.pad), lo_bits.data());
          for (std::size_t i = 0; i < acc.size(); ++i) {
            acc[i] = 2 * acc[i] + low[i];
          }
        }
        reference.push_back(std::move(acc));
      }
      const std::uint8_t* low_weights =
          kind.split ? lo_packed.data() : nullptr;

      for (const std::int64_t batch : {std::int64_t{1}, std::int64_t{2},
                                       kMaxBatch}) {
        for (const bool pooled : {false, true}) {
          for (const bool per_sample : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << kind.name << ", " << geom.channels << "x"
                         << geom.height << "x" << geom.width << " k"
                         << shape.kernel << " s" << geom.stride << " p"
                         << geom.pad << " border " << shape.border << " oc "
                         << oc << ", batch " << batch << ", pooled "
                         << pooled << ", per sample " << per_sample);
            std::vector<std::int32_t> c(
                static_cast<std::size_t>(batch * c_stride), 0x5A5A5A5A);
            const std::uint8_t* image = batch_bytes.data() + origin;
            if (per_sample) {
              const auto one = [&](std::int64_t b) {
                gemm_conv_nhwc(kind.kernel, geom, pitch, oc, hi_packed.data(),
                               low_weights, 1, image + b * stride, stride,
                               c.data() + b * c_stride, c_stride, false);
              };
              if (pooled) {
                parallel_for(0, batch, one);
              } else {
                for (std::int64_t b = 0; b < batch; ++b) one(b);
              }
            } else {
              gemm_conv_nhwc(kind.kernel, geom, pitch, oc, hi_packed.data(),
                             low_weights, batch, image, stride, c.data(),
                             c_stride, pooled);
            }
            std::int64_t mismatches = 0;
            for (std::int64_t b = 0; b < batch; ++b) {
              const auto& want = reference[static_cast<std::size_t>(b)];
              for (std::int64_t p = 0; p < plane; ++p) {
                const std::int64_t q = p / out_w * pitch + p % out_w;
                for (std::int64_t o = 0; o < oc; ++o) {
                  mismatches +=
                      c[static_cast<std::size_t>(b * c_stride +
                                                 q * grid.ldc + o)] !=
                      want[static_cast<std::size_t>(p * oc + o)];
                }
              }
            }
            ASSERT_EQ(mismatches, 0);
          }
        }
      }

      // The requantized codes of sample 0, with and without an int32 skip
      // term, position by position (count = oc, as where ldc > oc) and, when
      // ldc == oc, one output row at a time: each against the formula.
      std::vector<std::int32_t> c(static_cast<std::size_t>(c_stride));
      gemm_conv_nhwc(kind.kernel, geom, pitch, oc, hi_packed.data(),
                     low_weights, 1, batch_bytes.data() + origin, stride,
                     c.data(), c_stride);
      const Requant q = random_requant(oc, rng);
      std::vector<std::int32_t> skip(c.size());
      for (auto& v : skip) {
        v = static_cast<std::int32_t>(rng.uniform(-200000.0f, 200000.0f));
      }
      const float levels = 255.0f;
      const auto formula = [&](std::int64_t at, std::int64_t o,
                               bool with_skip) {
        const auto i = static_cast<std::size_t>(o);
        const float a = static_cast<float>(c[static_cast<std::size_t>(at)]);
        const float sum =
            with_skip
                ? std::fma(a, q.mul1[i],
                           std::fma(static_cast<float>(
                                        skip[static_cast<std::size_t>(at)]),
                                    q.mul2[i], q.add[i]))
                : std::fma(a, q.mul1[i], q.add[i]);
        return runtime::round_clamp_code(sum, levels);
      };
      for (const bool with_skip : {false, true}) {
        for (const bool rows : {false, true}) {
          if (rows && grid.ldc != oc) continue;
          std::vector<std::uint8_t> codes(
              static_cast<std::size_t>(plane * oc));
          const std::int64_t run = rows ? out_w * oc : oc;
          for (std::int64_t p = 0; p < plane; p += rows ? out_w : 1) {
            const std::int64_t at = (p / out_w * pitch + p % out_w) * grid.ldc;
            std::uint8_t* out = codes.data() + p * oc;
            if (with_skip) {
              runtime::requant_channels(c.data() + at, skip.data() + at, out,
                                        run, q.mul1.data(), q.mul2.data(),
                                        q.add.data(), q.period, levels);
            } else {
              runtime::requant_channels<runtime::NoSkip>(
                  c.data() + at, nullptr, out, run, q.mul1.data(),
                  q.mul2.data(), q.add.data(), q.period, levels);
            }
          }
          std::int64_t mismatches = 0;
          for (std::int64_t p = 0; p < plane; ++p) {
            const std::int64_t at = (p / out_w * pitch + p % out_w) * grid.ldc;
            for (std::int64_t o = 0; o < oc; ++o) {
              mismatches += codes[static_cast<std::size_t>(p * oc + o)] !=
                            formula(at + o, o, with_skip);
            }
          }
          EXPECT_EQ(mismatches, 0)
              << kind.name << ", skip " << with_skip << ", rows " << rows
              << ", geometry " << geom.channels << "x" << geom.height
              << " k" << shape.kernel << " s" << geom.stride << " oc " << oc;
        }
      }
    }
  }
}

// ----------------------------------------------------- headroom edges ----

// Worst-case operands at an exact headroom edge: activations all 255 and
// every code `code` (the kind's largest magnitude, one sign) — with `low`
// >= 0, a split layer whose lo plane is all `low` (C = 2 hi + lo) — over a
// 1x1 convolution of k channels, 5 positions and 3 output channels, so
// every partial sum is as large as the bound admits. Checks every
// accumulator against the naive int64 reference and returns the first.
std::int32_t expect_worst_case_matches_reference(PackedKernel kind,
                                                 std::int64_t k,
                                                 std::int32_t code,
                                                 std::int32_t low = -1) {
  const std::int64_t oc = 3, n = 5;
  const bool split = low >= 0;
  const ConvGeometry geom = testing::one_by_one(k, n);
  const ConvGrid grid = gemm_conv_grid(geom, n, oc);
  const std::vector<std::uint8_t> image(static_cast<std::size_t>(grid.reach),
                                        255);
  const std::vector<std::int8_t> hi(static_cast<std::size_t>(oc * k),
                                    static_cast<std::int8_t>(code));
  const std::vector<std::int8_t> lo(static_cast<std::size_t>(oc * k),
                                    static_cast<std::int8_t>(split ? low : 0));
  auto want = testing::naive_conv_nhwc(geom, n, oc, image.data(), hi.data());
  if (split) {
    const auto low_sums =
        testing::naive_conv_nhwc(geom, n, oc, image.data(), lo.data());
    for (std::size_t i = 0; i < want.size(); ++i) {
      want[i] = 2 * want[i] + low_sums[i];
    }
  }
  const auto hi_packed = testing::pack_conv_codes(kind, geom, oc, hi);
  const auto lo_packed = testing::pack_conv_codes(kind, geom, oc, lo);
  std::vector<std::int32_t> c(static_cast<std::size_t>(grid.rows * grid.ldc),
                              -1);
  gemm_conv_nhwc(kind, geom, n, oc, hi_packed.data(),
                 split ? lo_packed.data() : nullptr, /*batch=*/1,
                 image.data(), 0, c.data(), 0);
  std::int64_t mismatches = 0;
  for (std::int64_t q = 0; q < n; ++q) {
    for (std::int64_t o = 0; o < oc; ++o) {
      mismatches += c[static_cast<std::size_t>(q * grid.ldc + o)] !=
                    want[static_cast<std::size_t>(q * oc + o)];
    }
  }
  EXPECT_EQ(mismatches, 0) << "kind=" << static_cast<int>(kind)
                           << " k=" << k << " code=" << code
                           << " low=" << low;
  return c[0];
}

// The split hi/lo chain of PackedIntWeights (code = 2 * hi + lo, hi
// reaching -128) with every code `code` and activations 255 at the deepest
// reduction, where the s8u8 headroom is tightest: 255 * 255 * 32767 < 2^31.
void expect_split_chain_matches_reference(std::int32_t code) {
  const std::int64_t rows = 3, n = 5;
  const std::int64_t depth = testing::kMaxDepth;
  const std::vector<std::int32_t> codes(static_cast<std::size_t>(rows * depth),
                                        code);
  const runtime::PackedIntWeights packed(codes, /*step=*/0.01f, /*bits=*/8,
                                         rows, depth);
  ASSERT_TRUE(packed.split());
  ASSERT_EQ(packed.kernel(), runtime::WeightKernel::kS8U8);
  const std::vector<std::uint8_t> b(static_cast<std::size_t>(depth * n), 255);
  std::vector<std::int32_t> c(static_cast<std::size_t>(rows * n), -1);
  packed.gemm(Trans::no, n, b.data(), n, c.data(), n, /*pooled=*/false);
  // The int64 reference of uniform operands: every element is one sum.
  const std::int64_t expected = std::int64_t{code} * 255 * depth;
  for (const std::int32_t v : c) {
    EXPECT_EQ(v, expected) << "split chain code=" << code;
  }
}

CSQ_INT_ISA_TEST(IntegerConvNhwc, SplitChainAtDepthBoundaryMatchesReference) {
  // The tightest int32 headroom in the runtime: a split layer's hi plane at
  // -128 and lo plane at 1 over activations all 255 at the deepest legal
  // reduction; one step deeper must throw.
  const std::int64_t k = testing::kMaxDepth;
  EXPECT_EQ(expect_worst_case_matches_reference(PackedKernel::kS8U8, k, -128,
                                                /*low=*/1),
            -255 * 255 * k);
  const std::vector<std::int8_t> deeper(static_cast<std::size_t>(k + 1),
                                        -128);
  EXPECT_THROW(testing::pack_conv_codes(PackedKernel::kS8U8,
                                        testing::one_by_one(k + 1, 1), 1,
                                        deeper),
               check_error);
}

CSQ_INT_ISA_TEST(IntegerConvNhwc, WorstCaseOperandsAtHeadroomEdgesMatchReference) {
  using testing::deepest_wide_depth;
  using testing::kMaxDepth;
  // The hand-derived edges of the w16 rule: one int16 lane would reach
  // 32640 of its 32767 at |code| 2 and depth 128, and at |code| 64 and
  // depth 4.
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

}  // namespace
}  // namespace csq
