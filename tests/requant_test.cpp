// requant_span (runtime/requant.h) against the scalar formula, bit for bit.
//
// The AVX2 build sweeps 32 outputs per step, then 8, then finishes with
// the scalar tail; every count from 0 to 72 runs each combination of those
// steps, so a fault in one step's lanes or in its store shows as a code
// that differs from the formula at that position. The cases cover the
// three skip kinds (none, an int32 accumulator, uint8 codes), clamp edges
// (half-way values at 0 and at the top code) and NaN, +inf and -inf sums.
// Portable builds run the scalar path alone and must agree as well.
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/requant.h"
#include "util/rng.h"

namespace csq {
namespace runtime {
namespace {

constexpr std::int64_t kMaxCount = 72;  // 2 x 32 + 8 + a scalar tail
constexpr std::uint8_t kGuard = 0xA5;

struct Params {
  float mul1, mul2, add, levels;
};

// The code the scalar formula gives output p: acc * mul1 + (skip * mul2 +
// add), each multiply-add fused, then the clamp and round.
template <typename Skip>
std::uint8_t formula(const std::int32_t* acc, const Skip* skip,
                     std::int64_t p, const Params& q) {
  const float a = static_cast<float>(acc[p]);
  if constexpr (kHasSkip<Skip>) {
    const float s = static_cast<float>(skip[p]);
    return round_clamp_code(std::fma(a, q.mul1, std::fma(s, q.mul2, q.add)),
                            q.levels);
  } else {
    return round_clamp_code(std::fma(a, q.mul1, q.add), q.levels);
  }
}

// Runs every count 0..kMaxCount and compares each output with the formula;
// the byte past the count must stay untouched.
template <typename Skip>
void expect_matches_formula(const std::vector<std::int32_t>& acc,
                            const Skip* skip, const Params& q,
                            const char* what) {
  for (std::int64_t count = 0; count <= kMaxCount; ++count) {
    std::vector<std::uint8_t> out(static_cast<std::size_t>(kMaxCount + 1),
                                  kGuard);
    requant_span(acc.data(), skip, out.data(), count, q.mul1, q.mul2, q.add,
                 q.levels);
    for (std::int64_t p = 0; p < count; ++p) {
      ASSERT_EQ(out[static_cast<std::size_t>(p)],
                formula(acc.data(), skip, p, q))
          << what << ": count " << count << ", output " << p << ", acc "
          << acc[static_cast<std::size_t>(p)] << ", mul1 " << q.mul1
          << ", add " << q.add;
    }
    ASSERT_EQ(out[static_cast<std::size_t>(count)], kGuard)
        << what << ": count " << count << " wrote past its end";
  }
}

// Every case with each of the three skip kinds.
void expect_all_skips_match(const std::vector<std::int32_t>& acc,
                            const std::vector<std::int32_t>& skip_acc,
                            const std::vector<std::uint8_t>& skip_codes,
                            const Params& q) {
  expect_matches_formula<NoSkip>(acc, nullptr, q, "no skip");
  expect_matches_formula(acc, skip_acc.data(), q, "int32 skip");
  expect_matches_formula(acc, skip_codes.data(), q, "uint8 skip");
}

TEST(RequantSpan, SimdStepsMatchScalarFormulaBitForBit) {
  Rng rng(3501);
  const auto count = static_cast<std::size_t>(kMaxCount);
  std::vector<std::int32_t> acc(count), skip_acc(count);
  std::vector<std::uint8_t> skip_codes(count);
  for (std::size_t i = 0; i < count; ++i) {
    acc[i] = static_cast<std::int32_t>(rng.uniform(-40000.0f, 40000.0f));
    skip_acc[i] = static_cast<std::int32_t>(rng.uniform(-40000.0f, 40000.0f));
    skip_codes[i] = static_cast<std::uint8_t>(rng.uniform(0.0f, 256.0f));
  }
  // Served-like scales: sums spread across the whole code range and past
  // both clamps.
  for (int trial = 0; trial < 8; ++trial) {
    const Params q{rng.uniform(0.0005f, 0.02f), rng.uniform(0.01f, 1.5f),
                   rng.uniform(-40.0f, 40.0f), trial % 2 == 0 ? 255.0f : 15.0f};
    expect_all_skips_match(acc, skip_acc, skip_codes, q);
  }

  // Clamp edges: with unit scales the sums land exactly on half-way values
  // around code 0 and the top code, and just inside and outside them.
  std::vector<std::int32_t> edges(count), zeros(count, 0);
  const std::int32_t near[] = {-2, -1, 0, 1, 2, 14, 15, 16, 254, 255, 256};
  for (std::size_t i = 0; i < count; ++i) edges[i] = near[i % 11];
  for (const float add : {0.0f, 0.5f, -0.5f, 0.49999997f, -0.49999997f}) {
    for (const float levels : {255.0f, 15.0f, 1.0f}) {
      expect_all_skips_match(edges, zeros,
                             std::vector<std::uint8_t>(count, 0),
                             Params{1.0f, 1.0f, add, levels});
    }
  }

  // Non-finite sums: NaN (0 * inf, a NaN scale or offset), +inf and -inf
  // (infinite scales or offsets, and finite products that overflow).
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::int32_t> mixed(count);
  for (std::size_t i = 0; i < count; ++i) {
    mixed[i] = i % 3 == 0 ? 0 : (i % 3 == 1 ? 7 : -7) *
                                    static_cast<std::int32_t>(i + 1) * 1000;
  }
  const Params non_finite[] = {
      {inf, 1.0f, 0.0f, 255.0f},    {-inf, 1.0f, 0.0f, 255.0f},
      {nan, 1.0f, 0.0f, 255.0f},    {1.0f, 1.0f, nan, 255.0f},
      {1.0f, 1.0f, inf, 255.0f},    {1.0f, 1.0f, -inf, 255.0f},
      {3e38f, 3e38f, 0.0f, 255.0f}, {1.0f, inf, 0.0f, 255.0f}};
  for (const Params& q : non_finite) {
    expect_all_skips_match(mixed, mixed, skip_codes, q);
  }
}

}  // namespace
}  // namespace runtime
}  // namespace csq
