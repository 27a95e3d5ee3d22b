// Requantization of the integer runtime: the accumulator-to-code sweep
// every requantizing op runs (compiled_graph.cpp), and the clamp-and-round
// it shares with input quantization. Internal to the runtime; a header so
// the tests can pin the SIMD steps against the scalar formula bit for bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace csq {
namespace runtime {

// Round-to-nearest uint8 code with the clamp fused: clamp to [0, levels]
// first, then add-half truncate. Equal to lround-then-clamp on this domain
// (values are non-negative after the clamp) and free of the per-element
// libm call. NaN fails `value > 0` and maps to code 0, like -inf, so no
// wire sample reaches the cast out of range.
inline std::uint8_t round_clamp_code(float value, float levels) {
  value = value > 0.0f ? (value < levels ? value : levels) : 0.0f;
  return static_cast<std::uint8_t>(value + 0.5f);
}

// ------------------------------------------------- requantization sweep --
//
// The accumulator-to-code sweep of the integer path, run by every
// requantization: `requant_channels` over channels-last outputs (constants
// per channel), `requant_span` over a run sharing one set of constants.
// The skip term is the second addend of a residual join: NoSkip, an i32
// downsample accumulator or u8 identity-skip codes. The AVX2 form
// processes 32 outputs per iteration (convert, FMA, clamp, truncate, pack
// 32->16->8 with a lane-fix permute), since the auto-vectorizer refuses
// the narrowing u8 store chain, then 8 per step, so short runs vectorize
// too. The scalar tail/fallback computes the identical value: its fused
// multiply-adds are written out (std::fma) in the vector form's order, so
// no compiler contraction choice can round the tail differently from the
// vector steps.

struct NoSkip {};

template <typename Skip>
constexpr bool kHasSkip = !std::is_same_v<Skip, NoSkip>;

#if defined(__AVX2__)

// Packs four 8-lane int32 code vectors (values in [0, 255]) into 32 uint8
// codes in order.
inline __m256i pack32(__m256i q0, __m256i q1, __m256i q2, __m256i q3) {
  const __m256i p01 = _mm256_packs_epi32(q0, q1);
  const __m256i p23 = _mm256_packs_epi32(q2, q3);
  const __m256i packed = _mm256_packus_epi16(p01, p23);
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  return _mm256_permutevar8x32_epi32(packed, order);
}

// Eight skip values widened to int32 lanes.
inline __m256i load_skip8(const std::int32_t* skip) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(skip));
}
inline __m256i load_skip8(const std::uint8_t* skip) {
  return _mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(skip)));
}

#endif  // __AVX2__

// out[p] = clamp(round(mul1 * acc[p] + add)) without a skip term, and
// clamp(round(mul1 * acc[p] + mul2 * skip[p] + add)) with one. With
// kPerOutput the constants of output p are element p % period of arrays of
// `period` values, where period is a multiple of 32 or at least count;
// otherwise element 0 serves every p.
template <typename Skip, bool kPerOutput>
void requant_sweep(const std::int32_t* acc, const Skip* skip,
                   std::uint8_t* out, std::int64_t count, const float* mul1,
                   const float* mul2, const float* add, std::int64_t period,
                   float levels) {
  std::int64_t p = 0;
  std::int64_t q = 0;  // p % period: the constants' index
#if defined(__AVX2__)
  const auto constant = [&q](const float* values, std::int64_t offset) {
    if constexpr (kPerOutput) {
      return _mm256_loadu_ps(values + q + offset);
    } else {
      return _mm256_set1_ps(*values);
    }
  };
  const __m256 vlev = _mm256_set1_ps(levels);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const auto fuse8 = [&](std::int64_t offset) {
    const __m256 a1 = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc + p + offset)));
    __m256 sum;
    if constexpr (kHasSkip<Skip>) {
      sum = _mm256_fmadd_ps(
          a1, constant(mul1, offset),
          _mm256_fmadd_ps(_mm256_cvtepi32_ps(load_skip8(skip + p + offset)),
                          constant(mul2, offset), constant(add, offset)));
    } else {
      sum = _mm256_fmadd_ps(a1, constant(mul1, offset), constant(add, offset));
    }
    const __m256 clamped =
        _mm256_min_ps(_mm256_max_ps(sum, _mm256_setzero_ps()), vlev);
    return _mm256_cvttps_epi32(_mm256_add_ps(clamped, vhalf));
  };
  for (; p + 32 <= count; p += 32) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + p),
                        pack32(fuse8(0), fuse8(8), fuse8(16), fuse8(24)));
    if (kPerOutput && (q += 32) == period) q = 0;
  }
  for (; p + 8 <= count; p += 8, q += 8) {
    const __m256i codes = fuse8(0);
    const __m128i words = _mm_packs_epi32(_mm256_castsi256_si128(codes),
                                          _mm256_extracti128_si256(codes, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + p),
                     _mm_packus_epi16(words, words));
  }
#endif
  for (; p < count; ++p) {
    const std::int64_t at = kPerOutput ? q : 0;
    if (kPerOutput && ++q == period) q = 0;
    float sum;
    if constexpr (kHasSkip<Skip>) {
      sum = std::fma(static_cast<float>(acc[p]), mul1[at],
                     std::fma(static_cast<float>(skip[p]), mul2[at], add[at]));
    } else {
      sum = std::fma(static_cast<float>(acc[p]), mul1[at], add[at]);
    }
    out[p] = round_clamp_code(sum, levels);
  }
}

// Outputs laid out channel-fastest: output p is channel p % period of the
// constants (`mul2` is ignored without a skip term). `period` is a
// multiple of 32 or at least count, so one call covers a run of positions
// when the constants repeat to a multiple of 32, or one position.
template <typename Skip>
void requant_channels(const std::int32_t* acc, const Skip* skip,
                      std::uint8_t* out, std::int64_t count,
                      const float* mul1, const float* mul2, const float* add,
                      std::int64_t period, float levels) {
  requant_sweep<Skip, true>(acc, skip, out, count, mul1, mul2, add, period,
                            levels);
}

// A run of `count` outputs sharing one set of constants.
template <typename Skip>
void requant_span(const std::int32_t* acc, const Skip* skip,
                  std::uint8_t* out, std::int64_t count, float mul1,
                  float mul2, float add, float levels) {
  requant_sweep<Skip, false>(acc, skip, out, count, &mul1, &mul2, &add, 1,
                             levels);
}

}  // namespace runtime
}  // namespace csq
