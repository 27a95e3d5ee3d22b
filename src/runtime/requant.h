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

// -------------------------------------------------- requantization span --
//
// The accumulator-to-code sweep of the integer path, run by every
// requantization. The skip term is the second addend of a residual join:
// NoSkip, an i32 downsample accumulator or u8 identity-skip codes. The AVX2
// form processes 32 outputs per iteration (convert, FMA, clamp, truncate,
// pack 32->16->8 with a lane-fix permute), since the auto-vectorizer
// refuses the narrowing u8 store chain, then 8 per step, so the 16-value
// planes of 4x4 maps vectorize too. The scalar tail/fallback computes the
// identical value: its fused multiply-adds are written out (std::fma) in
// the vector form's order, so no compiler contraction choice can round the
// tail differently from the vector steps.

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
// clamp(round(mul1 * acc[p] + mul2 * skip[p] + add)) with one.
template <typename Skip>
void requant_span(const std::int32_t* acc, const Skip* skip,
                  std::uint8_t* out, std::int64_t count, float mul1,
                  float mul2, float add, float levels) {
  std::int64_t p = 0;
#if defined(__AVX2__)
  const __m256 vmul1 = _mm256_set1_ps(mul1);
  const __m256 vmul2 = _mm256_set1_ps(mul2);
  const __m256 vadd = _mm256_set1_ps(add);
  const __m256 vlev = _mm256_set1_ps(levels);
  const __m256 vhalf = _mm256_set1_ps(0.5f);
  const auto fuse8 = [&](std::int64_t offset) {
    const __m256 a1 = _mm256_cvtepi32_ps(_mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc + offset)));
    __m256 sum;
    if constexpr (kHasSkip<Skip>) {
      sum = _mm256_fmadd_ps(
          a1, vmul1,
          _mm256_fmadd_ps(_mm256_cvtepi32_ps(load_skip8(skip + offset)),
                          vmul2, vadd));
    } else {
      sum = _mm256_fmadd_ps(a1, vmul1, vadd);
    }
    const __m256 clamped =
        _mm256_min_ps(_mm256_max_ps(sum, _mm256_setzero_ps()), vlev);
    return _mm256_cvttps_epi32(_mm256_add_ps(clamped, vhalf));
  };
  for (; p + 32 <= count; p += 32) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + p),
        pack32(fuse8(p), fuse8(p + 8), fuse8(p + 16), fuse8(p + 24)));
  }
  for (; p + 8 <= count; p += 8) {
    const __m256i q = fuse8(p);
    const __m128i words = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                          _mm256_extracti128_si256(q, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + p),
                     _mm_packus_epi16(words, words));
  }
#endif
  for (; p < count; ++p) {
    float sum;
    if constexpr (kHasSkip<Skip>) {
      sum = std::fma(static_cast<float>(acc[p]), mul1,
                     std::fma(static_cast<float>(skip[p]), mul2, add));
    } else {
      sum = std::fma(static_cast<float>(acc[p]), mul1, add);
    }
    out[p] = round_clamp_code(sum, levels);
  }
}

}  // namespace runtime
}  // namespace csq
