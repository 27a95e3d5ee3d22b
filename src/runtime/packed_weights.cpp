#include "runtime/packed_weights.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "tensor/im2col.h"
#include "util/check.h"

namespace csq {
namespace runtime {

namespace {

static_assert(
    packed_kernel(WeightKernel::kS8U8) == PackedKernel::kS8U8 &&
        packed_kernel(WeightKernel::kBitSerial) == PackedKernel::kLowBit &&
        packed_kernel(WeightKernel::kBitSerialWide) ==
            PackedKernel::kLowBitWide,
    "persisted kernel kinds must name their panel layouts");

// Largest power-of-two divisor shared by every nonzero code (capped at 7 —
// beyond that the layer is all zeros or a single plane anyway).
int common_shift(const std::vector<std::int32_t>& codes) {
  int shift = 8;
  for (const std::int32_t code : codes) {
    if (code == 0) continue;
    int tz = 0;
    std::int32_t magnitude = std::abs(code);
    while ((magnitude & 1) == 0 && tz < 8) {
      magnitude >>= 1;
      ++tz;
    }
    shift = std::min(shift, tz);
    if (shift == 0) break;
  }
  return shift == 8 ? 0 : shift;
}

// The auto-selection policy, a pure function of the layer's stored-plane
// shape: bit-serial (wide where the depth headroom allows) for <= 3-bit
// layers, the widened s8u8 reference otherwise (including every split
// layer — the hi/lo alpha chain stays on the reference path).
WeightKernel auto_kernel(int bits, std::int32_t max_abs, bool split,
                         std::int64_t cols) {
  if (split) return WeightKernel::kS8U8;
  if (bits <= 3 && max_abs <= 64) {
    return gemm_s8u8_wide_eligible(cols, max_abs)
               ? WeightKernel::kBitSerialWide
               : WeightKernel::kBitSerial;
  }
  return WeightKernel::kS8U8;
}

}  // namespace

template <typename Pass>
void PackedIntWeights::for_each_pass(Pass pass) const {
  if (!split_) {
    pass(1, panels_.data(), false);
    return;
  }
  pass(2, panels_.data(), false);
  pass(1, low_panels_.data(), true);
}

const char* weight_kernel_name(WeightKernel kernel) {
  switch (kernel) {
    case WeightKernel::kAuto:
      return "auto";
    case WeightKernel::kS8U8:
      return "s8u8";
    case WeightKernel::kBitSerial:
      return "bitserial";
    case WeightKernel::kBitSerialWide:
      return "bitserial-w16";
  }
  return "unknown";
}

WeightKernel PackedIntWeights::select_kernel(
    const std::vector<std::int32_t>& codes, int bits, std::int64_t cols) {
  const int shift = common_shift(codes);
  std::int32_t max_abs = 0;
  for (const std::int32_t code : codes) {
    max_abs = std::max(max_abs, std::abs(code >> shift));
  }
  return auto_kernel(bits, max_abs, /*split=*/max_abs > 127, cols);
}

PackedIntWeights::PackedIntWeights(const WeightCodes& codes, std::int64_t rows,
                                   std::int64_t cols, WeightKernel kernel)
    : PackedIntWeights(codes.codes, codes.step(), codes.bits, rows, cols,
                       kernel) {}

PackedIntWeights::PackedIntWeights(const std::vector<std::int32_t>& codes,
                                   float step, int bits, std::int64_t rows,
                                   std::int64_t cols, WeightKernel kernel)
    : rows_(rows), cols_(cols), bits_(bits) {
  const std::int64_t count = rows * cols;
  CSQ_CHECK(count == static_cast<std::int64_t>(codes.size()))
      << "packed weights: " << rows << "x" << cols << " != "
      << codes.size() << " codes";
  // int32 accumulator headroom: the worst per-k contribution is the split
  // form 2 * |hi| * 255 + lo * 255 with hi = -128, lo = 1 (65535), so the
  // reduction depth must satisfy k * 65535 < 2^31 - 1.
  CSQ_CHECK(cols <= 32767)
      << "packed weights: reduction depth " << cols
      << " would overflow int32 accumulation";

  shift_ = common_shift(codes);
  // Power-of-two scaling of a float is exact: effective_step * plane-value
  // reproduces step * full-code bit for bit.
  effective_step_ = std::ldexp(step, shift_);

  std::int32_t max_magnitude = 0;
  for (const std::int32_t code : codes) {
    max_magnitude = std::max(max_magnitude, std::abs(code >> shift_));
  }
  max_abs_code_ = max_magnitude;
  const bool needs_split = max_magnitude > 127;
  split_ = needs_split;

  primary_.resize(static_cast<std::size_t>(count));
  if (needs_split) low_.resize(static_cast<std::size_t>(count));
  row_sums_.assign(static_cast<std::size_t>(rows), 0);
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int32_t shifted =
        codes[static_cast<std::size_t>(i)] / (1 << shift_);
    CSQ_CHECK(shifted >= -255 && shifted <= 255)
        << "packed weights: code " << codes[static_cast<std::size_t>(i)]
        << " outside the 8-bit grid";
    if (needs_split) {
      const std::int32_t lo = shifted & 1;
      const std::int32_t hi = (shifted - lo) / 2;
      primary_[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(hi);
      low_[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(lo);
    } else {
      primary_[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(shifted);
    }
    row_sums_[static_cast<std::size_t>(i / cols)] += shifted;
  }

  kernel_ = kernel == WeightKernel::kAuto
                ? auto_kernel(bits_, max_abs_code_, needs_split, cols)
                : kernel;
  check_kernel_eligibility();

  const PackedKernel kind = packed_kernel(kernel_);
  panels_.resize(
      static_cast<std::size_t>(gemm_packed_a_bytes(kind, rows, cols)));
  gemm_pack_a(kind, rows, cols, primary_.data(), cols, panels_.data());
  if (needs_split) {
    low_panels_.resize(panels_.size());
    gemm_pack_a(kind, rows, cols, low_.data(), cols, low_panels_.data());
  }
}

void PackedIntWeights::check_kernel_eligibility() const {
  switch (kernel_) {
    case WeightKernel::kBitSerialWide:
      CSQ_CHECK(gemm_s8u8_wide_eligible(cols_, max_abs_code_))
          << "packed weights: bitserial-w16 kernel needs int16 headroom "
             "(depth "
          << cols_ << ", max |code| " << max_abs_code_ << ")";
      [[fallthrough]];
    case WeightKernel::kBitSerial:
      CSQ_CHECK(!split_ && max_abs_code_ <= 64)
          << "packed weights: bit-serial kernel needs unsplit codes with "
             "|code| <= 64, got max "
          << max_abs_code_;
      break;
    case WeightKernel::kS8U8:
      break;
    case WeightKernel::kAuto:
      CSQ_CHECK(false) << "packed weights: unresolved kernel kind";
      break;
  }
}

void PackedIntWeights::gemm(Trans trans_b, std::int64_t n,
                            const std::uint8_t* b, std::int64_t ldb,
                            std::int32_t* c, std::int64_t ldc,
                            GemmExec exec) const {
  for_each_pass([&](std::int32_t alpha, const std::uint8_t* panels,
                    bool accumulate) {
    gemm_packed(packed_kernel(kernel_), trans_b, rows_, n, cols_, alpha,
                panels, b, ldb, accumulate, c, ldc, exec);
  });
}

void PackedIntWeights::gemm_conv(const ConvGeometry& geom,
                                 const std::uint8_t* padded, std::int32_t* c,
                                 std::int64_t ldc, GemmExec exec) const {
  CSQ_CHECK(geom.col_rows() == cols_)
      << "packed weights: conv depth " << geom.col_rows() << " != " << cols_;
  for_each_pass([&](std::int32_t alpha, const std::uint8_t* panels,
                    bool accumulate) {
    gemm_packed_conv(packed_kernel(kernel_), rows_, alpha, panels, geom,
                     padded, accumulate, c, ldc, exec);
  });
}

std::int64_t PackedIntWeights::storage_bits() const {
  // Split layers carry the scheme-bits hi plane plus a 1-bit lo plane.
  const std::int64_t count = rows_ * cols_;
  const std::int64_t per_weight = split() ? bits_ + 1 : bits_;
  return count * per_weight + 32;
}

}  // namespace runtime
}  // namespace csq
