// Int8 packing of exact fixed-point weight codes (nn/weight_source.h
// WeightCodes) for the integer inference runtime.
//
// The paper's finalized grid is sign-magnitude with |code| <= 2^8 - 1 —
// one bit wider than int8. Packing normalizes each layer in two exact steps:
//
//   1. A per-layer power-of-two shift: every code is divisible by
//      2^shift (shift = the lowest active bit of the layer's scheme), so the
//      stored plane holds code >> shift and the shift folds into the
//      effective scale exactly (power-of-two float scaling is lossless).
//   2. If the shifted codes still exceed +/-127 (a full-span 8-bit layer),
//      a hi/lo split: code = 2*hi + lo with hi in [-128, 127] and lo in
//      {0, 1}. The convolution then runs both int8 planes in one call and
//      fuses them exactly (C = 2 * hi + lo).
//
// Both transforms are integer-exact, so reconstructing
//   weight[i] = effective_step() * full_code(i)
// reproduces the float materialization of a finalized CSQ source bit for
// bit (one float multiply of the step by an exactly-representable integer —
// the same operation materialize_hard performs).
//
// On top of the representation, each layer carries a KERNEL: the path its
// precision earns. Layers of at most 3 bits run "bitserial", the K-quad
// vpmaddubsw kernel over the int8 codes (the name is persisted and reported;
// the bit planes' shift-and-add is already folded into the codes), recorded
// as "bitserial-w16" where gemm_s8u8_wide_eligible's int16 depth rule holds.
// Every other layer, 4-bit layers included (their codes reach +/-15), runs
// the s8u8 reference, split layers as its fused hi/lo pair. Every kernel
// produces the SAME int32 accumulators as the s8u8 reference, so the choice
// never changes served outputs, only latency.
//
// The kernel is the layer's contract (code range, eligibility, persisted
// name), not its instruction sequence: the channels-last convolution
// (gemm_conv_nhwc) runs bitserial-w16 layers on the bitserial kernel on
// every ISA, so the w16 rule only decides the name a layer records (its
// formula is kept: the benchmark's serve set-up throws if any family
// disappears from its model), and on AMX hosts all three kinds run one
// exact kernel of 16x16 AMX-INT8 tiles (gemm.h). The panels are packed
// from the codes when a layer is built and never persisted, so their
// host-dependent layout reaches no artifact.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/weight_source.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace csq {
namespace runtime {

// Per-layer kernel kind. Numeric values are persisted in graph artifacts
// (ProgramInstr::kernel_kind); kAuto (-1) means "resolve at lowering".
enum class WeightKernel : std::int32_t {
  kAuto = -1,
  kS8U8 = 0,           // reference path (int16 K-pairs unless AMX)
  kBitSerial = 1,      // int8 codes, K-quad vpmaddubsw
  kBitSerialWide = 3,  // bit-serial within the int16 depth rule
  // 2 was the retired nibble kernel; artifacts recording it are rejected.
};

// Stable short name for LayerInfo::kernel and bench reports:
// "s8u8" | "bitserial" | "bitserial-w16" | "auto".
const char* weight_kernel_name(WeightKernel kernel);

// The packed panel layout of a (resolved) kernel kind; the numeric values
// match by construction.
constexpr PackedKernel packed_kernel(WeightKernel kernel) {
  return static_cast<PackedKernel>(kernel);
}

class PackedIntWeights {
 public:
  PackedIntWeights() = default;

  // Packs `codes` as a (rows x cols) int8 matrix. rows*cols must equal
  // codes.codes.size(); rows is the number of output channels.
  PackedIntWeights(const WeightCodes& codes, std::int64_t rows,
                   std::int64_t cols,
                   WeightKernel kernel = WeightKernel::kAuto);

  // Borrowing form: packs a caller-owned code vector (e.g. a layer record
  // inside a shared GraphProgram) without the WeightCodes wrapper copy.
  // `step` is the real value of one grid unit (WeightCodes::step()). With
  // `conv`, the weights of a convolution over that geometry (cols must be
  // its col_rows()); without, those of a 1x1 convolution of `cols`
  // channels. The planes are packed for conv() either way.
  PackedIntWeights(const std::vector<std::int32_t>& codes, float step,
                   int bits, std::int64_t rows, std::int64_t cols,
                   WeightKernel kernel = WeightKernel::kAuto,
                   const ConvGeometry* conv = nullptr);

  // The deterministic auto-selection policy: the kernel a layer with these
  // codes earns. Pure function of the codes/bits/shape, so every replica of
  // a live-lowered program makes the same choice.
  static WeightKernel select_kernel(const std::vector<std::int32_t>& codes,
                                    int bits, std::int64_t cols);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  int bits() const { return bits_; }
  int shift() const { return shift_; }
  bool split() const { return split_; }

  // The GEMM path this layer runs (never kAuto after construction).
  WeightKernel kernel() const { return kernel_; }
  const char* kernel_name() const { return weight_kernel_name(kernel_); }

  // Largest |stored-plane code| — the bound the kernel eligibility checks
  // are derived from.
  std::int32_t max_abs_code() const { return max_abs_code_; }

  // Real value of one stored-plane unit: step * 2^shift (exact).
  float effective_step() const { return effective_step_; }

  // Full integer code of element i (plane value re-assembled and shifted).
  std::int32_t full_code(std::int64_t i) const {
    return plane_code(i) * (1 << shift_);
  }
  // Bit-exact float weight of element i (power-of-two scaling makes
  // effective_step * plane == step * full_code exactly).
  float weight(std::int64_t i) const {
    return effective_step_ * static_cast<float>(plane_code(i));
  }

  // Per-row sum of the stored-plane codes — the same units the GEMM
  // accumulator is in — for the zero-point correction term of the consuming
  // requantization: real = effective_step * S_in * (acc - zp * row_sum).
  const std::vector<std::int64_t>& row_code_sums() const { return row_sums_; }

  // C(rows, n) int32 = plane-codes * op(B), exactly (split layers too),
  // with op(B) a (cols x n) uint8 matrix. It runs as a 1x1 gemm_conv_nhwc
  // of cols() channels over a channels-last copy of op(B)'s n columns, on
  // conv()'s own panels for 1x1 weights and otherwise on a 1x1 packing
  // made once, on the first call. Each call allocates its copies, and calls
  // on one layer may run concurrently. `exec.pooled` spreads the blocks of
  // C over the pool (serial inside parallel regions); its split and ways
  // are not used. The compiled graph never calls it: it is kept for
  // perfbench's per-layer replay (ROADMAP item 1) and goes with it.
  void gemm(Trans trans_b, std::int64_t n, const std::uint8_t* b,
            std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
            GemmExec exec) const;

  // The convolution of `batch` channels-last images under the packed
  // geometry (gemm_conv_nhwc): C = positions x channels per sample, the
  // hi/lo pair of split layers fused.
  void conv(std::int64_t pitch, std::int64_t batch, const std::uint8_t* image,
            std::int64_t image_stride, std::int32_t* c, std::int64_t c_stride,
            bool pooled) const;

  // Storage of the packed planes in bits (bits() per weight, doubled for
  // split layers, plus the scale).
  std::int64_t storage_bits() const;

 private:
  // Recorded kernel kinds (artifact replay) are honored but never trusted:
  // a record that violates the kernel's exactness bound must throw, not
  // produce wrong logits. Requires max_abs_code_/split_/cols_ set.
  void check_kernel_eligibility() const;

  // Packs the planes for a convolution over `geom` (gemm_pack_conv_weights'
  // layout) into `hi` and, for split layers, `lo`.
  void pack_planes(const ConvGeometry& geom, std::vector<std::uint8_t>& hi,
                   std::vector<std::uint8_t>& lo) const;

  // Stored-plane code of element i: the hi/lo pair re-assembled for split
  // layers, the single plane otherwise (GEMM-accumulator units).
  std::int32_t plane_code(std::int64_t i) const {
    const auto at = static_cast<std::size_t>(i);
    return split_ ? 2 * static_cast<std::int32_t>(primary_[at]) + low_[at]
                  : primary_[at];
  }

  std::vector<std::int8_t> primary_;
  std::vector<std::int8_t> low_;  // empty unless split()
  // The planes packed for conv_geom_ (a 1x1 geometry of cols_ channels for
  // weights built without one), once: weights are static at serving time.
  std::vector<std::uint8_t> conv_panels_;
  std::vector<std::uint8_t> low_conv_panels_;  // empty unless split()
  ConvGeometry conv_geom_;
  // gemm()'s 1x1 packing of the planes where conv_geom_ is not 1x1, made
  // on its first call (gemm_once_).
  mutable std::vector<std::uint8_t> gemm_panels_;
  mutable std::vector<std::uint8_t> low_gemm_panels_;
  std::unique_ptr<std::once_flag> gemm_once_;
  std::vector<std::int64_t> row_sums_;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  int bits_ = 0;
  int shift_ = 0;
  std::int32_t max_abs_code_ = 0;
  WeightKernel kernel_ = WeightKernel::kS8U8;
  float effective_step_ = 1.0f;
  bool split_ = false;
};

}  // namespace runtime
}  // namespace csq
