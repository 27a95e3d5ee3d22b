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
//      {0, 1}. The GEMM then runs two int8 passes chained through the
//      kernel's integer alpha (alpha=2 overwrite, alpha=1 accumulate).
//
// Both transforms are integer-exact, so reconstructing
//   weight[i] = effective_step() * full_code(i)
// reproduces the float materialization of a finalized CSQ source bit for
// bit (one float multiply of the step by an exactly-representable integer —
// the same operation materialize_hard performs).
//
// On top of the representation, each layer carries a KERNEL: the GEMM path
// its precision earns. Layers of at most 3 bits run "bitserial", the K-quad
// vpmaddubsw kernel over the int8 codes (the name is persisted and reported;
// the bit planes' shift-and-add is already folded into the codes), or its
// int16-accumulator variant "bitserial-w16" when the depth headroom proves
// no overflow. Every other layer, 4-bit layers included (their codes reach
// +/-15), runs the s8u8 reference, split layers as its alpha-chained pair.
// Every kernel produces the SAME int32 accumulators as the s8u8 reference,
// so the choice never changes served outputs, only latency.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/weight_source.h"
#include "tensor/gemm.h"

namespace csq {
namespace runtime {

// Per-layer GEMM path. Numeric values are persisted in graph artifacts
// (ProgramInstr::kernel_kind); kAuto (-1) means "resolve at lowering".
enum class WeightKernel : std::int32_t {
  kAuto = -1,
  kS8U8 = 0,        // widened int16 K-pair reference path
  kBitSerial = 1,   // int8 codes, K-quad vpmaddubsw
  kBitSerialWide = 3,  // bit-serial with int16 accumulators (3x MACs)
  // 2 was the retired nibble kernel; artifacts recording it are rejected.
};

// Stable short name for LayerInfo::kernel and bench reports:
// "s8u8" | "bitserial" | "bitserial-w16" | "auto".
const char* weight_kernel_name(WeightKernel kernel);

// The packed-A panel layout of a (resolved) kernel kind; the numeric values
// match by construction.
constexpr PackedKernel packed_kernel(WeightKernel kernel) {
  return static_cast<PackedKernel>(kernel);
}

// Raw views of one layer's packed storage — every byte the serving-time
// GEMM consumes — pointing into externally-owned memory (a CRC-verified
// read-only file mapping for the load_graph_mmap path). Extents are implied
// by rows/cols/kernel: planes are rows*cols int8; each panel blob is
// gemm_packed_a_bytes(packed_kernel(kernel), rows, cols) bytes.
struct WeightSpans {
  const std::int8_t* primary = nullptr;      // rows*cols plane codes
  const std::int8_t* low = nullptr;          // split layers only
  const std::uint8_t* panels = nullptr;      // primary plane, kernel layout
  const std::uint8_t* low_panels = nullptr;  // split layers only
};

// Borrowed packed-weight storage for graphs loaded via load_graph_mmap():
// per conv/linear layer (lowering order), views into one read-only file
// mapping, plus the keepalive that unmaps the file once the last graph
// sharing the program drops it. GraphProgram::mapped holds this table.
struct MappedWeightTable {
  struct Entry {
    WeightSpans spans;
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    int shift = 0;
  };
  std::vector<Entry> entries;
  std::shared_ptr<const void> keepalive;
};

class PackedIntWeights {
 public:
  PackedIntWeights() = default;

  // Packs `codes` as a (rows x cols) int8 matrix. rows*cols must equal
  // codes.codes.size(); rows is the GEMM M extent (output channels).
  PackedIntWeights(const WeightCodes& codes, std::int64_t rows,
                   std::int64_t cols,
                   WeightKernel kernel = WeightKernel::kAuto);

  // Borrowing form: packs a caller-owned code vector (e.g. a layer record
  // inside a shared GraphProgram) without the WeightCodes wrapper copy.
  // `step` is the real value of one grid unit (WeightCodes::step()).
  PackedIntWeights(const std::vector<std::int32_t>& codes, float step,
                   int bits, std::int64_t rows, std::int64_t cols,
                   WeightKernel kernel = WeightKernel::kAuto);

  // Borrowing (mmap) form: adopts pre-packed planes and panels that live in
  // externally-owned CRC-verified memory (runtime/graph_artifact.h
  // load_graph_mmap) — no plane or panel copies, so replicas across N
  // processes share one page cache. Row sums and the max-|code| bound are
  // recomputed with one scan, and the kernel's exactness eligibility is
  // re-checked exactly as in the owning form. The caller must keep the
  // backing memory alive for this object's lifetime (the GraphProgram's
  // MappedWeightTable holds the mapping).
  PackedIntWeights(const WeightSpans& spans, float step, int bits, int shift,
                   std::int64_t rows, std::int64_t cols, WeightKernel kernel);

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

  // True when the planes/panels point into externally-owned memory (the
  // mmap'd artifact path) instead of this object's own vectors.
  bool borrowed() const { return borrowed_; }

  // Raw storage views — the bytes the v5 artifact weight section persists
  // and the borrowing constructor adopts. Null where not applicable.
  const std::int8_t* primary_data() const {
    return borrowed_ ? spans_.primary : primary_.data();
  }
  const std::int8_t* low_data() const {
    if (!split_) return nullptr;
    return borrowed_ ? spans_.low : low_.data();
  }
  // The planes packed in the kernel's panel layout (gemm_pack_a).
  const std::uint8_t* panel_data() const {
    return borrowed_ ? spans_.panels : panels_.data();
  }
  const std::uint8_t* low_panel_data() const {
    if (!split_) return nullptr;
    return borrowed_ ? spans_.low_panels : low_panels_.data();
  }

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

  // C(rows, n) int32 = plane-codes * op(B): one gemm_packed pass, or the
  // alpha-chained hi/lo pair for split layers. Every kernel yields
  // bit-identical accumulators. `exec` is usually a bare `pooled` bool:
  // pooled for top-level calls (kAuto resolves the split by shape, so
  // wide-N/small-rows layers such as batch-1 conv GEMMs take the column
  // split), serial inside parallel regions.
  void gemm(Trans trans_b, std::int64_t n, const std::uint8_t* b,
            std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
            GemmExec exec) const;

  // The same product with B the unfolded convolution matrix of `padded`
  // (gemm_packed_conv): C(rows, geom.col_cols()), cols() == geom.col_rows().
  void gemm_conv(const ConvGeometry& geom, const std::uint8_t* padded,
                 std::int32_t* c, std::int64_t ldc, GemmExec exec) const;

  // Storage of the packed planes in bits (bits() per weight, doubled for
  // split layers, plus the scale).
  std::int64_t storage_bits() const;

 private:
  // Recorded kernel kinds (artifact replay / mmap load) are honored but
  // never trusted: a record that violates the kernel's exactness bound must
  // throw, not produce wrong logits. Requires max_abs_code_/split_/cols_ set.
  void check_kernel_eligibility() const;

  // Stored-plane code of element i: the hi/lo pair re-assembled for split
  // layers, the single plane otherwise (GEMM-accumulator units).
  std::int32_t plane_code(std::int64_t i) const {
    return split_ ? 2 * static_cast<std::int32_t>(primary_data()[i]) +
                        low_data()[i]
                  : primary_data()[i];
  }

  std::vector<std::int8_t> primary_;
  std::vector<std::int8_t> low_;  // empty unless split()
  // Kernel micro-panel form of the planes, packed once at construction
  // (weights are static at serving time) so gemm() skips per-call A packing.
  std::vector<std::uint8_t> panels_;
  std::vector<std::uint8_t> low_panels_;  // empty unless split()
  WeightSpans spans_;  // borrowed mode: views into the caller's mapping
  std::vector<std::int64_t> row_sums_;
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  int bits_ = 0;
  int shift_ = 0;
  std::int32_t max_abs_code_ = 0;
  WeightKernel kernel_ = WeightKernel::kS8U8;
  float effective_step_ = 1.0f;
  bool split_ = false;
  bool borrowed_ = false;
};

}  // namespace runtime
}  // namespace csq
