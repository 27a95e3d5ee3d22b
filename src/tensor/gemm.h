// Blocked general matrix multiply: one loop nest for every kernel family.
//
//   float    C = alpha * op(A) * op(B) + beta * C              (gemm)
//   integer  C(int32) = alpha * A(int8) * op(B)(uint8) [+ C]  (gemm_packed)
//
// Row-major storage with explicit leading dimensions (BLAS-style). The float
// GEMM implements NN, NT and TN, which cover Linear's forward and both of its
// gradients, and the Wᵀ·dOut half of a strided convolution's input
// gradient. `gemm_conv` runs the same float kernel with B the unfolded
// convolution matrix, packed straight from a zero-padded image without ever
// building it: the convolution forward (NN), its weight gradient (NT) and
// the stride-1 input gradient as a transposed convolution (NN). The integer
// GEMMs are the fixed-point serving kernels: A holds a layer's weight codes,
// packed ONCE into its kernel's panel layout (`gemm_pack_a`, weights are
// static at serving time), B holds uint8 activation codes, and accumulation
// is exact int32; `gemm_packed_conv` packs B from the padded uint8
// activation, which is how the runtime runs every convolution.
//
// Blocking scheme (GotoBLAS/BLIS-style):
//
//   for jc in N step kNC:                column panel of C / B
//     for pc in K step kKC:              depth panel (beta/accumulate at pc==0)
//       pack op(B)[pc:pc+kc, jc:jc+nc]   -> B~  (NR-wide micro-panels, L2/L3)
//       for ic in M step kMC:            row panel of C / A
//         A~ = MR-tall micro-panels of A[ic:ic+mc, pc:pc+kc]  (L1/L2)
//         for jr, ir over the panel:     kMR x kNR register micro-kernel
//
// The micro-kernel keeps a kMR x kNR accumulator tile in registers and
// streams the packed panels, so every loaded cache line is used kMR (or kNR)
// times; edge tiles are zero-padded during packing and written back through
// bounds-checked tails.
//
// ONE driver runs this nest for every family. It is a template over a
// kernel-traits struct that supplies the element types (packed A, packed B,
// accumulator, C), the K grouping of the packed layouts, `pack_b`, the A~
// source (float packs op(A) per (ic, pc) tile into scratch; the integer
// kinds slice their prepacked blob), the micro-kernel (a compile-time call
// inside the tile loop) and the C-tile update. It is instantiated for
// float, s8u8 (int16 K-pairs), low-bit and low-bit-wide (int8 K-quads),
// and for each of those four again with a conv `pack_b` that reads a padded
// image (Dukhan, "The Indirect Convolution Algorithm", arXiv:1907.02129).
//
// The driver has exactly two schedules:
//  * Row schedule (shared B~): the calling thread packs B~ per (jc, pc);
//    the MC row tiles then run in order (serial execution is the 1-way
//    case) or across the thread pool (`GemmSplit::kRows`), every tile
//    reading the same B~.
//  * Column/grid schedule (per-task B~): C's tile grid is carved into
//    (group of MC row tiles) x (NR-aligned column stripe) tasks. Each task
//    runs the whole ascending pc loop itself and packs B~ for its stripe
//    into the executing thread's scratch. This is what lets wide-N/small-M
//    shapes (batch-1 conv GEMMs, Linear heads) use the pool at all.
//
// Determinism contract: for fixed operands, every schedule, split, way count
// and thread count produces BIT-IDENTICAL C.
//  * Ownership: every C element belongs to exactly one (row tile, column
//    stripe) pair, so no two tasks write it and none reads another's output.
//  * Identical packed panels: stripes start at NR-aligned columns and kNC is
//    a multiple of kNR, so every B~ micro-panel a task packs holds exactly
//    the bytes the serial sweep packs for those columns (zero padding only
//    at the true matrix edge). A~ panels depend on (ic, pc) alone.
//  * Identical per-element operation order: the pc loop always ascends
//    (beta / accumulate applied at pc == 0 only) and the micro-kernel's
//    packed-k order is fixed by the blocking constants, never by the thread
//    count or by which split carved the tile.
// Integer arithmetic is exact, so for the integer kinds ownership alone
// suffices. The tier-1 GEMM parity grids assert this with exact equality.
#pragma once

#include <cstdint>
#include <memory>

namespace csq {

enum class Trans { no, yes };

// Register micro-tile (rows x cols of C held in accumulators) and the cache
// blocking constants. kMC/kKC size the packed A panel for L2 (64 KiB), kKC *
// kNC bounds the packed B panel (1 MiB); all are multiples of the micro-tile
// so packing never splits a micro-panel.
constexpr std::int64_t kGemmMR = 8;
constexpr std::int64_t kGemmNR = 8;
constexpr std::int64_t kGemmMC = 64;
constexpr std::int64_t kGemmKC = 256;
constexpr std::int64_t kGemmNC = 1024;

// How a pooled GEMM carves C's tile grid across the thread pool. Every mode
// yields bit-identical results (see the determinism contract above); the
// choice only affects which shapes actually fan out.
//
//  * kRows: the row schedule's MC row tiles — the classic split. Best when m
//    spans several MC blocks; degenerates to serial for m <= kGemmMC.
//  * kCols: the column/grid schedule with NR-aligned column stripes only.
//  * kGrid: the column/grid schedule with row-tile groups as well, for
//    shapes big in both dimensions when neither 1-D split fills the pool.
//  * kAuto: `gemm_choose_split` picks by shape.
enum class GemmSplit { kAuto = -1, kRows = 0, kCols = 1, kGrid = 2 };

// Shape policy for GemmSplit::kAuto with `ways` workers (0 = pool width):
// row tiles >= ways -> kRows (classic split already fills the pool);
// otherwise a single row tile -> kCols; otherwise kGrid. Exposed so tests
// can pin the policy (an m<=kGemmMC wide-N GEMM must never fall back to the
// serial row branch).
GemmSplit gemm_choose_split(std::int64_t m, std::int64_t n, int ways);

// Number of independent tasks a pooled GEMM schedules for this shape under
// `split` (kAuto resolved first) with `ways` workers. 1 means the work runs
// on the calling thread — the regression tests pin that wide-N shapes with
// m as small as 1 still report > 1. Column stripes are capped at kGemmNC
// columns, so a split may schedule more than `ways` tasks.
std::int64_t gemm_split_task_count(GemmSplit split, std::int64_t m,
                                   std::int64_t n, int ways);

// Execution options of one GEMM call. The default runs serially on the
// calling thread, so it is safe inside batch-parallel loops. `pooled` fans
// out across the global thread pool when there is enough arithmetic to
// amortize the wakeup and the call is not already inside a parallel region.
// `split` picks the decomposition and `ways` its width (0 = pool thread
// count); production code leaves both at their defaults, and tests force
// 1/2/4/8-way grids on any machine with them. A bare bool converts to
// {pooled}.
struct GemmExec {
  GemmExec(bool pooled = false, GemmSplit split = GemmSplit::kAuto,
           int ways = 0)
      : pooled(pooled), split(split), ways(ways) {}
  bool pooled;
  GemmSplit split;
  int ways;
};

// Packing scratch at a capacity fixed by the blocking constants: a kMC x kKC
// A panel and a kKC x kNC B panel, in bytes of the widest packed element
// (float). The first GEMM that uses a scratch allocates both panels at full
// capacity, uninitialized, so capacity a shape never touches costs no
// resident memory; no later call grows them, whatever its shape. Callers
// that pass none get the executing thread's scratch (see gemm.cpp).
struct GemmPanel {
  std::unique_ptr<unsigned char[]> bytes;
  bool empty() const { return bytes == nullptr; }
};
struct GemmScratch {
  GemmPanel packed_a;
  GemmPanel packed_b;
};

void gemm(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc, GemmScratch* scratch = nullptr,
          GemmExec exec = {});

struct ConvGeometry;  // tensor/im2col.h

// C = alpha * A * op(B) + beta * C with A row-major (m x k) and B the matrix
// im2col(geom, image) would build (tensor/im2col.h), which is never built:
// pack_b reads its panels from `padded`, the image zero-padded by geom.pad
// on every side (pad_image; channels x padded_h x padded_w floats).
//  * trans_b == no:  op(B) = columns (col_rows x col_cols), so n = col_cols
//    and k = col_rows — a convolution with weights A.
//  * trans_b == yes: op(B) = columnsᵀ (col_cols x col_rows), so n = col_rows
//    and k = col_cols — a weight gradient with A = dOut.
// Every packed panel holds exactly the bytes that packing the explicit
// columns would, so C is bit-identical to gemm() over im2col's matrix.
void gemm_conv(Trans trans_b, std::int64_t m, float alpha, const float* a,
               std::int64_t lda, const ConvGeometry& geom, const float* padded,
               float beta, float* c, std::int64_t ldc,
               GemmScratch* scratch = nullptr, GemmExec exec = {});

// ------------------------------------------------- integer (serving) GEMM --
//
// The packed-A panel layouts. Numeric values equal the serving runtime's
// persisted WeightKernel kinds (runtime/packed_weights.h).
//
//  * kS8U8: the reference. Codes are widened to int16 while packing, laid
//    out in K-PAIRS (depth steps 2p, 2p+1 adjacent per row/column), so the
//    AVX2 micro-kernel fuses them with one vpmaddwd — the integer analogue
//    of the float kernel's FMA. Headroom is TIGHT, not ample: the runtime's
//    split-plane chaining (codes beyond +/-127 stored as 2*hi + lo: alpha=2
//    overwrite on a hi plane reaching -128, then the alpha=1 lo pass) costs
//    up to 65535 per depth step, so exactness requires |alpha| <= 2 and
//    k <= 32767. Any alpha or code-range extension must re-derive it.
//
// The low-bit kinds keep raw 8-bit operands in the packed panels (half the
// panel bandwidth of the widened layout) in K-QUADS: depth steps 4q..4q+3
// adjacent per row/column, fused by one vpmaddubsw + vpmaddwd. vpmaddubsw
// saturates its int16 pair sums, so exactness requires |a| <= 64 per code
// (255 * (|a0| + |a1|) <= 32767); gemm_pack_a enforces each kind's range.
// |alpha| <= 8 admits chaining per-bit-plane passes with power-of-two
// weights (2^t, t <= 3); the combined |alpha| * k * 255 * max|a| < 2^31
// headroom is the caller's contract (serving runs alpha = 1 with k <= 32767
// and max|a| <= 64, which bounds it directly).
//
//  * kLowBit ("bit-serial"): A as raw int8 quads, codes in [-64, 64].
//    Twice the per-instruction MAC throughput of kS8U8.
//  * kLowBitWide: the kLowBit layout, with int16 accumulators across a
//    whole KC-depth block, widened once at the end — three times the
//    baseline MAC throughput. Exact only when `gemm_s8u8_wide_eligible`
//    holds for the layer's depth and max |code|.
//
// Every kind produces EXACTLY the int32 products of the s8u8 reference.
enum class PackedKernel : std::int32_t {
  kS8U8 = 0,
  kLowBit = 1,
  kLowBitWide = 3,
};

// Bytes of the packed form of an (m x k) code matrix: the MR-tall
// micro-panels of the whole m extent for each KC-depth block in turn.
std::int64_t gemm_packed_a_bytes(PackedKernel kind, std::int64_t m,
                                 std::int64_t k);

// Packs the (m x k) row-major int8 codes `a` into `packed`
// (gemm_packed_a_bytes(kind, m, k) bytes). Throws when a code falls outside
// the kind's exact range or k exceeds the int32 headroom.
void gemm_pack_a(PackedKernel kind, std::int64_t m, std::int64_t k,
                 const std::int8_t* a, std::int64_t lda, std::uint8_t* packed);

// True when int16 accumulation over one KC-depth block cannot overflow for
// reduction depth k and weight codes bounded by max_abs_a: the per-lane sum
// is at most quad_kc(min(k, kKC)) / 2 * 255 * max_abs_a <= 32767.
bool gemm_s8u8_wide_eligible(std::int64_t k, std::int32_t max_abs_a);

// C = alpha * A * op(B) from A packed by gemm_pack_a(kind, m, k, ...)
// (`packed_a` at least 2-byte aligned: kS8U8 panels hold int16).
// `accumulate` == false overwrites C, true adds into it — the split-plane
// chain is two calls: alpha=2 overwrite, alpha=1 accumulate.
void gemm_packed(PackedKernel kind, Trans trans_b, std::int64_t m,
                 std::int64_t n, std::int64_t k, std::int32_t alpha,
                 const std::uint8_t* packed_a, const std::uint8_t* b,
                 std::int64_t ldb, bool accumulate, std::int32_t* c,
                 std::int64_t ldc, GemmExec exec = {});

// C(int32) = alpha * A * B [+ C] with A packed as for gemm_packed (m x
// geom.col_rows()) and B the matrix im2col_u8(geom, image, pad_code) would
// build, so n = geom.col_cols(). pack_b reads its panels from `padded`: the
// image bordered by geom.pad values of pad_code on every side
// (pad_image(geom, image, padded, pad_code)), or the image itself when
// geom.pad is 0. C is bit-identical to gemm_packed over im2col_u8's matrix.
void gemm_packed_conv(PackedKernel kind, std::int64_t m, std::int32_t alpha,
                      const std::uint8_t* packed_a, const ConvGeometry& geom,
                      const std::uint8_t* padded, bool accumulate,
                      std::int32_t* c, std::int64_t ldc, GemmExec exec = {});

}  // namespace csq
