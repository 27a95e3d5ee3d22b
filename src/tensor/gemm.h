// Blocked float matrix multiply, and the integer runtime's convolution.
//
//   float    C = alpha * op(A) * op(B) + beta * C                 (gemm)
//   integer  C(int32) = channels-last uint8 image * int8 weights
//                                                         (gemm_conv_nhwc)
//
// Row-major storage with explicit leading dimensions (BLAS-style). The float
// GEMM implements NN, NT and TN, which cover Linear's forward and both of its
// gradients, and the Wᵀ·dOut half of a strided convolution's input
// gradient. `gemm_conv` runs the same float kernel with B the unfolded
// convolution matrix, packed straight from a zero-padded image without ever
// building it: the convolution forward (NN), its weight gradient (NT) and
// the stride-1 input gradient as a transposed convolution (NN). The integer
// convolution is the fixed-point serving kernel, and the runtime's only
// integer entry point: its weights are packed ONCE into the running ISA's
// panel layout (`gemm_pack_conv_weights`, weights are static at serving
// time), its uint8 activations are read in place from a channels-last
// image, and it accumulates exactly in int32, outside the loop nest below.
// A Linear layer is the convolution whose kernel covers its whole input.
//
// Blocking scheme (GotoBLAS/BLIS-style):
//
//   for jc in N step kNC:                column panel of C / B
//     for pc in K step kKC:              depth panel (beta applied at pc==0)
//       pack op(B)[pc:pc+kc, jc:jc+nc]   -> B~  (NR-wide micro-panels, L2/L3)
//       for ic in M step kMC:            row panel of C / A
//         A~ = MR-tall micro-panels of op(A)[ic:ic+mc, pc:pc+kc]  (L1/L2)
//         for jr, ir over the panel:     kMR x kNR register micro-kernel
//
// The micro-kernel keeps a kMR x kNR accumulator tile in registers and
// streams the packed panels, so every loaded cache line is used kMR (or kNR)
// times; edge tiles are zero-padded during packing and written back through
// bounds-checked tails.
//
// ONE driver runs this nest for both B sources. It is a template over where
// B comes from: a row-major matrix, or the unfolded convolution matrix read
// from a padded image by a conv `pack_b` (Dukhan, "The Indirect Convolution
// Algorithm", arXiv:1907.02129). A~ packing, the micro-kernel and the C
// update are shared.
//
// The driver has exactly two schedules:
//  * Row schedule (shared B~): the calling thread packs B~ per (jc, pc);
//    the MC row tiles then run in order (serial execution is the 1-way
//    case) or across the thread pool (`GemmSplit::kRows`), every tile
//    reading the same B~.
//  * Column/grid schedule (per-task B~): C's tile grid is carved into
//    (group of MC row tiles) x (kNR-aligned column stripe) tasks. Each task
//    runs the whole ascending pc loop itself and packs B~ for its stripe
//    into the executing thread's scratch. This is what lets wide-N/small-M
//    shapes (per-sample convolution GEMMs) use the pool at all.
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
//    (beta applied at pc == 0 only) and the micro-kernel's packed-k order is
//    fixed by the blocking constants, never by the thread count or by which
//    split carved the tile.
// The tier-1 GEMM parity grids assert this with exact equality.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace csq {

enum class Trans { no, yes };

// Register micro-tile (rows x cols of C held in accumulators) of the float
// GEMM and the AVX2/portable integer convolution, and the float GEMM's
// cache blocking constants. kMC/kKC size the packed A panel for L2
// (64 KiB), kKC * kNC bounds the packed B panel (1 MiB); all are multiples
// of the micro-tile so packing never splits a micro-panel.
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
// a single kGemmNR-wide column panel, or row tiles >= ways -> kRows
// (classic split already fills the pool); otherwise a single row tile ->
// kCols; otherwise kGrid. Exposed so tests can pin the policy (an
// m<=kGemmMC wide-N GEMM must never fall back to the serial row branch).
GemmSplit gemm_choose_split(std::int64_t m, std::int64_t n, int ways);

// Number of independent tasks a pooled GEMM schedules for this shape under
// `split` (kAuto resolved first) with `ways` workers. 1 means the work runs
// on the calling thread — the regression tests pin that wide-N shapes with
// m as small as 1 still report > 1.
// Column stripes are capped at kGemmNC columns, so a split may schedule
// more than `ways` tasks.
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

// ----------------------------------------------- integer (serving) kinds --
//
// The packed weight layouts. Numeric values equal the serving runtime's
// persisted WeightKernel kinds (runtime/packed_weights.h). Each kind names
// an exactness CONTRACT (code range, depth) that gemm_pack_conv_weights and
// gemm_conv_nhwc enforce on every host; the kernel that runs it depends on
// the integer ISA (below).
//
//  * kS8U8: the reference, codes in [-128, 127]. On AVX2 and portable
//    builds codes are widened to int16 while packing, laid out in K-PAIRS
//    (depth steps 2p, 2p+1 adjacent per channel), so the AVX2 kernel fuses
//    them with one vpmaddwd. Headroom is TIGHT, not ample: a split layer
//    (codes beyond +/-127 stored as 2*hi + lo, hi reaching -128 and lo in
//    {0, 1}, fused into one call) costs up to 255 * 255 per depth step, so
//    exactness requires k <= 32767. Any code-range extension must re-derive
//    it.
//
// The low-bit kinds keep raw 8-bit codes in the packed panels (half the
// panel bandwidth of the widened layout) in K-QUADS: depth steps 4q..4q+3
// adjacent per channel, fused by one vpmaddubsw + vpmaddwd. vpmaddubsw
// saturates its int16 pair sums, so exactness requires |a| <= 64 per code
// (255 * (|a0| + |a1|) <= 32767); packing enforces each kind's range.
//
//  * kLowBit ("bit-serial"): codes in [-64, 64].
//  * kLowBitWide: the kLowBit contract for layers where
//    `gemm_s8u8_wide_eligible` holds for the depth and max |code|. On every
//    ISA it runs the kLowBit kernel, so the rule is an eligibility rule
//    only, not an exactness limit. Its formula is kept: artifacts record
//    the kind, and the benchmark's serve set-up throws if any family is
//    missing from its model.
//
// AMX hosts run every kind on ONE kernel of 16x16 AMX-INT8 tiles: tdpbusd
// sums each quad's four u8 activation x s8 weight products straight into
// the int32 C tile. No int16 intermediate exists, so nothing saturates at
// any int8 code: the +/-64 bound is then an eligibility rule of its kinds,
// still enforced, and kS8U8's int32 headroom argument above holds as
// derived. The ISA is chosen once per process: AMX when the build has the
// kernel, the CPU reports AMX-TILE and AMX-INT8, and Linux grants the
// process the tile-data state (arch_prctl ARCH_REQ_XCOMP_PERM); otherwise
// the AVX2 kernels (x86-64-v3 builds) or the portable ones. Panels are
// packed from codes at load and never persisted, so a host-dependent
// layout touches no file format.
//
// Every kind on every ISA produces EXACTLY the int32 accumulators of the
// s8u8 reference.
enum class PackedKernel : std::int32_t {
  kS8U8 = 0,
  kLowBit = 1,
  kLowBitWide = 3,
};

// The instruction sets the integer kernels are built for: the scalar
// fallbacks of a build without AVX2, the AVX2 kernels above, and the one
// AMX-INT8 kernel (built into x86-64 Linux builds with AVX2; a host with
// AVX-VNNI but no AMX runs the AVX2 kernels).
enum class GemmIntIsa : std::int32_t { kPortable = 0, kAvx2 = 1, kAmx = 2 };

// The integer ISA of a process and, when a CPU with AMX-INT8 runs the
// baseline instead, why.
struct GemmIntIsaChoice {
  GemmIntIsa isa;
  std::string fallback;  // empty unless the kernel refused the tile state
};

// The choice as a pure function of what the process probed: whether the
// build has the AMX kernel, whether the CPU reports AMX-TILE and AMX-INT8,
// and the errno of the tile-data request (0 = granted; only asked for when
// both hold). Anything short of all three picks the build's baseline.
GemmIntIsaChoice gemm_choose_int_isa(bool build_has_amx, bool cpu_has_amx,
                                     int xtiledata_errno);

// "amx", "avx2" or "portable": the integer ISA this process runs — AMX
// where both the build and the host have it, else the build's baseline.
// Fixed for the life of the process (tests aside, below).
const char* gemm_int_kernel_isa();

// gemm_int_kernel_isa(), followed by the fallback reason in parentheses
// when the host's CPU has AMX-INT8 but the kernel refused the tile state.
std::string gemm_int_isa_summary();

// True when this build and host can run `isa`'s kernels.
bool gemm_int_isa_supported(GemmIntIsa isa);

// TEST ONLY: forces every integer convolution in the process onto `isa`
// (which must be supported) until destroyed, so the AVX2 kernels stay
// tested on AMX hosts. Nothing else reaches it — no LowerOptions or GemmExec field, env
// var or artifact field selects an ISA. Construct it before packing: panels
// record the ISA they were packed for, and running them under another one
// fails a check. Not for use while other threads run integer convolutions.
class ScopedGemmIntIsaForTest {
 public:
  explicit ScopedGemmIntIsaForTest(GemmIntIsa isa);
  ~ScopedGemmIntIsaForTest();
  ScopedGemmIntIsaForTest(const ScopedGemmIntIsaForTest&) = delete;
  ScopedGemmIntIsaForTest& operator=(const ScopedGemmIntIsaForTest&) = delete;

 private:
  std::int32_t previous_;
};

// The bitserial-w16 eligibility rule: true when an int16 accumulation of
// one KC-depth block of K-quad pair sums could not overflow for reduction
// depth k and weight codes bounded by max_abs_a: quad_kc(min(k, kGemmKC))
// / 2 * 255 * max_abs_a <= 32767. No kernel accumulates in int16; the rule
// only decides which layers earn (and may record) kLowBitWide.
bool gemm_s8u8_wide_eligible(std::int64_t k, std::int32_t max_abs_a);

// ------------------------------------------ channels-last convolution --
//
// The integer runtime's convolution, with the activations as the A operand
// read in place and the weights as the packed operand:
//
//   C(q, o) = sum over (ki, kj, c) of
//             image[(q * stride + ki * pitch + kj) * C + c] * w[o, c, ki, kj]
//
// `image` is one sample's uint8 codes, channels-last (C bytes per pixel),
// in rows of `pitch` pixels (pitch >= geom.padded_w()), pointing at pixel
// (0, 0) of the convolution's padded frame: the caller keeps geom.pad
// pixels of the edge's zero point around the H x W interior. Output (oy, ox)
// is grid position q = oy * pitch + ox, so one load stride (stride * C
// bytes) walks positions across output rows; the rows with ox >= out_w,
// those past the last output, and the columns o >= oc hold values no
// caller may read. Tiles read up to ConvGrid::reach bytes from `image`.
// Every kind on every ISA yields the int32 accumulators of the s8u8
// reference; AMX hosts run 16x16 tdpbusd tiles, others 8x8 AVX2 (or
// portable) micro-tiles that broadcast each position's activations.
struct ConvGrid {
  std::int64_t rows;   // C rows: grid positions, whole 16-row tiles
  std::int64_t ldc;    // C columns (int32 per row): oc in whole 16s
  std::int64_t reach;  // bytes from `image` the tiles read
};
ConvGrid gemm_conv_grid(const ConvGeometry& geom, std::int64_t pitch,
                        std::int64_t oc);

// Bytes of the packed form of oc output channels' codes for `geom` under
// the running ISA: a small header naming the layout, then panels of output
// channels over the depth in (ki, kj, c) order, each tap row's kw * C codes
// zero-padded to whole K-quads.
std::int64_t gemm_conv_weights_bytes(PackedKernel kind,
                                     const ConvGeometry& geom,
                                     std::int64_t oc);

// Packs the (oc x geom.col_rows()) row-major int8 codes, depth in im2col's
// (c, ki, kj) order, into `packed` (gemm_conv_weights_bytes bytes). Throws
// when a code falls outside the kind's exact range or the depth exceeds
// the int32 headroom (k <= 32767).
void gemm_pack_conv_weights(PackedKernel kind, const ConvGeometry& geom,
                            std::int64_t oc, const std::int8_t* codes,
                            std::uint8_t* packed);

// For each of `batch` samples (images image_stride bytes apart, C blocks
// c_stride int32 apart): C (gemm_conv_grid(geom, pitch, oc).rows x .ldc
// int32) = image ⊛ weights, overwritten; with `low_weights` (a split
// layer's lo plane, code = 2 hi + lo, kS8U8 only) C = image ⊛ (2 weights +
// low_weights), exactly. Weights packed for another kind, geometry or ISA
// fail a check. `pooled` spreads the samples' 16x16 blocks of C over the
// thread pool when there is enough work, so a 1-sample call fans out too;
// the result is bit-identical either way.
void gemm_conv_nhwc(PackedKernel kind, const ConvGeometry& geom,
                    std::int64_t pitch, std::int64_t oc,
                    const std::uint8_t* weights,
                    const std::uint8_t* low_weights, std::int64_t batch,
                    const std::uint8_t* image, std::int64_t image_stride,
                    std::int32_t* c, std::int64_t c_stride,
                    bool pooled = false);

}  // namespace csq
