#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <type_traits>
#include <utility>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "tensor/im2col.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace csq {

namespace {

static_assert(kGemmMC % kGemmMR == 0, "MC must be a multiple of MR");
static_assert(kGemmNC % kGemmNR == 0, "NC must be a multiple of NR");

// ------------------------------------------------------- packing scratch --
//
// Every packed panel fits the fixed capacity: an A~ tile is at most
// kMC x kKC elements and a B~ panel (or column stripe, capped at kNC
// columns) at most kKC x kNC, and no packed element is wider than a float.
constexpr std::int64_t kPackedABytes = kGemmMC * kGemmKC * sizeof(float);
constexpr std::int64_t kPackedBBytes = kGemmKC * kGemmNC * sizeof(float);

GemmScratch& reserve(GemmScratch& scratch) {
  if (scratch.packed_a.empty()) {
    scratch.packed_a.bytes.reset(new unsigned char[kPackedABytes]);
    scratch.packed_b.bytes.reset(new unsigned char[kPackedBBytes]);
  }
  return scratch;
}

template <typename T>
T* panel(const GemmPanel& p) {
  return reinterpret_cast<T*>(p.bytes.get());
}

// The executing thread's packing scratch. Threads running a share of a
// global-pool task (workers, and the caller while it takes part) index a
// table that holds one scratch per pool slot, all created together by the
// first such GEMM. Pool chunks are handed out dynamically, so a per-thread
// scratch created on first use would make whether a later GEMM allocates
// depend on which chunks a thread happened to claim — after warm-up it
// must not. Every other thread (serving replicas, data-parallel shard
// workers) runs its GEMMs itself and keeps a thread-local scratch from its
// first GEMM on.
GemmScratch& thread_scratch() {
  const int slot = pool_share_slot();
  if (slot >= 0) {
    static const std::unique_ptr<GemmScratch[]> table = [] {
      const int slots = pool_slot_count();
      std::unique_ptr<GemmScratch[]> scratch(new GemmScratch[slots]);
      for (int s = 0; s < slots; ++s) reserve(scratch[s]);
      return scratch;
    }();
    return table[slot];
  }
  thread_local GemmScratch scratch;
  return reserve(scratch);
}

// Scales a row block of C by beta (handles beta == 0 without reading C).
void apply_beta(std::int64_t m_begin, std::int64_t m_end, std::int64_t n,
                float beta, float* c, std::int64_t ldc) {
  if (beta == 1.0f) return;
  for (std::int64_t i = m_begin; i < m_end; ++i) {
    float* row = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(row, row + n, 0.0f);
    } else {
      for (std::int64_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

// ----------------------------------------------------- tile-grid split ----
//
// Task decomposition of the column/grid schedule: the C tile grid is carved
// into row_groups x col_stripes tasks, each a contiguous run of MC row tiles
// x one kGemmNR-aligned column stripe (see the determinism contract in
// gemm.h). Stripes are capped at kGemmNC columns so the per-task packed
// panel keeps the row schedule's cache footprint.

struct TileGrid {
  std::int64_t row_groups = 1;         // groups of consecutive MC row tiles
  std::int64_t tiles_per_group = 1;    // MC tiles per group (last may be short)
  std::int64_t col_stripes = 1;        // NR-aligned column stripes
  std::int64_t panels_per_stripe = 1;  // panels per stripe (last may be short)
  std::int64_t tasks() const { return row_groups * col_stripes; }
};

int resolve_split_ways(int split_ways) {
  return split_ways > 0 ? split_ways : global_pool().num_threads();
}

// Builds the task grid for kCols / kGrid (kRows never reaches this). Targets
// `ways` tasks; produces more when a stripe would exceed kGemmNC columns
// (tasks queue on the pool, which is fine) and fewer when the shape has too
// few tiles to split that finely.
TileGrid make_tile_grid(GemmSplit split, std::int64_t m, std::int64_t n,
                        int ways) {
  const std::int64_t ic_tiles = (m + kGemmMC - 1) / kGemmMC;
  const std::int64_t col_panels = (n + kGemmNR - 1) / kGemmNR;
  TileGrid grid;
  grid.tiles_per_group = std::max<std::int64_t>(ic_tiles, 1);
  std::int64_t col_ways = std::max<std::int64_t>(ways, 1);
  if (split == GemmSplit::kGrid && ic_tiles > 1) {
    grid.row_groups = std::min<std::int64_t>(ic_tiles, ways);
    grid.tiles_per_group =
        (ic_tiles + grid.row_groups - 1) / grid.row_groups;
    grid.row_groups =
        (ic_tiles + grid.tiles_per_group - 1) / grid.tiles_per_group;
    col_ways = std::max<std::int64_t>(ways / grid.row_groups, 1);
  }
  grid.col_stripes = std::max<std::int64_t>(
      std::min<std::int64_t>(col_panels, col_ways), 1);
  grid.panels_per_stripe =
      (col_panels + grid.col_stripes - 1) / grid.col_stripes;
  grid.panels_per_stripe =
      std::min<std::int64_t>(grid.panels_per_stripe, kGemmNC / kGemmNR);
  grid.col_stripes =
      (col_panels + grid.panels_per_stripe - 1) / grid.panels_per_stripe;
  return grid;
}

// --------------------------------------------------------------- packing --
//
// A~ layout: ceil(mc/MR) micro-panels, each kc x MR:
//   packed[panel r][p * MR + i] = op(A)[ic + r*MR + i, pc + p]
// B~ layout: ceil(nc/NR) micro-panels, each kc x NR:
//   packed[panel s][p * NR + j] = op(B)[pc + p, jc + s*NR + j]
// Rows/columns beyond the matrix edge are zero-filled so the micro-kernel
// always runs full MR x NR tiles.

void pack_a_panel(Trans trans, const float* a, std::int64_t lda,
                  std::int64_t ic, std::int64_t pc, std::int64_t mc,
                  std::int64_t kc, float* dst) {
  for (std::int64_t r = 0; r < mc; r += kGemmMR) {
    const std::int64_t rows = std::min(kGemmMR, mc - r);
    if (trans == Trans::no) {
      // op(A)[i, p] = a[(ic + i) * lda + pc + p]: row-contiguous reads.
      for (std::int64_t i = 0; i < rows; ++i) {
        const float* src = a + (ic + r + i) * lda + pc;
        for (std::int64_t p = 0; p < kc; ++p) dst[p * kGemmMR + i] = src[p];
      }
      for (std::int64_t i = rows; i < kGemmMR; ++i) {
        for (std::int64_t p = 0; p < kc; ++p) dst[p * kGemmMR + i] = 0.0f;
      }
    } else {
      // op(A)[i, p] = a[(pc + p) * lda + ic + i]: contiguous in i.
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = a + (pc + p) * lda + ic + r;
        float* d = dst + p * kGemmMR;
        std::int64_t i = 0;
        for (; i < rows; ++i) d[i] = src[i];
        for (; i < kGemmMR; ++i) d[i] = 0.0f;
      }
    }
    dst += kGemmMR * kc;
  }
}

// ---------------------------------------------------------- micro-kernel --
//
// acc(MR, NR) = A~panel(kc, MR) * B~panel(kc, NR). On GCC/Clang the kernel
// is written with vector extensions: one 8-float vector register per
// accumulator row, one unaligned load of the packed B row per k step, and a
// broadcast-multiply per packed A element — the classic outer-product form
// that maps 1:1 onto FMA units. Elsewhere a scalar form with constant trip
// counts lets the auto-vectorizer do its best.

#if defined(__GNUC__) || defined(__clang__)
#define CSQ_GEMM_VECTOR_KERNEL 1
#endif

#ifdef CSQ_GEMM_VECTOR_KERNEL

typedef float Vec8 __attribute__((vector_size(32)));
static_assert(kGemmMR == 8 && kGemmNR == 8,
              "vector micro-kernel assumes an 8x8 tile");

inline void micro_kernel_f32(const float* pa, const float* pb,
                             std::int64_t kc, float* acc) {
  Vec8 c0{}, c1{}, c2{}, c3{}, c4{}, c5{}, c6{}, c7{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* a_col = pa + p * kGemmMR;
    // Unaligned vector load, in place: a function returning a Vec8 by
    // value would change its ABI between AVX and non-AVX builds.
    Vec8 b;
    __builtin_memcpy(&b, pb + p * kGemmNR, sizeof(b));
    c0 += a_col[0] * b;
    c1 += a_col[1] * b;
    c2 += a_col[2] * b;
    c3 += a_col[3] * b;
    c4 += a_col[4] * b;
    c5 += a_col[5] * b;
    c6 += a_col[6] * b;
    c7 += a_col[7] * b;
  }
  __builtin_memcpy(acc + 0 * 8, &c0, sizeof(c0));
  __builtin_memcpy(acc + 1 * 8, &c1, sizeof(c1));
  __builtin_memcpy(acc + 2 * 8, &c2, sizeof(c2));
  __builtin_memcpy(acc + 3 * 8, &c3, sizeof(c3));
  __builtin_memcpy(acc + 4 * 8, &c4, sizeof(c4));
  __builtin_memcpy(acc + 5 * 8, &c5, sizeof(c5));
  __builtin_memcpy(acc + 6 * 8, &c6, sizeof(c6));
  __builtin_memcpy(acc + 7 * 8, &c7, sizeof(c7));
}

#else  // portable fallback

inline void micro_kernel_f32(const float* pa, const float* pb,
                             std::int64_t kc, float* acc) {
  for (std::int64_t x = 0; x < kGemmMR * kGemmNR; ++x) acc[x] = 0.0f;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* a_col = pa + p * kGemmMR;
    const float* b_row = pb + p * kGemmNR;
    for (std::int64_t i = 0; i < kGemmMR; ++i) {
      const float a_ip = a_col[i];
      float* acc_row = acc + i * kGemmNR;
      for (std::int64_t j = 0; j < kGemmNR; ++j) {
        acc_row[j] += a_ip * b_row[j];
      }
    }
  }
}

#endif  // CSQ_GEMM_VECTOR_KERNEL

// C tile update: c = beta_eff * c + alpha * acc over the valid m_sub x
// n_sub region, beta_eff = beta at pc == 0 and 1 after. beta_eff == 0
// never reads C (NaN/garbage safe).
void update_tile(float* c, std::int64_t ldc, const float* acc,
                 std::int64_t m_sub, std::int64_t n_sub, float alpha,
                 float beta, bool first_pc) {
  const float beta_eff = first_pc ? beta : 1.0f;
  for (std::int64_t i = 0; i < m_sub; ++i) {
    float* c_row = c + i * ldc;
    const float* acc_row = acc + i * kGemmNR;
    if (beta_eff == 0.0f) {
      for (std::int64_t j = 0; j < n_sub; ++j) c_row[j] = alpha * acc_row[j];
    } else if (beta_eff == 1.0f) {
      for (std::int64_t j = 0; j < n_sub; ++j) c_row[j] += alpha * acc_row[j];
    } else {
      for (std::int64_t j = 0; j < n_sub; ++j) {
        c_row[j] = beta_eff * c_row[j] + alpha * acc_row[j];
      }
    }
  }
}

// ------------------------------------------------------------ B sources --
//
// The driver below is a template over where B comes from: a struct with
// B's source type and `pack_b`, which writes one kc x nc block of op(B) as
// B~ micro-panels. A~ packing, the micro-kernel and the C update are the
// same for every source.

// B as a row-major matrix (gemm).
struct MatrixB {
  using Source = float;

  static void pack_b(Trans trans, const float* b, std::int64_t ldb,
                     std::int64_t pc, std::int64_t jc, std::int64_t kc,
                     std::int64_t nc, float* dst) {
    for (std::int64_t s = 0; s < nc; s += kGemmNR) {
      const std::int64_t cols = std::min(kGemmNR, nc - s);
      if (trans == Trans::no) {
        // op(B)[p, j] = b[(pc + p) * ldb + jc + j]: contiguous in j.
        for (std::int64_t p = 0; p < kc; ++p) {
          const float* src = b + (pc + p) * ldb + jc + s;
          float* d = dst + p * kGemmNR;
          std::int64_t j = 0;
          for (; j < cols; ++j) d[j] = src[j];
          for (; j < kGemmNR; ++j) d[j] = 0.0f;
        }
      } else {
        // op(B)[p, j] = b[(jc + j) * ldb + pc + p]: row-contiguous reads.
        for (std::int64_t j = 0; j < cols; ++j) {
          const float* src = b + (jc + s + j) * ldb + pc;
          for (std::int64_t p = 0; p < kc; ++p) dst[p * kGemmNR + j] = src[p];
        }
        for (std::int64_t j = cols; j < kGemmNR; ++j) {
          for (std::int64_t p = 0; p < kc; ++p) dst[p * kGemmNR + j] = 0.0f;
        }
      }
      dst += kGemmNR * kc;
    }
  }
};

// The unfolded convolution matrix as a B source (gemm_conv). Row r of
// im2col's matrix is the tap (c, ki, kj) = (r / taps, r % taps / kw,
// r % kw) and column j the output position (oy, ox) = (j / out_w,
// j % out_w); its element is the padded image at row oy * stride + ki,
// column ox * stride + kj. The two halves of that address are walked for a
// run of consecutive taps or positions at a time, so a run costs one
// division however short its panels are.
struct ConvSource {
  const float* image;  // padded, channels x padded_h x padded_w
  std::int64_t row, plane;  // padded row and channel pitch, in elements
  std::int64_t kernel_h, kernel_w, stride, out_w;

  ConvSource(const ConvGeometry& geom, const float* padded)
      : image(padded),
        row(geom.padded_w()),
        plane(geom.padded_h() * geom.padded_w()),
        kernel_h(geom.kernel_h),
        kernel_w(geom.kernel_w),
        stride(geom.stride),
        out_w(geom.out_w()) {}

  // out[i] = the window origin of tap first + i, for i < count.
  void tap_bases(std::int64_t first, std::int64_t count,
                 const float** out) const {
    const std::int64_t taps = kernel_h * kernel_w;
    std::int64_t c = first / taps, ki = first % taps / kernel_w,
                 kj = first % kernel_w;
    for (std::int64_t i = 0; i < count; ++i) {
      out[i] = image + c * plane + ki * row + kj;
      if (++kj == kernel_w) {
        kj = 0;
        if (++ki == kernel_h) {
          ki = 0;
          ++c;
        }
      }
    }
  }
  // out[i] = the offset of output position first + i from its tap's
  // window origin, for i < count.
  void position_offsets(std::int64_t first, std::int64_t count,
                        std::int64_t* out) const {
    std::int64_t oy = first / out_w, ox = first % out_w;
    for (std::int64_t i = 0; i < count; ++i) {
      out[i] = (oy * row + ox) * stride;
      if (++ox == out_w) {
        ox = 0;
        ++oy;
      }
    }
  }
};

// One NR-wide B~ row: d[j] = value(j) for j < cols, zero after. A full
// panel gets a fixed trip count, so the gather unrolls.
template <typename Value>
inline void pack_row(float* d, std::int64_t cols, Value value) {
  if (cols == kGemmNR) {
    for (std::int64_t j = 0; j < kGemmNR; ++j) d[j] = value(j);
    return;
  }
  std::int64_t j = 0;
  for (; j < cols; ++j) d[j] = value(j);
  for (; j < kGemmNR; ++j) d[j] = 0.0f;
}

// B packed from a ConvSource (gemm_conv): B~ panels byte-equal to
// MatrixB::pack_b over im2col's matrix (zero padding comes from the padded
// image, tails are zero-filled).
struct ConvB {
  using Source = ConvSource;

  static void pack_b(Trans trans, const ConvSource* b, std::int64_t /*ldb*/,
                     std::int64_t pc, std::int64_t jc, std::int64_t kc,
                     std::int64_t nc, float* dst) {
    const ConvSource& src = *b;
    if (trans == Trans::no) {
      // op(B)[p, j]: depth rows are taps, columns output positions.
      const float* taps[kGemmKC];
      src.tap_bases(pc, kc, taps);
      for (std::int64_t s = 0; s < nc; s += kGemmNR) {
        const std::int64_t cols = std::min(kGemmNR, nc - s);
        std::int64_t at[kGemmNR];
        src.position_offsets(jc + s, cols, at);
        if (cols == kGemmNR && at[kGemmNR - 1] - at[0] == kGemmNR - 1) {
          // Eight adjacent floats (stride 1, one output row): one copy per
          // tap.
          for (std::int64_t p = 0; p < kc; ++p) {
            std::memcpy(dst + p * kGemmNR, taps[p] + at[0],
                        kGemmNR * sizeof(float));
          }
        } else {
          // A strided panel, one crossing an output row, or the tail.
          for (std::int64_t p = 0; p < kc; ++p) {
            pack_row(dst + p * kGemmNR, cols,
                     [&](std::int64_t j) { return taps[p][at[j]]; });
          }
        }
        dst += kGemmNR * kc;
      }
    } else {
      // op(B)[p, j] = columns[jc + j, pc + p]: depth rows are output
      // positions, columns taps. Packed rows are written in order.
      std::int64_t at[kGemmKC];
      src.position_offsets(pc, kc, at);
      const float* taps[kGemmNC];
      src.tap_bases(jc, nc, taps);
      for (std::int64_t s = 0; s < nc; s += kGemmNR) {
        const std::int64_t cols = std::min(kGemmNR, nc - s);
        const float* const* panel_taps = taps + s;
        for (std::int64_t p = 0; p < kc; ++p) {
          pack_row(dst + p * kGemmNR, cols,
                   [&](std::int64_t j) { return panel_taps[j][at[p]]; });
        }
        dst += kGemmNR * kc;
      }
    }
  }
};
// ---------------------------------------------------------------- driver --

template <typename B>
struct Problem {
  std::int64_t m, n, k;
  Trans trans_a;
  const float* a;
  std::int64_t lda;
  Trans trans_b;
  const typename B::Source* b;
  std::int64_t ldb;
  float* c;
  std::int64_t ldc;
  float alpha, beta;
};

// One (jc, pc) step of the loop nest.
struct Block {
  std::int64_t jc, nc, pc, kc;
};

// One MC-tall row tile of C inside a (jc, pc) block: packs op(A)'s tile
// into the executing thread's scratch, then sweeps the jr/ir micro-tile
// grid over the packed B~ (read-only, possibly shared).
template <typename B>
void run_tile(const Problem<B>& p, const Block& blk, std::int64_t ic,
              const float* packed_b, GemmScratch& scratch) {
  const std::int64_t mc = std::min(kGemmMC, p.m - ic);
  float* packed_a = panel<float>(scratch.packed_a);
  pack_a_panel(p.trans_a, p.a, p.lda, ic, blk.pc, mc, blk.kc, packed_a);
  const std::int64_t a_stride = kGemmMR * blk.kc;
  const std::int64_t b_stride = kGemmNR * blk.kc;
  for (std::int64_t jr = 0; jr < blk.nc; jr += kGemmNR) {
    const std::int64_t n_sub = std::min(kGemmNR, blk.nc - jr);
    const float* pb = packed_b + (jr / kGemmNR) * b_stride;
    for (std::int64_t ir = 0; ir < mc; ir += kGemmMR) {
      const std::int64_t m_sub = std::min(kGemmMR, mc - ir);
      float acc[kGemmMR * kGemmNR];
      micro_kernel_f32(packed_a + (ir / kGemmMR) * a_stride, pb, blk.kc, acc);
      update_tile(p.c + (ic + ir) * p.ldc + blk.jc + jr, p.ldc, acc, m_sub,
                  n_sub, p.alpha, p.beta, blk.pc == 0);
    }
  }
}

// Row schedule: B~ is packed once per (jc, pc) on the calling thread and
// shared by the whole ic sweep, which runs in order or across the pool.
template <typename B>
void run_rows(const Problem<B>& p, GemmScratch& scratch, bool pooled) {
  const std::int64_t ic_tiles = (p.m + kGemmMC - 1) / kGemmMC;
  const bool serial = !pooled || ic_tiles <= 1;
  float* packed_b = panel<float>(scratch.packed_b);
  for (std::int64_t jc = 0; jc < p.n; jc += kGemmNC) {
    Block blk{jc, std::min(kGemmNC, p.n - jc), 0, 0};
    for (; blk.pc < p.k; blk.pc += kGemmKC) {
      blk.kc = std::min(kGemmKC, p.k - blk.pc);
      B::pack_b(p.trans_b, p.b, p.ldb, blk.pc, jc, blk.kc, blk.nc, packed_b);
      if (serial) {
        for (std::int64_t t = 0; t < ic_tiles; ++t) {
          run_tile(p, blk, t * kGemmMC, packed_b, scratch);
        }
      } else {
        struct TileContext {
          const Problem<B>* p;
          const Block* blk;
          const float* packed_b;
        } ctx{&p, &blk, packed_b};
        // Single-reference capture keeps the closure inside std::function's
        // small-buffer optimization: no allocation per dispatch.
        parallel_for_chunked(
            0, ic_tiles, [&ctx](std::int64_t begin, std::int64_t end) {
              GemmScratch& own = thread_scratch();
              for (std::int64_t t = begin; t < end; ++t) {
                run_tile(*ctx.p, *ctx.blk, t * kGemmMC, ctx.packed_b, own);
              }
            });
      }
    }
  }
}

// Column/grid schedule: every task owns a (row-tile group x column stripe)
// block of C and runs the ascending pc loop itself, packing B~ for its
// stripe into the executing thread's scratch.
template <typename B>
void run_grid(const Problem<B>& p, const TileGrid& grid) {
  struct GridContext {
    const Problem<B>* p;
    TileGrid grid;
    std::int64_t ic_tiles;
  } ctx{&p, grid, (p.m + kGemmMC - 1) / kGemmMC};
  parallel_for_chunked(
      0, grid.tasks(), [&ctx](std::int64_t begin, std::int64_t end) {
        const Problem<B>& p = *ctx.p;
        GemmScratch& scratch = thread_scratch();
        float* packed_b = panel<float>(scratch.packed_b);
        const std::int64_t stripe_cols =
            ctx.grid.panels_per_stripe * kGemmNR;
        for (std::int64_t t = begin; t < end; ++t) {
          const std::int64_t group = t / ctx.grid.col_stripes;
          const std::int64_t jc = (t % ctx.grid.col_stripes) * stripe_cols;
          const std::int64_t tile_begin = group * ctx.grid.tiles_per_group;
          const std::int64_t tile_end = std::min(
              tile_begin + ctx.grid.tiles_per_group, ctx.ic_tiles);
          Block blk{jc, std::min(stripe_cols, p.n - jc), 0, 0};
          for (; blk.pc < p.k; blk.pc += kGemmKC) {
            blk.kc = std::min(kGemmKC, p.k - blk.pc);
            B::pack_b(p.trans_b, p.b, p.ldb, blk.pc, jc, blk.kc, blk.nc,
                      packed_b);
            for (std::int64_t tile = tile_begin; tile < tile_end; ++tile) {
              run_tile(p, blk, tile * kGemmMC, packed_b, scratch);
            }
          }
        }
      });
}

// Picks the schedule. Only fans out when there is enough arithmetic to
// amortize the pool wakeup and the call is not nested in a parallel region.
template <typename B>
void run(const Problem<B>& p, GemmScratch* scratch, const GemmExec& exec) {
  const bool pooled = exec.pooled && 2 * p.m * p.n * p.k >= (1 << 18) &&
                      !inside_parallel_region();
  if (pooled) {
    const int ways = resolve_split_ways(exec.ways);
    const GemmSplit split = exec.split == GemmSplit::kAuto
                                ? gemm_choose_split(p.m, p.n, ways)
                                : exec.split;
    if (split != GemmSplit::kRows) {
      const TileGrid grid = make_tile_grid(split, p.m, p.n, ways);
      if (grid.tasks() > 1) {
        run_grid(p, grid);
        return;
      }
      // A 1-task grid means the shape cannot use this split; the row
      // schedule runs it (serially for a single row tile).
    }
  }
  run_rows(p, scratch != nullptr ? reserve(*scratch) : thread_scratch(),
           pooled);
}

// ------------------------------------------------------ integer kernels --
//
// The integer runtime's convolution, gemm_conv_nhwc (gemm.h), on the
// running integer ISA: the AVX2 kernels where the build targets AVX2, the
// one AMX-INT8 kernel on top of them where the CPU and Linux allow it, the
// scalar fallbacks elsewhere.
#if defined(__AVX2__)
#define CSQ_GEMM_AVX2_INT_KERNEL 1
#endif

// The AMX kernel is x86-64 inline assembly on top of the AVX2 baseline,
// built where the compiler's assembler knows the AMX mnemonics and Linux
// grants the tile state.
#if defined(CSQ_GEMM_AVX2_INT_KERNEL) && defined(__x86_64__) &&  \
    defined(__linux__) &&                                         \
    ((defined(__clang__) && __clang_major__ >= 12) ||             \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 11))
#define CSQ_GEMM_AMX_INT_KERNEL 1
#include <cpuid.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

// Depth extent after grouping into K-quads (zero-padded, exact).
inline std::int64_t quad_kc(std::int64_t kc) {
  return (kc + 3) & ~std::int64_t{3};
}

// ------------------------------------------ channels-last convolution ----
//
// gemm_conv_nhwc (gemm.h): C(positions x channels) = image taps * weights,
// the activations as the A operand, read in place. The depth of grid
// position q is kernel_h tap rows of kernel_w * C contiguous image bytes,
// row_step bytes apart, starting at q * pos_step (pos_step = stride * C,
// across output rows too: the grid is as wide as the image's rows). The
// weights are the packed B operand: panels of output channels over the
// depth in (ki, kj, c) order, each tap row zero-padded to `tap` bytes
// (conv_steps), so a kernel reads a few bytes past a tap row, which meet
// zero weights. C is carved into 16-position x 16-channel blocks that
// every ISA computes whole, so a block's accumulators depend on its
// operands alone.

constexpr std::int64_t kConvBlock = 16;

// x rounded up to whole blocks.
inline std::int64_t whole_blocks(std::int64_t x) {
  return (x + kConvBlock - 1) / kConvBlock * kConvBlock;
}

// The depth steps of one tap row: its kernel_w * C bytes in the fewest
// equal steps of at most 64 bytes (one AMX tile row), each whole K-quads.
// `tap` = width * count bytes: a tap row's depth in the packed weights.
struct ConvSteps {
  std::int64_t width, count;
  std::int64_t tap() const { return width * count; }
};
inline ConvSteps conv_steps(const ConvGeometry& geom) {
  const std::int64_t row = geom.kernel_w * geom.channels;
  const std::int64_t count = (row + 63) / 64;
  return {quad_kc((row + count - 1) / count), count};
}

// One sample's convolution: C = weights * image, or (2 hi + lo) * image
// for a split layer (weights = hi, low = lo).
struct ConvCall {
  const std::uint8_t* image;  // the window origin of grid position 0
  std::int64_t pos_step, row_step, kernel_h, tap, step;
  const std::uint8_t* weights;  // the panels, past the blobs' headers
  const std::uint8_t* low;      // null unless split
  std::int32_t* c;
  std::int64_t ldc;
};

// The AVX2 and portable conv: 8x8 micro-tiles (8 positions x 8 channels)
// over 8-channel weight panels in K-groups: int16 K-pairs for s8u8 (codes
// widened while packing), int8 K-quads for the low-bit kinds (raw codes,
// half the panel bandwidth). Entry (depth d, channel j) of a tap row's
// panel sits at [(d / kGroup) * 8 + j] * kGroup + d % kGroup.

#ifdef CSQ_GEMM_AVX2_INT_KERNEL

// Four image bytes broadcast to every 32-bit lane.
inline __m256i broadcast4(const std::uint8_t* p) {
  std::int32_t quad;
  __builtin_memcpy(&quad, p, sizeof(quad));
  return _mm256_set1_epi32(quad);
}

// One 8x8 micro-tile: dot(x, w) folds the activation quad at x into the 8
// channels of the K-quad's weights at w, and w advances one K-quad of
// 8-channel panel per step.
template <typename WElem, typename Dot>
inline void conv_micro_tile(const ConvCall& p, const std::uint8_t* a,
                            const WElem* w, std::int32_t* acc, Dot dot) {
  const std::int64_t s = p.pos_step;
  __m256i c0 = _mm256_setzero_si256(), c1 = _mm256_setzero_si256(),
          c2 = _mm256_setzero_si256(), c3 = _mm256_setzero_si256(),
          c4 = _mm256_setzero_si256(), c5 = _mm256_setzero_si256(),
          c6 = _mm256_setzero_si256(), c7 = _mm256_setzero_si256();
  for (std::int64_t ki = 0; ki < p.kernel_h; ++ki, a += p.row_step) {
    for (std::int64_t d = 0; d < p.tap; d += 4, w += 32) {
      const std::uint8_t* x = a + d;
      c0 = _mm256_add_epi32(c0, dot(x, w));
      c1 = _mm256_add_epi32(c1, dot(x + s, w));
      c2 = _mm256_add_epi32(c2, dot(x + 2 * s, w));
      c3 = _mm256_add_epi32(c3, dot(x + 3 * s, w));
      c4 = _mm256_add_epi32(c4, dot(x + 4 * s, w));
      c5 = _mm256_add_epi32(c5, dot(x + 5 * s, w));
      c6 = _mm256_add_epi32(c6, dot(x + 6 * s, w));
      c7 = _mm256_add_epi32(c7, dot(x + 7 * s, w));
    }
  }
  const __m256i rows[] = {c0, c1, c2, c3, c4, c5, c6, c7};
  for (int i = 0; i < 8; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i * 8), rows[i]);
  }
}

// Low-bit kinds: the quad broadcast against a K-quad row of 8 channels,
// one vpmaddubsw (u8 activations x s8 codes, int16 pair sums) + one
// vpmaddwd against ones. vpmaddubsw saturates its pair sums, each at most
// 255 * (|a0| + |a1|), so |code| <= 64 keeps them exact.
inline void conv_micro(const ConvCall& p, const std::uint8_t* a,
                       const std::int8_t* w, std::int32_t* acc) {
  const __m256i ones = _mm256_set1_epi16(1);
  conv_micro_tile(p, a, w, acc, [&](const std::uint8_t* x,
                                    const std::int8_t* quad) {
    return _mm256_madd_epi16(
        _mm256_maddubs_epi16(
            broadcast4(x),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(quad))),
        ones);
  });
}

// s8u8: the quad's two activation pairs widened to int16 in every lane
// (vpshufb), each fused with its K-pair row of 8 channels by vpmaddwd
// (int16 pair dot -> int32, which cannot saturate at |code| <= 128).
inline void conv_micro(const ConvCall& p, const std::uint8_t* a,
                       const std::int16_t* w, std::int32_t* acc) {
  const __m256i first = _mm256_setr_epi8(
      0, -1, 1, -1, 0, -1, 1, -1, 0, -1, 1, -1, 0, -1, 1, -1, 0, -1, 1, -1, 0,
      -1, 1, -1, 0, -1, 1, -1, 0, -1, 1, -1);
  const __m256i second =
      _mm256_add_epi8(first, _mm256_set1_epi32(0x00020002));
  conv_micro_tile(p, a, w, acc, [&](const std::uint8_t* x,
                                    const std::int16_t* pairs) {
    const __m256i quad = broadcast4(x);
    return _mm256_add_epi32(
        _mm256_madd_epi16(
            _mm256_shuffle_epi8(quad, first),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pairs))),
        _mm256_madd_epi16(
            _mm256_shuffle_epi8(quad, second),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pairs + 16))));
  });
}

#else  // portable fallback over the same panel layouts

template <typename WElem>
inline void conv_micro(const ConvCall& p, const std::uint8_t* a,
                       const WElem* w, std::int32_t* acc) {
  constexpr std::int64_t kGroup = sizeof(WElem) == 2 ? 2 : 4;
  std::fill(acc, acc + kGemmMR * kGemmNR, 0);
  for (std::int64_t ki = 0; ki < p.kernel_h; ++ki, a += p.row_step) {
    for (std::int64_t d = 0; d < p.tap; d += kGroup, w += kGemmNR * kGroup) {
      for (std::int64_t i = 0; i < kGemmMR; ++i) {
        const std::uint8_t* x = a + i * p.pos_step + d;
        for (std::int64_t j = 0; j < kGemmNR; ++j) {
          for (std::int64_t t = 0; t < kGroup; ++t) {
            acc[i * kGemmNR + j] +=
                static_cast<std::int32_t>(w[j * kGroup + t]) * x[t];
          }
        }
      }
    }
  }
}

#endif  // CSQ_GEMM_AVX2_INT_KERNEL

template <typename WElem, std::int64_t kGroupT>
struct StackConv {
  static constexpr std::int64_t kPanel = kGemmNR;
  static constexpr std::int64_t kGroup = kGroupT;
  using Weight = WElem;
  struct State {
    explicit State(std::int64_t /*step*/) {}
  };
  // Blocks of C per task: one.
  static std::int64_t task_rows(std::int64_t /*col_blocks*/, bool /*split*/) {
    return 1;
  }
  static std::int64_t task_cols(std::int64_t /*col_blocks*/, bool /*split*/) {
    return 1;
  }

  static void block(const ConvCall& p, std::int64_t row, std::int64_t col,
                    std::int64_t /*row_blocks*/, std::int64_t /*col_blocks*/) {
    const std::int64_t panel = p.kernel_h * p.tap * kPanel;
    const auto panel_at = [&](const std::uint8_t* weights, std::int64_t j) {
      return reinterpret_cast<const WElem*>(weights) +
             (col + j) / kPanel * panel;
    };
    for (std::int64_t i = 0; i < kConvBlock; i += kGemmMR) {
      const std::uint8_t* a = p.image + (row + i) * p.pos_step;
      for (std::int64_t j = 0; j < kConvBlock; j += kPanel) {
        std::int32_t acc[kGemmMR * kPanel];
        conv_micro(p, a, panel_at(p.weights, j), acc);
        if (p.low != nullptr) {
          std::int32_t low[kGemmMR * kPanel];
          conv_micro(p, a, panel_at(p.low, j), low);
          for (std::int64_t x = 0; x < kGemmMR * kPanel; ++x) {
            acc[x] = 2 * acc[x] + low[x];
          }
        }
        for (std::int64_t r = 0; r < kGemmMR; ++r) {
          std::memcpy(p.c + (row + i + r) * p.ldc + col + j, acc + r * kPanel,
                      sizeof(std::int32_t) * kPanel);
        }
      }
    }
  }
};

using PairConv = StackConv<std::int16_t, 2>;
using QuadConv = StackConv<std::int8_t, 4>;

#ifdef CSQ_GEMM_AMX_INT_KERNEL

// ------------------------------------------------------ AMX-INT8 tiles ----
//
// The tile instructions are inline assembly with a "memory" clobber, not
// <immintrin.h>'s AMX macros: their tileloadd passes only the address in a
// register, so stores to the operands it reads may be moved past it, and
// their ldtilecfg names only the first 8 bytes of the 64-byte
// configuration, so GCC 12 at -O2 drops the stores to a stack-local one
// and the first tile op faults. The configurations are constants.

constexpr std::int64_t kAmxTile = 16;   // C tile rows and int32 columns
constexpr std::int64_t kAmxStep = 64;   // depth bytes per tdpbusd

// The 64-byte ldtilecfg operand (palette 1): per tile register, its bytes
// per row (colsb) and its rows.
struct alignas(64) TileConfig {
  std::uint8_t palette = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};
static_assert(sizeof(TileConfig) == 64, "ldtilecfg reads 64 bytes");

// Loads a tile configuration and releases the tiles when the thread is done
// with the call, so no sleeping pool or replica thread carries live tile
// state.
class AmxTiles {
 public:
  explicit AmxTiles(const TileConfig& config) {
    __asm__ volatile("ldtilecfg %0" ::"m"(config));
  }
  ~AmxTiles() { __asm__ volatile("tilerelease" ::: "memory"); }
  AmxTiles(const AmxTiles&) = delete;
  AmxTiles& operator=(const AmxTiles&) = delete;
};

// Tile register numbers are part of the mnemonic: template constants.
template <int kTile>
inline void tile_load(const void* base, std::int64_t stride) {
  __asm__ volatile("tileloadd (%0,%1,1), %%tmm%c[t]" ::"r"(base),
                   "r"(stride), [t] "i"(kTile)
                   : "memory");
}
template <int kTile>
inline void tile_store(void* base, std::int64_t stride) {
  __asm__ volatile("tilestored %%tmm%c[t], (%0,%1,1)" ::"r"(base),
                   "r"(stride), [t] "i"(kTile)
                   : "memory");
}
template <int kTile>
inline void tile_zero() {
  __asm__ volatile("tilezero %%tmm%c[t]" ::[t] "i"(kTile));
}
// tmm[c] += tmm[a] (u8 rows) * tmm[b] (s8 quads), 16 x 16 int32.
template <int kC, int kA, int kB>
inline void tile_dpbusd() {
  __asm__ volatile("tdpbusd %%tmm%c[b], %%tmm%c[a], %%tmm%c[c]" ::[c] "i"(kC),
                   [a] "i"(kA), [b] "i"(kB));
}

// The channels-last convolution on tiles. A task runs up to four C tiles
// (2 position blocks x 2 channel panels, or up to 4 x 1 where the layer
// has one panel or is split), so each A tile feeds several tdpbusd. Per
// depth step, tileloadd reads A straight from the image (16 positions
// pos_step bytes apart, `step` bytes each) and B from the weights'
// 16-channel K-quad panel rows, and tdpbusd sums the u8 x s8 quads into
// the zeroed int32 C tiles, which are stored straight into C. A split
// layer runs hi twice and lo once per step: C = 2 hi + lo, exactly. Tiles
// 0-3 hold C, 4-5 A and 6-7 B; every step of a call has one width, so one
// configuration covers it.
constexpr TileConfig make_conv_tile_config(std::int64_t step) {
  TileConfig config;
  for (int t = 0; t < 8; ++t) {
    const bool a = t == 4 || t == 5, b = t >= 6;
    config.colsb[t] = static_cast<std::uint16_t>(a ? step : kAmxStep);
    config.rows[t] = static_cast<std::uint8_t>(b ? step / 4 : kAmxTile);
  }
  return config;
}

// One configuration per step width (4, 8, ..., 64 bytes).
struct ConvTileConfigs {
  TileConfig by_step_quads[kAmxStep / 4];
};
constexpr ConvTileConfigs make_conv_tile_configs() {
  ConvTileConfigs configs;
  for (std::int64_t q = 0; q < kAmxStep / 4; ++q) {
    configs.by_step_quads[q] = make_conv_tile_config((q + 1) * 4);
  }
  return configs;
}
constexpr ConvTileConfigs kConvTileConfigs = make_conv_tile_configs();

// fn(std::integral_constant<int, i>) for i < kCount.
template <typename Fn, int... kI>
inline void each_index(Fn& fn, std::integer_sequence<int, kI...>) {
  (fn(std::integral_constant<int, kI>{}), ...);
}
template <int kCount, typename Fn>
inline void each_index(Fn&& fn) {
  each_index(fn, std::make_integer_sequence<int, kCount>{});
}

struct AmxConv {
  static constexpr std::int64_t kPanel = kAmxTile;
  static constexpr std::int64_t kGroup = 4;
  using Weight = std::int8_t;
  struct State : AmxTiles {
    explicit State(std::int64_t step)
        : AmxTiles(kConvTileConfigs.by_step_quads[step / 4 - 1]) {}
  };
  static std::int64_t task_rows(std::int64_t col_blocks, bool split) {
    return col_blocks > 1 && !split ? 2 : 4;
  }
  static std::int64_t task_cols(std::int64_t col_blocks, bool split) {
    return col_blocks > 1 && !split ? 2 : 1;
  }

  static void block(const ConvCall& p, std::int64_t row, std::int64_t col,
                    std::int64_t row_blocks, std::int64_t col_blocks) {
    if (col_blocks == 2) {
      return row_blocks == 2 ? tiles<2, 2>(p, row, col)
                             : tiles<1, 2>(p, row, col);
    }
    switch (row_blocks) {
      case 4:
        return tiles<4, 1>(p, row, col);
      case 3:
        return tiles<3, 1>(p, row, col);
      case 2:
        return tiles<2, 1>(p, row, col);
      default:
        return tiles<1, 1>(p, row, col);
    }
  }

  // kRows position blocks x kPanels channel panels; C tile r * kPanels + j.
  template <int kRows, int kPanels>
  static void tiles(const ConvCall& p, std::int64_t row, std::int64_t col) {
    static_assert(kRows * kPanels <= 4 && kPanels <= 2, "four C tiles");
    const std::int64_t panel = p.kernel_h * p.tap * kPanel;
    const std::int64_t offset = col / kPanel * panel;
    const auto* w = reinterpret_cast<const std::int8_t*>(p.weights) + offset;
    const auto* low =
        p.low == nullptr
            ? nullptr
            : reinterpret_cast<const std::int8_t*>(p.low) + offset;
    each_index<kRows * kPanels>([](auto t) {
      tile_zero<decltype(t)::value>();
    });
    const std::uint8_t* a = p.image + row * p.pos_step;
    for (std::int64_t ki = 0; ki < p.kernel_h; ++ki, a += p.row_step) {
      for (std::int64_t d = 0; d < p.tap; d += p.step) {
        const std::int64_t at = (ki * p.tap + d) * kPanel;
        each_index<kPanels>([&](auto j) {
          constexpr int kJ = decltype(j)::value;
          tile_load<6 + kJ>(w + kJ * panel + at, kAmxStep);
        });
        if constexpr (kPanels == 1) {
          if (low != nullptr) tile_load<7>(low + at, kAmxStep);
        }
        each_index<kRows>([&](auto r) {
          constexpr int kR = decltype(r)::value;
          tile_load<4 + kR % 2>(a + kR * kAmxTile * p.pos_step + d,
                                p.pos_step);
          each_index<kPanels>([&](auto j) {
            constexpr int kJ = decltype(j)::value;
            tile_dpbusd<kR * kPanels + kJ, 4 + kR % 2, 6 + kJ>();
          });
          if constexpr (kPanels == 1) {
            if (low != nullptr) {
              tile_dpbusd<kR, 4 + kR % 2, 6>();
              tile_dpbusd<kR, 4 + kR % 2, 7>();
            }
          }
        });
      }
    }
    each_index<kRows * kPanels>([&](auto t) {
      constexpr int kT = decltype(t)::value;
      tile_store<kT>(p.c + (row + kT / kPanels * kAmxTile) * p.ldc + col +
                         kT % kPanels * kAmxTile,
                     p.ldc * std::int64_t{sizeof(std::int32_t)});
    });
  }
};

#endif  // CSQ_GEMM_AMX_INT_KERNEL

// ------------------------------------------------------- integer ISA ----

// The integer ISA of a build or host that cannot run AMX.
constexpr GemmIntIsa kBaselineIsa =
#ifdef CSQ_GEMM_AVX2_INT_KERNEL
    GemmIntIsa::kAvx2;
#else
    GemmIntIsa::kPortable;
#endif

// The ISA this host runs unforced, probed once per process: whether the
// CPU reports AMX-TILE and AMX-INT8 (CPUID leaf 7, EDX bits 24 and 25) and,
// if so, whether Linux grants the process the AMX tile-data state.
const GemmIntIsaChoice& host_choice() {
  static const GemmIntIsaChoice choice = [] {
#ifdef CSQ_GEMM_AMX_INT_KERNEL
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    const bool cpu_amx =
        __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
        ((edx >> 24) & 1) != 0 && ((edx >> 25) & 1) != 0;
    constexpr long kArchReqXcompPerm = 0x1023;
    constexpr long kXfeatureXtiledata = 18;
    const int refused =
        !cpu_amx || syscall(SYS_arch_prctl, kArchReqXcompPerm,
                            kXfeatureXtiledata) == 0
            ? 0
            : errno;
    return gemm_choose_int_isa(true, cpu_amx, refused);
#else
    return gemm_choose_int_isa(false, false, 0);
#endif
  }();
  return choice;
}

GemmIntIsa host_isa() { return host_choice().isa; }

// ScopedGemmIntIsaForTest's forced ISA, or -1.
std::atomic<std::int32_t> forced_isa{-1};

// The ISA every integer convolution packs and runs on.
GemmIntIsa int_isa() {
  const std::int32_t forced = forced_isa.load();
  return forced >= 0 ? static_cast<GemmIntIsa>(forced) : host_isa();
}

const char* isa_name(GemmIntIsa isa) {
  switch (isa) {
    case GemmIntIsa::kAmx:
      return "amx";
    case GemmIntIsa::kAvx2:
      return "avx2";
    case GemmIntIsa::kPortable:
      break;
  }
  return "portable";
}

// The code range of each kind (gemm.h). It belongs to the kind, not to
// the traits struct that runs it: on AMX hosts one struct runs all three.
struct KindLimits {
  std::int32_t min_code, max_code;
};

KindLimits kind_limits(PackedKernel kind) {
  switch (kind) {
    case PackedKernel::kS8U8:
      return {-128, 127};
    case PackedKernel::kLowBit:
    case PackedKernel::kLowBitWide:
      return {-64, 64};
  }
  CSQ_CHECK(false) << "gemm: unknown packed kernel "
                   << static_cast<int>(kind);
  return {};
}

// The exactness bound of gemm.h: k <= 32767, so int32 accumulation of the
// split chain cannot wrap; also rejects an unknown kind.
void check_extents(PackedKernel kind, std::int64_t oc, std::int64_t k) {
  kind_limits(kind);
  CSQ_CHECK(oc >= 0 && k >= 0) << "integer conv: negative extent";
  CSQ_CHECK(k <= 32767) << "integer conv: reduction depth " << k
                        << " would overflow int32 accumulation";
}

// Throws unless every code of a packing call is in its kind's exact range.
void check_codes(PackedKernel kind, std::int64_t m, std::int64_t k,
                 const std::int8_t* a, std::int64_t lda, const char* what) {
  const KindLimits limits = kind_limits(kind);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const std::int32_t v = a[i * lda + p];
      CSQ_CHECK(v >= limits.min_code && v <= limits.max_code)
          << what << ": code " << v << " outside [" << limits.min_code
          << ", " << limits.max_code << "], the range this kind is exact for";
    }
  }
}

// ---------------------------------------- channels-last conv driver ----

// The traits type that runs a conv of `kind` on `isa`.
template <typename Fn>
decltype(auto) with_conv_kernel(GemmIntIsa isa, PackedKernel kind, Fn&& fn) {
  kind_limits(kind);
#ifdef CSQ_GEMM_AMX_INT_KERNEL
  if (isa == GemmIntIsa::kAmx) return fn(AmxConv{});
#else
  (void)isa;
#endif
  return kind == PackedKernel::kS8U8 ? fn(PairConv{}) : fn(QuadConv{});
}

// Packed conv weights open with the layout they were packed for, and
// every call that runs them checks it: weights packed under one ISA, kind
// or geometry must fail under another, not compute. 16 bytes keep the
// panels' alignment.
struct ConvHeader {
  std::int16_t isa, kind, kernel_h, kernel_w;
  std::int32_t channels, oc;
};
static_assert(sizeof(ConvHeader) == 16, "conv weights header is 16 bytes");

ConvHeader conv_header(GemmIntIsa isa, PackedKernel kind,
                       const ConvGeometry& geom, std::int64_t oc) {
  return {static_cast<std::int16_t>(isa), static_cast<std::int16_t>(kind),
          static_cast<std::int16_t>(geom.kernel_h),
          static_cast<std::int16_t>(geom.kernel_w),
          static_cast<std::int32_t>(geom.channels),
          static_cast<std::int32_t>(oc)};
}

// K's panels of the (oc x C*kh*kw) codes: per kPanel output channels, per
// tap row, its tap bytes in K-groups, zero past the tap row and past oc.
template <typename K>
void pack_conv(const std::int8_t* codes, const ConvGeometry& geom,
               std::int64_t oc, std::int64_t ldc, typename K::Weight* dst) {
  const std::int64_t tap = conv_steps(geom).tap();
  const std::int64_t row = geom.kernel_w * geom.channels;
  const std::int64_t taps = geom.kernel_h * geom.kernel_w;
  const std::int64_t depth = geom.col_rows();
  for (std::int64_t o0 = 0; o0 < ldc; o0 += K::kPanel) {
    for (std::int64_t ki = 0; ki < geom.kernel_h; ++ki) {
      for (std::int64_t d0 = 0; d0 < tap; d0 += K::kGroup) {
        for (std::int64_t j = 0; j < K::kPanel; ++j) {
          for (std::int64_t t = 0; t < K::kGroup; ++t) {
            const std::int64_t o = o0 + j, d = d0 + t;
            const std::int64_t kj = d / geom.channels, c = d % geom.channels;
            *dst++ = o < oc && d < row
                         ? codes[o * depth + c * taps + ki * geom.kernel_w + kj]
                         : 0;
          }
        }
      }
    }
  }
}

// Runs every 16x16 block of C of every sample, in tasks of K's task_rows x
// task_cols blocks of one sample, in order, on the calling thread or across
// the pool; each thread holds one K::State for its share.
template <typename K>
void run_conv(const ConvCall& p, std::int64_t rows, std::int64_t batch,
              std::int64_t image_stride, std::int64_t c_stride, bool pooled) {
  const std::int64_t row_blocks = rows / kConvBlock;
  const std::int64_t col_blocks = p.ldc / kConvBlock;
  const bool split = p.low != nullptr;
  const std::int64_t task_rows = K::task_rows(col_blocks, split);
  const std::int64_t task_cols = K::task_cols(col_blocks, split);
  const std::int64_t col_tasks = (col_blocks + task_cols - 1) / task_cols;
  const std::int64_t sample_tasks =
      (row_blocks + task_rows - 1) / task_rows * col_tasks;
  const auto run = [&](std::int64_t begin, std::int64_t end) {
    const typename K::State state(p.step);
    for (std::int64_t t = begin; t < end; ++t) {
      const std::int64_t sample = t / sample_tasks;
      const std::int64_t task = t % sample_tasks;
      ConvCall q = p;
      q.image += sample * image_stride;
      q.c += sample * c_stride;
      const std::int64_t rb = task / col_tasks * task_rows;
      const std::int64_t cb = task % col_tasks * task_cols;
      K::block(q, rb * kConvBlock, cb * kConvBlock,
               std::min(task_rows, row_blocks - rb),
               std::min(task_cols, col_blocks - cb));
    }
  };
  if (pooled) {
    parallel_for_chunked(0, batch * sample_tasks, run);
  } else {
    run(0, batch * sample_tasks);
  }
}

}  // namespace

GemmSplit gemm_choose_split(std::int64_t m, std::int64_t n, int ways) {
  const int w = resolve_split_ways(ways);
  const std::int64_t ic_tiles = (m + kGemmMC - 1) / kGemmMC;
  const std::int64_t col_panels = (n + kGemmNR - 1) / kGemmNR;
  if (w <= 1 || col_panels <= 1) return GemmSplit::kRows;
  if (ic_tiles >= w) return GemmSplit::kRows;
  if (ic_tiles <= 1) return GemmSplit::kCols;
  return GemmSplit::kGrid;
}

std::int64_t gemm_split_task_count(GemmSplit split, std::int64_t m,
                                   std::int64_t n, int ways) {
  if (m <= 0 || n <= 0) return 1;
  const int w = resolve_split_ways(ways);
  if (split == GemmSplit::kAuto) split = gemm_choose_split(m, n, w);
  if (split == GemmSplit::kRows) return (m + kGemmMC - 1) / kGemmMC;
  return make_tile_grid(split, m, n, w).tasks();
}

void gemm(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc, GemmScratch* scratch, GemmExec exec) {
  CSQ_CHECK(m >= 0 && n >= 0 && k >= 0) << "gemm: negative extent";
  CSQ_CHECK(trans_a == Trans::no || trans_b == Trans::no)
      << "gemm TT is not implemented (unused in this library)";
  if (m == 0 || n == 0) return;
  if (alpha == 0.0f || k == 0) {
    apply_beta(0, m, n, beta, c, ldc);
    return;
  }
  run(Problem<MatrixB>{m, n, k, trans_a, a, lda, trans_b, b, ldb, c, ldc,
                       alpha, beta},
      scratch, exec);
}

void gemm_conv(Trans trans_b, std::int64_t m, float alpha, const float* a,
               std::int64_t lda, const ConvGeometry& geom, const float* padded,
               float beta, float* c, std::int64_t ldc, GemmScratch* scratch,
               GemmExec exec) {
  CSQ_CHECK(m >= 0) << "gemm_conv: negative extent";
  geom.validate();
  const bool columns = trans_b == Trans::no;
  const std::int64_t n = columns ? geom.col_cols() : geom.col_rows();
  const std::int64_t k = columns ? geom.col_rows() : geom.col_cols();
  if (m == 0) return;
  if (alpha == 0.0f) {
    apply_beta(0, m, n, beta, c, ldc);
    return;
  }
  const ConvSource src(geom, padded);
  run(Problem<ConvB>{m, n, k, Trans::no, a, lda, trans_b, &src, 0, c, ldc,
                     alpha, beta},
      scratch, exec);
}

GemmIntIsaChoice gemm_choose_int_isa(bool build_has_amx, bool cpu_has_amx,
                                     int xtiledata_errno) {
  if (!build_has_amx || !cpu_has_amx) return {kBaselineIsa, ""};
  if (xtiledata_errno == 0) return {GemmIntIsa::kAmx, ""};
  return {kBaselineIsa,
          "the CPU has AMX-INT8 but the kernel refused XTILEDATA: errno " +
              std::to_string(xtiledata_errno)};
}

const char* gemm_int_kernel_isa() { return isa_name(int_isa()); }

std::string gemm_int_isa_summary() {
  std::string summary = gemm_int_kernel_isa();
  const std::string& fallback = host_choice().fallback;
  if (!fallback.empty()) summary += " (" + fallback + ")";
  return summary;
}

bool gemm_int_isa_supported(GemmIntIsa isa) {
  return isa == kBaselineIsa || isa == host_isa();
}

ScopedGemmIntIsaForTest::ScopedGemmIntIsaForTest(GemmIntIsa isa)
    : previous_(forced_isa.load()) {
  CSQ_CHECK(gemm_int_isa_supported(isa))
      << "gemm: this build or host cannot run the " << isa_name(isa)
      << " integer kernels";
  forced_isa.store(static_cast<std::int32_t>(isa));
}

ScopedGemmIntIsaForTest::~ScopedGemmIntIsaForTest() {
  forced_isa.store(previous_);
}

bool gemm_s8u8_wide_eligible(std::int64_t k, std::int32_t max_abs_a) {
  if (k <= 0) return true;
  if (max_abs_a < 0) max_abs_a = -max_abs_a;
  if (max_abs_a > 64) return false;
  // The bound of an int16 lane that sums quad_kc(kc) / 4 pair sums of at
  // most 2 * 255 * max|a| each over one KC-depth block (gemm.h).
  const std::int64_t kc = std::min(k, kGemmKC);
  const std::int64_t block_positions = quad_kc(kc);
  return (block_positions / 2) * 255 *
             static_cast<std::int64_t>(max_abs_a) <=
         32767;
}

ConvGrid gemm_conv_grid(const ConvGeometry& geom, std::int64_t pitch,
                        std::int64_t oc) {
  geom.validate();
  CSQ_CHECK(pitch >= geom.padded_w() && oc > 0)
      << "gemm_conv_nhwc: pitch " << pitch << " narrower than the padded "
      << geom.padded_w() << "-pixel row, or " << oc << " output channels";
  ConvGrid grid;
  grid.rows = whole_blocks((geom.out_h() - 1) * pitch + geom.out_w());
  grid.ldc = whole_blocks(oc);
  grid.reach = (grid.rows - 1) * geom.stride * geom.channels +
               (geom.kernel_h - 1) * pitch * geom.channels +
               conv_steps(geom).tap();
  return grid;
}

std::int64_t gemm_conv_weights_bytes(PackedKernel kind,
                                     const ConvGeometry& geom,
                                     std::int64_t oc) {
  return with_conv_kernel(int_isa(), kind, [&](auto kernel) {
    using K = decltype(kernel);
    return static_cast<std::int64_t>(sizeof(ConvHeader)) +
           whole_blocks(oc) * geom.kernel_h * conv_steps(geom).tap() *
               static_cast<std::int64_t>(sizeof(typename K::Weight));
  });
}

void gemm_pack_conv_weights(PackedKernel kind, const ConvGeometry& geom,
                            std::int64_t oc, const std::int8_t* codes,
                            std::uint8_t* packed) {
  const GemmIntIsa isa = int_isa();
  const std::int64_t k = geom.col_rows();
  geom.validate();
  check_extents(kind, oc, k);
  check_codes(kind, oc, k, codes, k, "gemm_pack_conv_weights");
  const ConvHeader header = conv_header(isa, kind, geom, oc);
  std::memcpy(packed, &header, sizeof(header));
  with_conv_kernel(isa, kind, [&](auto kernel) {
    using K = decltype(kernel);
    pack_conv<K>(codes, geom, oc, whole_blocks(oc),
                 reinterpret_cast<typename K::Weight*>(packed +
                                                       sizeof(ConvHeader)));
  });
}

void gemm_conv_nhwc(PackedKernel kind, const ConvGeometry& geom,
                    std::int64_t pitch, std::int64_t oc,
                    const std::uint8_t* weights,
                    const std::uint8_t* low_weights, std::int64_t batch,
                    const std::uint8_t* image, std::int64_t image_stride,
                    std::int32_t* c, std::int64_t c_stride, bool pooled) {
  const GemmIntIsa isa = int_isa();
  const ConvGrid grid = gemm_conv_grid(geom, pitch, oc);
  check_extents(kind, oc, geom.col_rows());
  CSQ_CHECK(batch >= 0 && (low_weights == nullptr ||
                            kind == PackedKernel::kS8U8))
      << "gemm_conv_nhwc: negative batch, or a split layer of kind "
      << static_cast<int>(kind);
  const ConvHeader expected = conv_header(isa, kind, geom, oc);
  for (const std::uint8_t* blob : {weights, low_weights}) {
    if (blob == nullptr) continue;
    ConvHeader header;
    std::memcpy(&header, blob, sizeof(header));
    CSQ_CHECK(std::memcmp(&header, &expected, sizeof(header)) == 0)
        << "gemm_conv_nhwc: kind " << header.kind << " weights packed for "
        << isa_name(static_cast<GemmIntIsa>(header.isa)) << " as "
        << header.oc << " x " << header.channels << "x" << header.kernel_h
        << "x" << header.kernel_w << " run as kind " << static_cast<int>(kind)
        << " on " << isa_name(isa) << " as " << oc << " x " << geom.channels
        << "x" << geom.kernel_h << "x" << geom.kernel_w;
  }
  const ConvSteps steps = conv_steps(geom);
  const ConvCall call{
      image,
      geom.stride * geom.channels,
      pitch * geom.channels,
      geom.kernel_h,
      steps.tap(),
      steps.width,
      weights + sizeof(ConvHeader),
      low_weights == nullptr ? nullptr : low_weights + sizeof(ConvHeader),
      c,
      grid.ldc};
  pooled = pooled && 2 * batch * grid.rows * grid.ldc * geom.kernel_h *
                             steps.tap() >=
                         (1 << 18);
  with_conv_kernel(isa, kind, [&](auto kernel) {
    run_conv<decltype(kernel)>(call, grid.rows, batch, image_stride, c_stride,
                               pooled);
  });
}

}  // namespace csq