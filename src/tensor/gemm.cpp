#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <optional>
#include <type_traits>

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
// x one column stripe aligned to the kernel's panel width `nr` (see the
// determinism contract in gemm.h). Stripes are capped at kGemmNC columns so
// the per-task packed panel keeps the row schedule's cache footprint.

struct TileGrid {
  std::int64_t row_groups = 1;         // groups of consecutive MC row tiles
  std::int64_t tiles_per_group = 1;    // MC tiles per group (last may be short)
  std::int64_t col_stripes = 1;        // nr-aligned column stripes
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
                        int ways, std::int64_t nr) {
  const std::int64_t ic_tiles = (m + kGemmMC - 1) / kGemmMC;
  const std::int64_t col_panels = (n + nr - 1) / nr;
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
      std::min<std::int64_t>(grid.panels_per_stripe, kGemmNC / nr);
  grid.col_stripes =
      (col_panels + grid.panels_per_stripe - 1) / grid.panels_per_stripe;
  return grid;
}

// gemm_choose_split for panels `nr` columns wide.
GemmSplit choose_split(std::int64_t m, std::int64_t n, int ways,
                       std::int64_t nr) {
  const int w = resolve_split_ways(ways);
  const std::int64_t ic_tiles = (m + kGemmMC - 1) / kGemmMC;
  const std::int64_t col_panels = (n + nr - 1) / nr;
  if (w <= 1 || col_panels <= 1) return GemmSplit::kRows;
  if (ic_tiles >= w) return GemmSplit::kRows;
  if (ic_tiles <= 1) return GemmSplit::kCols;
  return GemmSplit::kGrid;
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

// ---------------------------------------------------------- kernel traits --
//
// Each family's traits struct is everything the driver below knows about
// it: element types, its micro-tile (kMR x kNR), the padded packed depth of
// a KC block (`depth`; a kMR-tall A~ micro-panel holds kMR * depth
// elements), the A~ source of one (ic, pc) tile, pack_b, `tile` (one
// micro-tile: the micro-kernel fused with the C-tile update) and
// `TileState`, which every thread running tiles of a call holds while it
// does (the AMX kernel configures its tile registers there).

// The TileState of the families that keep no per-thread state.
struct NoTileState {
  explicit NoTileState(std::int64_t /*k*/) {}
};

struct F32Kernel {
  static constexpr std::int64_t kMR = kGemmMR;
  static constexpr std::int64_t kNR = kGemmNR;
  using TileState = NoTileState;
  using AElem = float;
  using BIn = float;
  using BElem = float;
  using CElem = float;
  struct ASource {
    Trans trans;
    const float* a;
    std::int64_t lda;
  };
  struct Epilogue {
    float alpha, beta;
  };
  static std::int64_t depth(std::int64_t kc) { return kc; }

  // op(A) is packed per tile into the scratch of the thread running it.
  static const float* a_tile(const ASource& src, std::int64_t ic,
                             std::int64_t pc, std::int64_t mc, std::int64_t kc,
                             std::int64_t /*a_offset*/, GemmScratch& scratch) {
    float* dst = panel<float>(scratch.packed_a);
    pack_a_panel(src.trans, src.a, src.lda, ic, pc, mc, kc, dst);
    return dst;
  }

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

  static void tile(const float* pa, const float* pb, std::int64_t kc,
                   float* c, std::int64_t ldc, std::int64_t m_sub,
                   std::int64_t n_sub, const Epilogue& e, bool first_pc) {
    float acc[kMR * kNR];
    micro_kernel_f32(pa, pb, kc, acc);
    update(c, ldc, acc, m_sub, n_sub, e, first_pc);
  }

  // C tile update: c = beta_eff * c + alpha * acc over the valid m_sub x
  // n_sub region, beta_eff = beta at pc == 0 and 1 after. beta_eff == 0
  // never reads C (NaN/garbage safe).
  static void update(float* c, std::int64_t ldc, const float* acc,
                     std::int64_t m_sub, std::int64_t n_sub,
                     const Epilogue& e, bool first_pc) {
    const float alpha = e.alpha;
    const float beta_eff = first_pc ? e.beta : 1.0f;
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
};

// The unfolded convolution matrix as a B source (gemm_conv). Row r of
// im2col's matrix is the tap (c, ki, kj) = (r / taps, r % taps / kw,
// r % kw) and column j the output position (oy, ox) = (j / out_w,
// j % out_w); its element is the padded image at row oy * stride + ki,
// column ox * stride + kj. The two halves of that address are walked for a
// run of consecutive taps or positions at a time, so a run costs one
// division however short its panels are. `T` is the image element: float
// for gemm_conv, uint8 activation codes for gemm_packed_conv.
template <typename T>
struct ConvSource {
  const T* image;  // padded, channels x padded_h x padded_w
  std::int64_t row, plane;  // padded row and channel pitch, in elements
  std::int64_t kernel_h, kernel_w, stride, out_w;

  ConvSource(const ConvGeometry& geom, const T* padded)
      : image(padded),
        row(geom.padded_w()),
        plane(geom.padded_h() * geom.padded_w()),
        kernel_h(geom.kernel_h),
        kernel_w(geom.kernel_w),
        stride(geom.stride),
        out_w(geom.out_w()) {}

  // out[i] = the window origin of tap first + i, for i < count.
  void tap_bases(std::int64_t first, std::int64_t count,
                 const T** out) const {
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

// F32Kernel with B packed from a ConvSource: the same A~, micro-kernel and
// C update, and B~ panels byte-equal to F32Kernel::pack_b over im2col's
// matrix (zero padding comes from the padded image, tails are zero-filled).
struct F32ConvKernel : F32Kernel {
  using BIn = ConvSource<float>;

  static void pack_b(Trans trans, const BIn* b, std::int64_t /*ldb*/,
                     std::int64_t pc, std::int64_t jc, std::int64_t kc,
                     std::int64_t nc, float* dst) {
    const BIn& src = *b;
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

// ------------------------------------------------------ integer kernel ----
//
// Same blocking scheme as the float path. The s8u8 kernel of AVX2 and
// portable builds (AMX hosts run AmxKernel below) widens operands to
// int16 while packing, laid out in K-PAIRS: consecutive depth steps 2p and
// 2p+1 sit adjacent per row/column, so the AVX2 micro-kernel fuses them
// with one vpmaddwd (int16 pair dot -> int32, no saturation possible at
// |a| <= 255, |b| <= 255). Odd kc tails are zero-padded (exact).
//
// A~ pair layout: panels MR-tall; entry (p, i) at [(p/2)*MR + i]*2 + p%2.
// B~ pair layout: panels NR-wide; entry (p, j) at [(p/2)*NR + j]*2 + p%2.

// Depth extent after pairing (elements per packed row/column).
inline std::int64_t paired_kc(std::int64_t kc) { return (kc + 1) & ~1; }

#if defined(__AVX2__)
#define CSQ_GEMM_AVX2_INT_KERNEL 1
#endif

// The AMX kernel is x86-64 inline assembly on top of the AVX2 baseline
// (its conv packing reuses the AVX2 interleave), built where the compiler's
// assembler knows the AMX mnemonics and Linux grants the tile state.
#if defined(CSQ_GEMM_AVX2_INT_KERNEL) && defined(__x86_64__) &&  \
    defined(__linux__) &&                                         \
    ((defined(__clang__) && __clang_major__ >= 12) ||             \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 11))
#define CSQ_GEMM_AMX_INT_KERNEL 1
#include <cpuid.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#ifdef CSQ_GEMM_AVX2_INT_KERNEL

static_assert(kGemmMR == 8 && kGemmNR == 8,
              "AVX2 integer micro-kernel assumes an 8x8 tile");

// Reads one packed int16 A pair as its int32 broadcast payload. memcpy (not
// a reinterpret_cast dereference) keeps the int16-store/int32-load pattern
// well-defined under strict aliasing; it compiles to the same vpbroadcastd.
inline std::int32_t load_a_pair(const std::int16_t* p) {
  std::int32_t pair;
  __builtin_memcpy(&pair, p, sizeof(pair));
  return pair;
}

// One vpbroadcastd per packed A pair, one vpmaddwd + vpaddd per accumulator
// row: the same instruction-per-MAC budget as the float kernel's
// broadcast-FMA form.
inline void micro_kernel_int(const std::int16_t* pa, const std::int16_t* pb,
                             std::int64_t kc, std::int32_t* acc) {
  const std::int64_t pairs = paired_kc(kc) / 2;
  __m256i c0 = _mm256_setzero_si256(), c1 = _mm256_setzero_si256(),
          c2 = _mm256_setzero_si256(), c3 = _mm256_setzero_si256(),
          c4 = _mm256_setzero_si256(), c5 = _mm256_setzero_si256(),
          c6 = _mm256_setzero_si256(), c7 = _mm256_setzero_si256();
  for (std::int64_t p = 0; p < pairs; ++p) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pb + p * kGemmNR * 2));
    const std::int16_t* a_col = pa + p * kGemmMR * 2;
    c0 = _mm256_add_epi32(
        c0, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 0)), b));
    c1 = _mm256_add_epi32(
        c1, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 2)), b));
    c2 = _mm256_add_epi32(
        c2, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 4)), b));
    c3 = _mm256_add_epi32(
        c3, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 6)), b));
    c4 = _mm256_add_epi32(
        c4, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 8)), b));
    c5 = _mm256_add_epi32(
        c5, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 10)), b));
    c6 = _mm256_add_epi32(
        c6, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 12)), b));
    c7 = _mm256_add_epi32(
        c7, _mm256_madd_epi16(_mm256_set1_epi32(load_a_pair(a_col + 14)), b));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 0 * 8), c0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 1 * 8), c1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 2 * 8), c2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 3 * 8), c3);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 4 * 8), c4);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 5 * 8), c5);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 6 * 8), c6);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 7 * 8), c7);
}

#else  // portable fallback over the same pair layout

inline void micro_kernel_int(const std::int16_t* pa, const std::int16_t* pb,
                             std::int64_t kc, std::int32_t* acc) {
  const std::int64_t pairs = paired_kc(kc) / 2;
  for (std::int64_t x = 0; x < kGemmMR * kGemmNR; ++x) acc[x] = 0;
  for (std::int64_t p = 0; p < pairs; ++p) {
    const std::int16_t* a_col = pa + p * kGemmMR * 2;
    const std::int16_t* b_row = pb + p * kGemmNR * 2;
    for (std::int64_t i = 0; i < kGemmMR; ++i) {
      const std::int32_t a0 = a_col[i * 2];
      const std::int32_t a1 = a_col[i * 2 + 1];
      std::int32_t* acc_row = acc + i * kGemmNR;
      for (std::int64_t j = 0; j < kGemmNR; ++j) {
        acc_row[j] += a0 * b_row[j * 2] + a1 * b_row[j * 2 + 1];
      }
    }
  }
}

#endif  // CSQ_GEMM_AVX2_INT_KERNEL

// Integer families: A~ is a slice of the prepacked blob. `kGroup` is the K
// grouping (2 = pairs, 4 = quads) and `kTile` the micro-tile's rows and
// columns.
template <typename AElemT, typename BElemT, std::int64_t kGroup,
          std::int64_t kTile>
struct IntKernel {
  static constexpr std::int64_t kMR = kTile;
  static constexpr std::int64_t kNR = kTile;
  static_assert(kGemmMC % kMR == 0 && kGemmNC % kNR == 0,
                "MC and NC must be multiples of the micro-tile");
  using TileState = NoTileState;
  using AElem = AElemT;
  using BIn = std::uint8_t;
  using BElem = BElemT;
  using CElem = std::int32_t;
  using ASource = const AElem*;
  struct Epilogue {
    std::int32_t alpha;
    bool accumulate;
  };
  static constexpr std::int64_t kDepthGroup = kGroup;
  static std::int64_t depth(std::int64_t kc) {
    return (kc + kGroup - 1) / kGroup * kGroup;
  }

  // Packed index of depth step p in row/column i of a `width`-wide panel:
  // kGroup consecutive steps sit adjacent per row/column.
  static std::int64_t slot(std::int64_t p, std::int64_t i, std::int64_t width) {
    return ((p / kGroup) * width + i) * kGroup + p % kGroup;
  }

  // A is (m x k) row-major int8 (the weight codes); panels kMR-tall,
  // zero-padded.
  static void pack_a(const std::int8_t* a, std::int64_t lda, std::int64_t pc,
                     std::int64_t mc, std::int64_t kc, AElem* dst) {
    for (std::int64_t r = 0; r < mc; r += kMR) {
      const std::int64_t rows = std::min(kMR, mc - r);
      std::fill(dst, dst + kMR * depth(kc), AElem{0});
      for (std::int64_t i = 0; i < rows; ++i) {
        const std::int8_t* src = a + (r + i) * lda + pc;
        for (std::int64_t p = 0; p < kc; ++p) dst[slot(p, i, kMR)] = src[p];
      }
      dst += kMR * depth(kc);
    }
  }

  // op(B) is (k x n) uint8 activation codes; panels kNR-wide, zero-padded.
  static void pack_b(Trans trans, const std::uint8_t* b, std::int64_t ldb,
                     std::int64_t pc, std::int64_t jc, std::int64_t kc,
                     std::int64_t nc, BElem* dst) {
    for (std::int64_t s = 0; s < nc; s += kNR) {
      const std::int64_t cols = std::min(kNR, nc - s);
      std::fill(dst, dst + kNR * depth(kc), BElem{0});
      if (trans == Trans::no) {
        for (std::int64_t p = 0; p < kc; ++p) {
          const std::uint8_t* src = b + (pc + p) * ldb + jc + s;
          for (std::int64_t j = 0; j < cols; ++j) {
            dst[slot(p, j, kNR)] = src[j];
          }
        }
      } else {
        for (std::int64_t j = 0; j < cols; ++j) {
          const std::uint8_t* src = b + (jc + s + j) * ldb + pc;
          for (std::int64_t p = 0; p < kc; ++p) {
            dst[slot(p, j, kNR)] = src[p];
          }
        }
      }
      dst += kNR * depth(kc);
    }
  }

  // The blob holds every kMR panel of the full m extent per KC block, so a
  // tile's panels start at its block's offset plus ic / kMR panels.
  static const AElem* a_tile(ASource blob, std::int64_t ic, std::int64_t,
                             std::int64_t, std::int64_t kc,
                             std::int64_t a_offset, GemmScratch&) {
    return blob + a_offset + (ic / kMR) * kMR * depth(kc);
  }

  // C = alpha * acc, or C += alpha * acc with `accumulate` or past pc == 0.
  static void update(std::int32_t* c, std::int64_t ldc,
                     const std::int32_t* acc, std::int64_t m_sub,
                     std::int64_t n_sub, const Epilogue& e, bool first_pc) {
    const std::int32_t alpha = e.alpha;
    const bool add_into_c = e.accumulate || !first_pc;
    for (std::int64_t i = 0; i < m_sub; ++i) {
      std::int32_t* c_row = c + i * ldc;
      const std::int32_t* acc_row = acc + i * kNR;
      if (add_into_c) {
        for (std::int64_t j = 0; j < n_sub; ++j) c_row[j] += alpha * acc_row[j];
      } else {
        for (std::int64_t j = 0; j < n_sub; ++j) c_row[j] = alpha * acc_row[j];
      }
    }
  }
};

// The families of AVX2 and portable builds: an 8x8 micro-kernel fills a
// stack accumulator tile that update() then folds into C.
template <typename AElemT, typename BElemT, std::int64_t kGroup,
          void (*kMicroKernel)(const AElemT*, const BElemT*, std::int64_t,
                               std::int32_t*)>
struct StackTileKernel : IntKernel<AElemT, BElemT, kGroup, kGemmMR> {
  using Base = IntKernel<AElemT, BElemT, kGroup, kGemmMR>;
  static void tile(const AElemT* pa, const BElemT* pb, std::int64_t kc,
                   std::int32_t* c, std::int64_t ldc, std::int64_t m_sub,
                   std::int64_t n_sub, const typename Base::Epilogue& e,
                   bool first_pc) {
    std::int32_t acc[Base::kMR * Base::kNR];
    kMicroKernel(pa, pb, kc, acc);
    Base::update(c, ldc, acc, m_sub, n_sub, e, first_pc);
  }
};

using S8U8Kernel =
    StackTileKernel<std::int16_t, std::int16_t, 2, micro_kernel_int>;

// ----------------------------------------------- low-bit K-quad kernels --
//
// The low-bit family keeps raw 8-bit operands in the packed panels and lays
// depth out in K-QUADS: steps 4q..4q+3 adjacent per row/column, fused by one
// vpmaddubsw (u8 activations * s8 weight codes, int16 pair sums) and one
// vpmaddwd against ones. Saturation analysis: each int16 pair sum is at most
// 255 * (|a0| + |a1|), so |a| <= 64 per code keeps vpmaddubsw exact — the
// pack routines enforce it. Quad tails are zero-padded (exact).
//
// A~ quad layout (low-bit): panels MR-tall; entry (p, i) at
//   [(p/4)*MR + i]*4 + p%4   (one int8 per code).
// B~ quad layout: panels NR-wide; entry (p, j) at [(p/4)*NR + j]*4 + p%4
//   (one uint8 per activation code — half the widened int16 panel traffic).

inline std::int64_t quad_kc(std::int64_t kc) {
  return (kc + 3) & ~std::int64_t{3};
}

#ifdef CSQ_GEMM_AVX2_INT_KERNEL

// Broadcasts one packed A quad (4 consecutive int8 codes) to every 32-bit
// lane. Same strict-aliasing-safe memcpy idiom as load_a_pair.
inline __m256i broadcast_a_quad(const std::int8_t* p) {
  std::int32_t quad;
  __builtin_memcpy(&quad, p, sizeof(quad));
  return _mm256_set1_epi32(quad);
}

// One vpmaddubsw (u8 B * s8 A quad, pair sums) + one vpmaddwd (pair-of-pairs
// widen) + vpaddd per accumulator row: four depth steps per instruction
// triple — twice the widened baseline's MAC throughput.
inline void micro_kernel_lowbit(const std::int8_t* pa, const std::uint8_t* pb,
                                std::int64_t kc, std::int32_t* acc) {
  const std::int64_t quads = quad_kc(kc) / 4;
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i c0 = _mm256_setzero_si256(), c1 = _mm256_setzero_si256(),
          c2 = _mm256_setzero_si256(), c3 = _mm256_setzero_si256(),
          c4 = _mm256_setzero_si256(), c5 = _mm256_setzero_si256(),
          c6 = _mm256_setzero_si256(), c7 = _mm256_setzero_si256();
  for (std::int64_t q = 0; q < quads; ++q) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pb + q * kGemmNR * 4));
    const std::int8_t* a_col = pa + q * kGemmMR * 4;
    c0 = _mm256_add_epi32(
        c0, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 0)), ones));
    c1 = _mm256_add_epi32(
        c1, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 4)), ones));
    c2 = _mm256_add_epi32(
        c2, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 8)), ones));
    c3 = _mm256_add_epi32(
        c3, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 12)), ones));
    c4 = _mm256_add_epi32(
        c4, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 16)), ones));
    c5 = _mm256_add_epi32(
        c5, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 20)), ones));
    c6 = _mm256_add_epi32(
        c6, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 24)), ones));
    c7 = _mm256_add_epi32(
        c7, _mm256_madd_epi16(
                _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 28)), ones));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 0 * 8), c0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 1 * 8), c1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 2 * 8), c2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 3 * 8), c3);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 4 * 8), c4);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 5 * 8), c5);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 6 * 8), c6);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 7 * 8), c7);
}

// Same layout, int16 accumulators: the vpmaddwd widen runs ONCE per KC
// block instead of once per quad. Exact only under the wide-eligibility
// bound (per-lane sum <= quads * 2 * 255 * max|a| <= 32767) — the vpaddw
// would otherwise wrap; the dispatcher never selects this kernel without
// proving the bound.
inline void micro_kernel_lowbit_wide(const std::int8_t* pa,
                                     const std::uint8_t* pb, std::int64_t kc,
                                     std::int32_t* acc) {
  const std::int64_t quads = quad_kc(kc) / 4;
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i s0 = _mm256_setzero_si256(), s1 = _mm256_setzero_si256(),
          s2 = _mm256_setzero_si256(), s3 = _mm256_setzero_si256(),
          s4 = _mm256_setzero_si256(), s5 = _mm256_setzero_si256(),
          s6 = _mm256_setzero_si256(), s7 = _mm256_setzero_si256();
  for (std::int64_t q = 0; q < quads; ++q) {
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(pb + q * kGemmNR * 4));
    const std::int8_t* a_col = pa + q * kGemmMR * 4;
    s0 = _mm256_add_epi16(
        s0, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 0)));
    s1 = _mm256_add_epi16(
        s1, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 4)));
    s2 = _mm256_add_epi16(
        s2, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 8)));
    s3 = _mm256_add_epi16(
        s3, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 12)));
    s4 = _mm256_add_epi16(
        s4, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 16)));
    s5 = _mm256_add_epi16(
        s5, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 20)));
    s6 = _mm256_add_epi16(
        s6, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 24)));
    s7 = _mm256_add_epi16(
        s7, _mm256_maddubs_epi16(b, broadcast_a_quad(a_col + 28)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 0 * 8),
                      _mm256_madd_epi16(s0, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 1 * 8),
                      _mm256_madd_epi16(s1, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 2 * 8),
                      _mm256_madd_epi16(s2, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 3 * 8),
                      _mm256_madd_epi16(s3, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 4 * 8),
                      _mm256_madd_epi16(s4, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 5 * 8),
                      _mm256_madd_epi16(s5, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 6 * 8),
                      _mm256_madd_epi16(s6, ones));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 7 * 8),
                      _mm256_madd_epi16(s7, ones));
}

#else  // portable fallbacks over the same quad layouts

inline void micro_kernel_lowbit(const std::int8_t* pa, const std::uint8_t* pb,
                                std::int64_t kc, std::int32_t* acc) {
  const std::int64_t quads = quad_kc(kc) / 4;
  for (std::int64_t x = 0; x < kGemmMR * kGemmNR; ++x) acc[x] = 0;
  for (std::int64_t q = 0; q < quads; ++q) {
    const std::int8_t* a_col = pa + q * kGemmMR * 4;
    const std::uint8_t* b_row = pb + q * kGemmNR * 4;
    for (std::int64_t i = 0; i < kGemmMR; ++i) {
      std::int32_t* acc_row = acc + i * kGemmNR;
      const std::int8_t* a_quad = a_col + i * 4;
      for (std::int64_t j = 0; j < kGemmNR; ++j) {
        const std::uint8_t* b_quad = b_row + j * 4;
        acc_row[j] += static_cast<std::int32_t>(a_quad[0]) * b_quad[0] +
                      static_cast<std::int32_t>(a_quad[1]) * b_quad[1] +
                      static_cast<std::int32_t>(a_quad[2]) * b_quad[2] +
                      static_cast<std::int32_t>(a_quad[3]) * b_quad[3];
      }
    }
  }
}

// Exact integer math has one result: under the eligibility bound the wide
// kernel computes the same dot products, so the portable form is shared.
inline void micro_kernel_lowbit_wide(const std::int8_t* pa,
                                     const std::uint8_t* pb, std::int64_t kc,
                                     std::int32_t* acc) {
  micro_kernel_lowbit(pa, pb, kc, acc);
}

#endif  // CSQ_GEMM_AVX2_INT_KERNEL

using LowBitKernel =
    StackTileKernel<std::int8_t, std::uint8_t, 4, micro_kernel_lowbit>;
using LowBitWideKernel =
    StackTileKernel<std::int8_t, std::uint8_t, 4, micro_kernel_lowbit_wide>;

#ifdef CSQ_GEMM_AMX_INT_KERNEL

// ------------------------------------------------------ AMX-INT8 tiles ----
//
// Every kind on an AMX host runs 16x16 tdpbsud tiles: each int32 lane of
// the C tile gains the four s8 A x u8 B products of each depth quad, summed
// straight into int32. No int16 intermediate exists, so no int8 code
// saturates and int32 headroom is the only bound — the one every kind
// already enforces (k <= 32767, |alpha| within its range).
//
// A~ panels are 16 rows of int8 codes, row-major over the quad-padded KC
// depth, so one tile row is 64 consecutive depth bytes of a weight row.
// B~ panels are the uint8 K-quad layout at 16 columns, so one tile row is
// one depth quad of all 16 columns. KC is a multiple of 64: a call's only
// partial depth step is its last KC block's depth mod 64, and one tile
// configuration per call and thread covers it (TileState).
//
// The tile instructions are inline assembly with a "memory" clobber, not
// <immintrin.h>'s AMX macros: their tileloadd passes only the address in a
// register, so stores to the panels it reads may be moved past it, and
// their ldtilecfg names only the first 8 bytes of the 64-byte
// configuration, so GCC 12 at -O2 drops the stores to a stack-local one
// and the first tile op faults. The configurations are constants.

constexpr std::int64_t kAmxTile = 16;   // C tile rows and int32 columns
constexpr std::int64_t kAmxStep = 64;   // depth bytes per tdpbsud
static_assert(kGemmKC % kAmxStep == 0,
              "only a call's last KC block may end in a partial tile step");

// The 64-byte ldtilecfg operand (palette 1). tmm0 holds the C tile,
// tmm1/tmm2 a whole 64-deep step of A and B, tmm3/tmm4 the partial step of
// `tail` depth bytes (unconfigured when tail is 0).
struct alignas(64) TileConfig {
  std::uint8_t palette = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};
static_assert(sizeof(TileConfig) == 64, "ldtilecfg reads 64 bytes");

constexpr TileConfig make_tile_config(std::int64_t tail) {
  TileConfig config;
  for (int t = 0; t < 3; ++t) {
    config.colsb[t] = kAmxStep;
    config.rows[t] = kAmxTile;
  }
  if (tail > 0) {
    config.colsb[3] = static_cast<std::uint16_t>(tail);
    config.rows[3] = kAmxTile;
    config.colsb[4] = kAmxStep;
    config.rows[4] = static_cast<std::uint8_t>(tail / 4);
  }
  return config;
}

// One configuration per quad-padded tail depth (0, 4, ..., 60).
struct TileConfigs {
  TileConfig by_tail_quads[kAmxStep / 4];
};
constexpr TileConfigs make_tile_configs() {
  TileConfigs configs;
  for (std::int64_t q = 0; q < kAmxStep / 4; ++q) {
    configs.by_tail_quads[q] = make_tile_config(q * 4);
  }
  return configs;
}
constexpr TileConfigs kTileConfigs = make_tile_configs();

// Tile register numbers are part of the mnemonic, hence macros.
#define CSQ_TILE_LOAD(tmm, base, stride)                          \
  __asm__ volatile("tileloadd (%0,%1,1), %%tmm" #tmm ::"r"(base), \
                   "r"(stride)                                    \
                   : "memory")
#define CSQ_TILE_STORE(tmm, base, stride)                          \
  __asm__ volatile("tilestored %%tmm" #tmm ", (%0,%1,1)" ::"r"(base), \
                   "r"(stride)                                     \
                   : "memory")
#define CSQ_TILE_ZERO(tmm) __asm__ volatile("tilezero %%tmm" #tmm ::)
// tmm[c] += tmm[a] (s8, 16 x 64 bytes) * tmm[b] (u8 quads, 16 x 16).
#define CSQ_TILE_DPBSUD(c, a, b) \
  __asm__ volatile("tdpbsud %%tmm" #b ", %%tmm" #a ", %%tmm" #c ::)

struct AmxKernel : IntKernel<std::int8_t, std::uint8_t, 4, kAmxTile> {
  // A~: kMR-row panels, each row the kc codes of a weight row, zero-padded
  // to the quad depth (and past the last row).
  static void pack_a(const std::int8_t* a, std::int64_t lda, std::int64_t pc,
                     std::int64_t mc, std::int64_t kc, std::int8_t* dst) {
    const std::int64_t row = depth(kc);
    for (std::int64_t r = 0; r < mc; r += kMR) {
      const std::int64_t rows = std::min(kMR, mc - r);
      std::fill(dst, dst + kMR * row, std::int8_t{0});
      for (std::int64_t i = 0; i < rows; ++i) {
        std::memcpy(dst + i * row, a + (r + i) * lda + pc,
                    static_cast<std::size_t>(kc));
      }
      dst += kMR * row;
    }
  }

  // Loads the tile configuration of a depth-k call and releases the tiles
  // when the thread is done with the call, so no sleeping pool or replica
  // thread carries live tile state.
  class TileState {
   public:
    explicit TileState(std::int64_t k) {
      const std::int64_t last_kc = k - (k - 1) / kGemmKC * kGemmKC;
      const TileConfig& config =
          kTileConfigs.by_tail_quads[depth(last_kc) % kAmxStep / 4];
      __asm__ volatile("ldtilecfg %0" ::"m"(config));
    }
    ~TileState() { __asm__ volatile("tilerelease" ::: "memory"); }
    TileState(const TileState&) = delete;
    TileState& operator=(const TileState&) = delete;
  };

  // One 16x16 C tile over a KC block. With alpha 1 a full tile runs on C
  // itself: loaded when accumulating (or past pc == 0), else zeroed, and
  // stored straight back. Edge tiles and other alphas (the split chain's
  // alpha-2 hi pass) go through a stack tile and update().
  static void tile(const std::int8_t* pa, const std::uint8_t* pb,
                   std::int64_t kc, std::int32_t* c, std::int64_t ldc,
                   std::int64_t m_sub, std::int64_t n_sub, const Epilogue& e,
                   bool first_pc) {
    const std::int64_t row = depth(kc);
    const std::int64_t c_stride = ldc * std::int64_t{sizeof(std::int32_t)};
    const bool in_place = e.alpha == 1 && m_sub == kMR && n_sub == kNR;
    if (in_place && (e.accumulate || !first_pc)) {
      CSQ_TILE_LOAD(0, c, c_stride);
    } else {
      CSQ_TILE_ZERO(0);
    }
    std::int64_t p = 0;
    for (; p + kAmxStep <= row; p += kAmxStep) {
      CSQ_TILE_LOAD(1, pa + p, row);
      CSQ_TILE_LOAD(2, pb + p * kNR, kAmxStep);
      CSQ_TILE_DPBSUD(0, 1, 2);
    }
    if (p < row) {
      CSQ_TILE_LOAD(3, pa + p, row);
      CSQ_TILE_LOAD(4, pb + p * kNR, kAmxStep);
      CSQ_TILE_DPBSUD(0, 3, 4);
    }
    if (in_place) {
      CSQ_TILE_STORE(0, c, c_stride);
      return;
    }
    std::int32_t acc[kMR * kNR];
    CSQ_TILE_STORE(0, acc, kNR * std::int64_t{sizeof(std::int32_t)});
    update(c, ldc, acc, m_sub, n_sub, e, first_pc);
  }
};

#undef CSQ_TILE_LOAD
#undef CSQ_TILE_STORE
#undef CSQ_TILE_ZERO
#undef CSQ_TILE_DPBSUD

#endif  // CSQ_GEMM_AMX_INT_KERNEL

#ifdef CSQ_GEMM_AVX2_INT_KERNEL
// One K-group row of a kNR-wide B~ panel from kGroup tap rows, each in the
// low kNR bytes of a register: dst[j * kGroup + g] = byte j of rows[g] —
// int16 K-pairs for s8u8 (8 wide), uint8 K-quads for the low-bit kinds
// (8 wide) and AMX (16 wide).
template <std::int64_t kGroup, std::int64_t kNR, typename BElem>
inline void interleave_rows(const __m128i (&rows)[kGroup], BElem* dst) {
  static_assert(kNR == 8 || (kNR == 16 && kGroup == 4),
                "8-wide pairs or quads, or 16-wide quads");
  const __m128i pairs = _mm_unpacklo_epi8(rows[0], rows[1]);
  if constexpr (kGroup == 2) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                        _mm256_cvtepu8_epi16(pairs));
  } else {
    const __m128i high_pairs = _mm_unpacklo_epi8(rows[2], rows[3]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm_unpacklo_epi16(pairs, high_pairs));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                     _mm_unpackhi_epi16(pairs, high_pairs));
    if constexpr (kNR == 16) {  // columns 8..15
      const __m128i pairs8 = _mm_unpackhi_epi8(rows[0], rows[1]);
      const __m128i high_pairs8 = _mm_unpackhi_epi8(rows[2], rows[3]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 32),
                       _mm_unpacklo_epi16(pairs8, high_pairs8));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 48),
                       _mm_unpackhi_epi16(pairs8, high_pairs8));
    }
  }
}

// Four bytes from an unaligned address, in the low lane.
inline __m128i load4(const std::uint8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return _mm_cvtsi32_si128(v);
}

// The kNR bytes of one tap row at positions that form kNR / kRun runs of
// kRun consecutive bytes, run r starting at tap + starts[r], gathered in
// order into the low kNR bytes of a register.
template <std::int64_t kNR, std::int64_t kRun>
inline __m128i load_runs(const std::uint8_t* tap, const std::int64_t* starts) {
  if constexpr (kRun == 16) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(tap + starts[0]));
  } else if constexpr (kRun == 8) {
    const __m128i first =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(tap + starts[0]));
    if constexpr (kNR == 8) return first;
    return _mm_unpacklo_epi64(
        first,
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(tap + starts[1])));
  } else {
    static_assert(kRun == 4, "runs of 16, 8 or 4 bytes");
    const __m128i first =
        _mm_unpacklo_epi32(load4(tap + starts[0]), load4(tap + starts[1]));
    if constexpr (kNR == 8) return first;
    return _mm_unpacklo_epi64(
        first,
        _mm_unpacklo_epi32(load4(tap + starts[2]), load4(tap + starts[3])));
  }
}
#endif  // CSQ_GEMM_AVX2_INT_KERNEL

// interleave_rows over kGroup staged kNR-byte rows.
template <std::int64_t kGroup, std::int64_t kNR, typename BElem>
inline void interleave_group(const std::uint8_t (&rows)[kGroup][kNR],
                             BElem* dst) {
#ifdef CSQ_GEMM_AVX2_INT_KERNEL
  __m128i regs[kGroup];
  for (std::int64_t g = 0; g < kGroup; ++g) {
    regs[g] = kNR == 16 ? _mm_loadu_si128(
                              reinterpret_cast<const __m128i*>(rows[g]))
                        : _mm_loadl_epi64(
                              reinterpret_cast<const __m128i*>(rows[g]));
  }
  interleave_rows<kGroup, kNR>(regs, dst);
#else
  for (std::int64_t j = 0; j < kNR; ++j) {
    for (std::int64_t g = 0; g < kGroup; ++g) dst[j * kGroup + g] = rows[g][j];
  }
#endif
}

// True when the kNR panel positions at image offsets `at` form runs of
// `run` consecutive bytes: offsets rise by at least 1 per step, so a run's
// last offset is `run - 1` past its first exactly when it has no gap.
template <std::int64_t kNR>
bool in_runs(const std::int64_t (&at)[kNR], std::int64_t run) {
  for (std::int64_t r = 0; r < kNR; r += run) {
    if (at[r + run - 1] - at[r] != run - 1) return false;
  }
  return true;
}

// An integer kernel with B packed from a ConvSource<uint8_t>
// (gemm_packed_conv): Base's A~, micro-tile and C update, and B~ panels
// byte-equal to Base::pack_b over im2col_u8's matrix. The border already
// holds the edge's zero point (pad_image's fill); depth and column tails
// are zero-filled as Base::pack_b fills them. Each full panel is classed
// once by its positions' image offsets: one kNR-byte run (stride 1 within
// one output row), two kNR/2-byte runs (each half in one row, as 16-wide
// panels on 8-wide outputs or 8-wide ones on 4-wide outputs), four 4-byte
// runs (16-wide panels on 4-wide outputs) or none. In AVX2 builds every
// whole K-group of a run panel loads each tap's runs straight into a
// register and interleaves them there. The depth tail, gather panels and
// portable builds stage kGroup kNR-byte rows first.
template <typename Base, std::int64_t kGroup>
struct IntConvKernel : Base {
  using BIn = ConvSource<std::uint8_t>;
  using BElem = typename Base::BElem;
  static constexpr std::int64_t kNR = Base::kNR;

  static void pack_b(Trans /*trans*/, const BIn* b, std::int64_t /*ldb*/,
                     std::int64_t pc, std::int64_t jc, std::int64_t kc,
                     std::int64_t nc, BElem* dst) {
    const BIn& src = *b;
    const std::uint8_t* taps[kGemmKC];
    src.tap_bases(pc, kc, taps);
    const std::int64_t kcg = Base::depth(kc);
    for (std::int64_t s = 0; s < nc; s += kNR) {
      const std::int64_t cols = std::min(kNR, nc - s);
      std::int64_t at[kNR];
      src.position_offsets(jc + s, cols, at);
      const bool adjacent = cols == kNR && in_runs(at, kNR);
      std::int64_t p = 0;
#ifdef CSQ_GEMM_AVX2_INT_KERNEL
      const auto load_groups = [&](auto run) {
        constexpr std::int64_t kRun = decltype(run)::value;
        std::int64_t starts[kNR / kRun];
        for (std::int64_t r = 0; r < kNR / kRun; ++r) starts[r] = at[r * kRun];
        for (; p + kGroup <= kc; p += kGroup) {
          __m128i runs[kGroup];
          for (std::int64_t g = 0; g < kGroup; ++g) {
            runs[g] = load_runs<kNR, kRun>(taps[p + g], starts);
          }
          interleave_rows<kGroup, kNR>(runs, dst + p * kNR);
        }
      };
      using Run = std::integral_constant<std::int64_t, kNR>;
      using HalfRun = std::integral_constant<std::int64_t, kNR / 2>;
      using QuadRun = std::integral_constant<std::int64_t, 4>;
      if (adjacent) {
        load_groups(Run{});
      } else if (cols == kNR && in_runs(at, kNR / 2)) {
        load_groups(HalfRun{});
      } else if (kNR == 16 && cols == kNR && in_runs(at, 4)) {
        load_groups(QuadRun{});
      }
#endif
      for (; p < kcg; p += kGroup) {
        std::uint8_t rows[kGroup][kNR];
        for (std::int64_t g = 0; g < kGroup; ++g) {
          if (p + g >= kc) {
            std::memset(rows[g], 0, kNR);
          } else if (adjacent) {
            std::memcpy(rows[g], taps[p + g] + at[0], kNR);
          } else {
            std::int64_t j = 0;
            for (; j < cols; ++j) rows[g][j] = taps[p + g][at[j]];
            for (; j < kNR; ++j) rows[g][j] = 0;
          }
        }
        interleave_group<kGroup, kNR>(rows, dst + p * kNR);
      }
      dst += kNR * kcg;
    }
  }
};

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

// The ISA every integer GEMM call packs and runs on.
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

// The exactness contract of each kind (gemm.h): its code range and
// |alpha|. It belongs to the kind, not to the traits struct that runs it:
// on AMX hosts one struct runs all three.
struct KindLimits {
  std::int32_t min_code, max_code, max_alpha;
};

KindLimits kind_limits(PackedKernel kind) {
  switch (kind) {
    case PackedKernel::kS8U8:
      return {-128, 127, 2};
    case PackedKernel::kLowBit:
    case PackedKernel::kLowBitWide:
      return {-64, 64, 8};
  }
  CSQ_CHECK(false) << "gemm: unknown packed kernel "
                   << static_cast<int>(kind);
  return {};
}

// Runs `fn` with a value of the traits type that runs `kind` on `isa`.
template <typename Fn>
decltype(auto) with_kernel(GemmIntIsa isa, PackedKernel kind, Fn&& fn) {
  kind_limits(kind);  // rejects an unknown kind on every ISA
#ifdef CSQ_GEMM_AMX_INT_KERNEL
  if (isa == GemmIntIsa::kAmx) return fn(AmxKernel{});
#else
  (void)isa;
#endif
  switch (kind) {
    case PackedKernel::kLowBit:
      return fn(LowBitKernel{});
    case PackedKernel::kLowBitWide:
      return fn(LowBitWideKernel{});
    case PackedKernel::kS8U8:
      break;
  }
  return fn(S8U8Kernel{});
}

// Every packed A blob opens with the layout gemm_pack_a wrote it in, and
// every call that runs a blob checks it: panels packed under one ISA, kind
// or shape must fail under another, not compute. 16 bytes keep the
// panels' alignment.
struct PackedHeader {
  std::int16_t isa, kind;
  std::int32_t k;
  std::int64_t m;
};
static_assert(sizeof(PackedHeader) == 16, "packed-A header is 16 bytes");

// A~ elements of one KC block: the kMR panels of the whole m extent.
template <typename K>
std::int64_t a_block_size(std::int64_t m, std::int64_t kc) {
  return (m + K::kMR - 1) / K::kMR * K::kMR * K::depth(kc);
}

// ---------------------------------------------------------------- driver --

template <typename K>
struct Problem {
  std::int64_t m, n, k;
  typename K::ASource a;
  Trans trans_b;
  const typename K::BIn* b;
  std::int64_t ldb;
  typename K::CElem* c;
  std::int64_t ldc;
  typename K::Epilogue epilogue;
};

// One (jc, pc) step of the loop nest; a_offset is the pc block's offset in
// a prepacked A blob (a function of m and pc only).
struct Block {
  std::int64_t jc, nc, pc, kc, a_offset;
};

// One MC-tall row tile of C inside a (jc, pc) block: sweeps the jr/ir
// micro-tile grid over the packed B~ (read-only, possibly shared). The
// executing thread holds a K::TileState for the call.
template <typename K>
void run_tile(const Problem<K>& p, const Block& blk, std::int64_t ic,
              const typename K::BElem* packed_b, GemmScratch& scratch) {
  const std::int64_t mc = std::min(kGemmMC, p.m - ic);
  const typename K::AElem* packed_a =
      K::a_tile(p.a, ic, blk.pc, mc, blk.kc, blk.a_offset, scratch);
  const std::int64_t a_stride = K::kMR * K::depth(blk.kc);
  const std::int64_t b_stride = K::kNR * K::depth(blk.kc);
  for (std::int64_t jr = 0; jr < blk.nc; jr += K::kNR) {
    const std::int64_t n_sub = std::min(K::kNR, blk.nc - jr);
    const typename K::BElem* pb = packed_b + (jr / K::kNR) * b_stride;
    for (std::int64_t ir = 0; ir < mc; ir += K::kMR) {
      const std::int64_t m_sub = std::min(K::kMR, mc - ir);
      K::tile(packed_a + (ir / K::kMR) * a_stride, pb, blk.kc,
              p.c + (ic + ir) * p.ldc + blk.jc + jr, p.ldc, m_sub, n_sub,
              p.epilogue, blk.pc == 0);
    }
  }
}

// Row schedule: B~ is packed once per (jc, pc) on the calling thread and
// shared by the whole ic sweep, which runs in order or across the pool. A
// serial sweep holds one TileState for the call; a pooled one, one per
// chunk of row tiles.
template <typename K>
void run_rows(const Problem<K>& p, GemmScratch& scratch, bool pooled) {
  using BElem = typename K::BElem;
  const std::int64_t ic_tiles = (p.m + kGemmMC - 1) / kGemmMC;
  const bool serial = !pooled || ic_tiles <= 1;
  std::optional<typename K::TileState> tiles;
  if (serial) tiles.emplace(p.k);
  BElem* packed_b = panel<BElem>(scratch.packed_b);
  for (std::int64_t jc = 0; jc < p.n; jc += kGemmNC) {
    Block blk{jc, std::min(kGemmNC, p.n - jc), 0, 0, 0};
    for (; blk.pc < p.k; blk.pc += kGemmKC) {
      blk.kc = std::min(kGemmKC, p.k - blk.pc);
      K::pack_b(p.trans_b, p.b, p.ldb, blk.pc, jc, blk.kc, blk.nc, packed_b);
      if (serial) {
        for (std::int64_t t = 0; t < ic_tiles; ++t) {
          run_tile(p, blk, t * kGemmMC, packed_b, scratch);
        }
      } else {
        struct TileContext {
          const Problem<K>* p;
          const Block* blk;
          const BElem* packed_b;
        } ctx{&p, &blk, packed_b};
        // Single-reference capture keeps the closure inside std::function's
        // small-buffer optimization: no allocation per dispatch.
        parallel_for_chunked(
            0, ic_tiles, [&ctx](std::int64_t begin, std::int64_t end) {
              GemmScratch& own = thread_scratch();
              const typename K::TileState chunk_tiles(ctx.p->k);
              for (std::int64_t t = begin; t < end; ++t) {
                run_tile(*ctx.p, *ctx.blk, t * kGemmMC, ctx.packed_b, own);
              }
            });
      }
      blk.a_offset += a_block_size<K>(p.m, blk.kc);
    }
  }
}

// Column/grid schedule: every task owns a (row-tile group x column stripe)
// block of C and runs the ascending pc loop itself, packing B~ for its
// stripe into the executing thread's scratch. Each chunk of tasks holds one
// TileState.
template <typename K>
void run_grid(const Problem<K>& p, const TileGrid& grid) {
  struct GridContext {
    const Problem<K>* p;
    TileGrid grid;
    std::int64_t ic_tiles;
  } ctx{&p, grid, (p.m + kGemmMC - 1) / kGemmMC};
  parallel_for_chunked(
      0, grid.tasks(), [&ctx](std::int64_t begin, std::int64_t end) {
        const Problem<K>& p = *ctx.p;
        GemmScratch& scratch = thread_scratch();
        const typename K::TileState tiles(p.k);
        typename K::BElem* packed_b =
            panel<typename K::BElem>(scratch.packed_b);
        const std::int64_t stripe_cols =
            ctx.grid.panels_per_stripe * K::kNR;
        for (std::int64_t t = begin; t < end; ++t) {
          const std::int64_t group = t / ctx.grid.col_stripes;
          const std::int64_t jc = (t % ctx.grid.col_stripes) * stripe_cols;
          const std::int64_t tile_begin = group * ctx.grid.tiles_per_group;
          const std::int64_t tile_end = std::min(
              tile_begin + ctx.grid.tiles_per_group, ctx.ic_tiles);
          Block blk{jc, std::min(stripe_cols, p.n - jc), 0, 0, 0};
          for (; blk.pc < p.k; blk.pc += kGemmKC) {
            blk.kc = std::min(kGemmKC, p.k - blk.pc);
            K::pack_b(p.trans_b, p.b, p.ldb, blk.pc, jc, blk.kc, blk.nc,
                      packed_b);
            for (std::int64_t tile = tile_begin; tile < tile_end; ++tile) {
              run_tile(p, blk, tile * kGemmMC, packed_b, scratch);
            }
            blk.a_offset += a_block_size<K>(p.m, blk.kc);
          }
        }
      });
}

// Picks the schedule. Only fans out when there is enough arithmetic to
// amortize the pool wakeup and the call is not nested in a parallel region.
template <typename K>
void run(const Problem<K>& p, GemmScratch* scratch, const GemmExec& exec) {
  const bool pooled = exec.pooled && 2 * p.m * p.n * p.k >= (1 << 18) &&
                      !inside_parallel_region();
  if (pooled) {
    const int ways = resolve_split_ways(exec.ways);
    const GemmSplit split = exec.split == GemmSplit::kAuto
                                ? choose_split(p.m, p.n, ways, K::kNR)
                                : exec.split;
    if (split != GemmSplit::kRows) {
      const TileGrid grid = make_tile_grid(split, p.m, p.n, ways, K::kNR);
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

// The exactness bounds of gemm.h: alpha within the kind's derived range
// and k <= 32767, so int32 accumulation cannot wrap.
void check_packed_extents(PackedKernel kind, std::int64_t m, std::int64_t n,
                          std::int64_t k, std::int32_t alpha) {
  const std::int32_t max_alpha = kind_limits(kind).max_alpha;
  CSQ_CHECK(m >= 0 && n >= 0 && k >= 0) << "gemm_packed: negative extent";
  CSQ_CHECK(alpha >= -max_alpha && alpha <= max_alpha)
      << "gemm_packed: alpha " << alpha << " outside the [-" << max_alpha
      << ", " << max_alpha << "] range the exactness bound is derived for";
  CSQ_CHECK(k <= 32767) << "gemm_packed: reduction depth " << k
                        << " would overflow int32 accumulation";
}

// The checks shared by gemm_packed and gemm_packed_conv: the kind's
// exactness bounds and the blob's header, then the degenerate shapes.
// Returns the blob's panels, or null when C needs no GEMM (it is then
// already what the GEMM would leave).
const std::uint8_t* packed_panels(GemmIntIsa isa, PackedKernel kind,
                                  std::int64_t m, std::int64_t n,
                                  std::int64_t k, std::int32_t alpha,
                                  const std::uint8_t* packed_a,
                                  bool accumulate, std::int32_t* c,
                                  std::int64_t ldc) {
  check_packed_extents(kind, m, n, k, alpha);
  PackedHeader header;
  std::memcpy(&header, packed_a, sizeof(header));
  CSQ_CHECK(header.isa == static_cast<std::int16_t>(isa) &&
            header.kind == static_cast<std::int16_t>(kind))
      << "gemm_packed: kind " << header.kind << " panels packed for "
      << isa_name(static_cast<GemmIntIsa>(header.isa)) << " run as kind "
      << static_cast<int>(kind) << " on " << isa_name(isa)
      << "; repack them under the running ISA";
  CSQ_CHECK(header.m == m && header.k == k)
      << "gemm_packed: panels packed for " << header.m << "x" << header.k
      << " codes run as " << m << "x" << k;
  if (m == 0 || n == 0) return nullptr;
  if (alpha == 0 || k == 0) {
    if (!accumulate) {
      for (std::int64_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0);
      }
    }
    return nullptr;
  }
  return packed_a + sizeof(PackedHeader);
}

}  // namespace

GemmSplit gemm_choose_split(std::int64_t m, std::int64_t n, int ways) {
  return choose_split(m, n, ways, kGemmNR);
}

std::int64_t gemm_split_task_count(GemmSplit split, std::int64_t m,
                                   std::int64_t n, int ways) {
  if (m <= 0 || n <= 0) return 1;
  const int w = resolve_split_ways(ways);
  if (split == GemmSplit::kAuto) split = gemm_choose_split(m, n, w);
  if (split == GemmSplit::kRows) return (m + kGemmMC - 1) / kGemmMC;
  return make_tile_grid(split, m, n, w, kGemmNR).tasks();
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
  run(Problem<F32Kernel>{m, n, k, {trans_a, a, lda}, trans_b, b, ldb, c, ldc,
                         {alpha, beta}},
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
  const ConvSource<float> src(geom, padded);
  run(Problem<F32ConvKernel>{m, n, k, {Trans::no, a, lda}, trans_b, &src, 0,
                             c, ldc, {alpha, beta}},
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

std::int64_t gemm_packed_a_bytes(PackedKernel kind, std::int64_t m,
                                 std::int64_t k) {
  return with_kernel(int_isa(), kind, [&](auto kernel) {
    using K = decltype(kernel);
    std::int64_t total = 0;
    for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
      total += a_block_size<K>(m, std::min(kGemmKC, k - pc));
    }
    return static_cast<std::int64_t>(sizeof(PackedHeader)) +
           total * static_cast<std::int64_t>(sizeof(typename K::AElem));
  });
}

void gemm_pack_a(PackedKernel kind, std::int64_t m, std::int64_t k,
                 const std::int8_t* a, std::int64_t lda, std::uint8_t* packed) {
  const GemmIntIsa isa = int_isa();
  check_packed_extents(kind, m, 0, k, 1);
  const KindLimits limits = kind_limits(kind);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const std::int32_t v = a[i * lda + p];
      CSQ_CHECK(v >= limits.min_code && v <= limits.max_code)
          << "gemm_pack_a: code " << v << " outside [" << limits.min_code
          << ", " << limits.max_code << "], the range this kind is exact for";
    }
  }
  const PackedHeader header{static_cast<std::int16_t>(isa),
                            static_cast<std::int16_t>(kind),
                            static_cast<std::int32_t>(k), m};
  std::memcpy(packed, &header, sizeof(header));
  with_kernel(isa, kind, [&](auto kernel) {
    using K = decltype(kernel);
    auto* dst =
        reinterpret_cast<typename K::AElem*>(packed + sizeof(PackedHeader));
    for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
      const std::int64_t kc = std::min(kGemmKC, k - pc);
      K::pack_a(a, lda, pc, m, kc, dst);
      dst += a_block_size<K>(m, kc);
    }
  });
}

bool gemm_s8u8_wide_eligible(std::int64_t k, std::int32_t max_abs_a) {
  if (k <= 0) return true;
  if (max_abs_a < 0) max_abs_a = -max_abs_a;
  if (max_abs_a > 64) return false;
  // Per int16 lane, one KC-depth block accumulates quad_kc(kc)/4 pair sums
  // of at most 2 * 255 * max|a| each.
  const std::int64_t kc = std::min(k, kGemmKC);
  const std::int64_t block_positions = (kc + 3) & ~std::int64_t{3};
  return (block_positions / 2) * 255 *
             static_cast<std::int64_t>(max_abs_a) <=
         32767;
}

void gemm_packed(PackedKernel kind, Trans trans_b, std::int64_t m,
                 std::int64_t n, std::int64_t k, std::int32_t alpha,
                 const std::uint8_t* packed_a, const std::uint8_t* b,
                 std::int64_t ldb, bool accumulate, std::int32_t* c,
                 std::int64_t ldc, GemmExec exec) {
  const GemmIntIsa isa = int_isa();
  const std::uint8_t* panels = packed_panels(isa, kind, m, n, k, alpha,
                                             packed_a, accumulate, c, ldc);
  if (panels == nullptr) return;
  with_kernel(isa, kind, [&](auto kernel) {
    using K = decltype(kernel);
    run(Problem<K>{m, n, k, reinterpret_cast<const typename K::AElem*>(panels),
                   trans_b, b, ldb, c, ldc, {alpha, accumulate}},
        nullptr, exec);
  });
}

void gemm_packed_conv(PackedKernel kind, std::int64_t m, std::int32_t alpha,
                      const std::uint8_t* packed_a, const ConvGeometry& geom,
                      const std::uint8_t* padded, bool accumulate,
                      std::int32_t* c, std::int64_t ldc, GemmExec exec) {
  geom.validate();
  const std::int64_t n = geom.col_cols(), k = geom.col_rows();
  const GemmIntIsa isa = int_isa();
  const std::uint8_t* panels = packed_panels(isa, kind, m, n, k, alpha,
                                             packed_a, accumulate, c, ldc);
  if (panels == nullptr) return;
  const ConvSource<std::uint8_t> src(geom, padded);
  with_kernel(isa, kind, [&](auto kernel) {
    using K = IntConvKernel<decltype(kernel), decltype(kernel)::kDepthGroup>;
    run(Problem<K>{m, n, k, reinterpret_cast<const typename K::AElem*>(panels),
                   Trans::no, &src, 0, c, ldc, {alpha, accumulate}},
        nullptr, exec);
  });
}

}  // namespace csq
