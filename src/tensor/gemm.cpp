#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

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
// x one NR-aligned column stripe (see the determinism contract in gemm.h).
// Stripes are capped at kGemmNC columns so the per-task packed panel keeps
// the row schedule's cache footprint.

struct TileGrid {
  std::int64_t row_groups = 1;         // groups of consecutive MC row tiles
  std::int64_t tiles_per_group = 1;    // MC tiles per group (last may be short)
  std::int64_t col_stripes = 1;        // NR-aligned column stripes
  std::int64_t panels_per_stripe = 1;  // NR panels per stripe (last may be short)
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

inline Vec8 load8(const float* p) {
  Vec8 r;
  __builtin_memcpy(&r, p, sizeof(r));  // unaligned vector load
  return r;
}

inline void micro_kernel_f32(const float* pa, const float* pb,
                             std::int64_t kc, float* acc) {
  Vec8 c0{}, c1{}, c2{}, c3{}, c4{}, c5{}, c6{}, c7{};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* a_col = pa + p * kGemmMR;
    const Vec8 b = load8(pb + p * kGemmNR);
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
// it: element types, the padded packed depth of a KC block (`depth`; an
// MR-tall A~ micro-panel holds MR * depth elements), the A~ source of one
// (ic, pc) tile, pack_b, the micro-kernel and the C-tile update.

struct F32Kernel {
  using AElem = float;
  using BIn = float;
  using BElem = float;
  using Acc = float;
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

  static void micro_kernel(const float* pa, const float* pb, std::int64_t kc,
                           float* acc) {
    micro_kernel_f32(pa, pb, kc, acc);
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
// Same blocking scheme as the float path. Operands are widened to int16
// while packing, laid out in K-PAIRS: consecutive depth steps 2p and 2p+1
// sit adjacent per row/column, so the AVX2 micro-kernel fuses them with one
// vpmaddwd (int16 pair dot -> int32, no saturation possible at |a| <= 255,
// |b| <= 255). Odd kc tails are zero-padded (exact).
//
// A~ pair layout: panels MR-tall; entry (p, i) at [(p/2)*MR + i]*2 + p%2.
// B~ pair layout: panels NR-wide; entry (p, j) at [(p/2)*NR + j]*2 + p%2.

// Depth extent after pairing (elements per packed row/column).
inline std::int64_t paired_kc(std::int64_t kc) { return (kc + 1) & ~1; }

#if defined(__AVX2__)
#define CSQ_GEMM_AVX2_INT_KERNEL 1
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
// grouping (2 = pairs, 4 = quads).
template <typename AElemT, typename BElemT, std::int64_t kGroup>
struct IntKernel {
  using AElem = AElemT;
  using BIn = std::uint8_t;
  using BElem = BElemT;
  using Acc = std::int32_t;
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

  // A is (m x k) row-major int8 (the weight codes); panels MR-tall,
  // zero-padded.
  static void pack_a(const std::int8_t* a, std::int64_t lda, std::int64_t pc,
                     std::int64_t mc, std::int64_t kc, AElem* dst) {
    for (std::int64_t r = 0; r < mc; r += kGemmMR) {
      const std::int64_t rows = std::min(kGemmMR, mc - r);
      std::fill(dst, dst + kGemmMR * depth(kc), AElem{0});
      for (std::int64_t i = 0; i < rows; ++i) {
        const std::int8_t* src = a + (r + i) * lda + pc;
        for (std::int64_t p = 0; p < kc; ++p) dst[slot(p, i, kGemmMR)] = src[p];
      }
      dst += kGemmMR * depth(kc);
    }
  }

  // op(B) is (k x n) uint8 activation codes; panels NR-wide, zero-padded.
  static void pack_b(Trans trans, const std::uint8_t* b, std::int64_t ldb,
                     std::int64_t pc, std::int64_t jc, std::int64_t kc,
                     std::int64_t nc, BElem* dst) {
    for (std::int64_t s = 0; s < nc; s += kGemmNR) {
      const std::int64_t cols = std::min(kGemmNR, nc - s);
      std::fill(dst, dst + kGemmNR * depth(kc), BElem{0});
      if (trans == Trans::no) {
        for (std::int64_t p = 0; p < kc; ++p) {
          const std::uint8_t* src = b + (pc + p) * ldb + jc + s;
          for (std::int64_t j = 0; j < cols; ++j) {
            dst[slot(p, j, kGemmNR)] = src[j];
          }
        }
      } else {
        for (std::int64_t j = 0; j < cols; ++j) {
          const std::uint8_t* src = b + (jc + s + j) * ldb + pc;
          for (std::int64_t p = 0; p < kc; ++p) {
            dst[slot(p, j, kGemmNR)] = src[p];
          }
        }
      }
      dst += kGemmNR * depth(kc);
    }
  }

  // The blob holds every MR panel of the full m extent per KC block, so a
  // tile's panels start at its block's offset plus ic / MR panels.
  static const AElem* a_tile(ASource blob, std::int64_t ic, std::int64_t,
                             std::int64_t, std::int64_t kc,
                             std::int64_t a_offset, GemmScratch&) {
    return blob + a_offset + (ic / kGemmMR) * kGemmMR * depth(kc);
  }

  // C = alpha * acc, or C += alpha * acc with `accumulate` or past pc == 0.
  static void update(std::int32_t* c, std::int64_t ldc,
                     const std::int32_t* acc, std::int64_t m_sub,
                     std::int64_t n_sub, const Epilogue& e, bool first_pc) {
    const std::int32_t alpha = e.alpha;
    const bool add_into_c = e.accumulate || !first_pc;
    for (std::int64_t i = 0; i < m_sub; ++i) {
      std::int32_t* c_row = c + i * ldc;
      const std::int32_t* acc_row = acc + i * kGemmNR;
      if (add_into_c) {
        for (std::int64_t j = 0; j < n_sub; ++j) c_row[j] += alpha * acc_row[j];
      } else {
        for (std::int64_t j = 0; j < n_sub; ++j) c_row[j] = alpha * acc_row[j];
      }
    }
  }
};

struct S8U8Kernel : IntKernel<std::int16_t, std::int16_t, 2> {
  static constexpr std::int32_t kMaxAlpha = 2;
  static constexpr std::int32_t kMinCode = -128, kMaxCode = 127;

  static void micro_kernel(const std::int16_t* pa, const std::int16_t* pb,
                           std::int64_t kc, std::int32_t* acc) {
    micro_kernel_int(pa, pb, kc, acc);
  }
};

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

struct LowBitKernel : IntKernel<std::int8_t, std::uint8_t, 4> {
  static constexpr std::int32_t kMaxAlpha = 8;
  static constexpr std::int32_t kMinCode = -64, kMaxCode = 64;

  static void micro_kernel(const std::int8_t* pa, const std::uint8_t* pb,
                           std::int64_t kc, std::int32_t* acc) {
    micro_kernel_lowbit(pa, pb, kc, acc);
  }
};

struct LowBitWideKernel : LowBitKernel {
  static void micro_kernel(const std::int8_t* pa, const std::uint8_t* pb,
                           std::int64_t kc, std::int32_t* acc) {
    micro_kernel_lowbit_wide(pa, pb, kc, acc);
  }
};

// One K-group row of an NR-wide B~ panel from kGroup gathered tap rows:
// dst[j * kGroup + g] = rows[g][j] — int16 K-pairs for s8u8, uint8 K-quads
// for the low-bit kinds.
template <std::int64_t kGroup, typename BElem>
inline void interleave_group(const std::uint8_t (&rows)[kGroup][kGemmNR],
                             BElem* dst) {
#ifdef CSQ_GEMM_AVX2_INT_KERNEL
  const auto row = [&](int g) {
    return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(rows[g]));
  };
  const __m128i pairs = _mm_unpacklo_epi8(row(0), row(1));
  if constexpr (kGroup == 2) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                        _mm256_cvtepu8_epi16(pairs));
  } else {
    const __m128i high_pairs = _mm_unpacklo_epi8(row(2), row(3));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm_unpacklo_epi16(pairs, high_pairs));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16),
                     _mm_unpackhi_epi16(pairs, high_pairs));
  }
#else
  for (std::int64_t j = 0; j < kGemmNR; ++j) {
    for (std::int64_t g = 0; g < kGroup; ++g) dst[j * kGroup + g] = rows[g][j];
  }
#endif
}

// An integer kernel with B packed from a ConvSource<uint8_t>
// (gemm_packed_conv): Base's A~, micro-kernel and C update, and B~ panels
// byte-equal to Base::pack_b over im2col_u8's matrix. The border already
// holds the edge's zero point (pad_image's fill); depth and column tails
// are zero-filled as Base::pack_b fills them. Each kGroup taps of a panel
// are gathered into NR-byte rows — one 8-byte run per tap when the panel's
// positions are adjacent in the image — and then interleaved.
template <typename Base, std::int64_t kGroup>
struct IntConvKernel : Base {
  using BIn = ConvSource<std::uint8_t>;
  using BElem = typename Base::BElem;

  static void pack_b(Trans /*trans*/, const BIn* b, std::int64_t /*ldb*/,
                     std::int64_t pc, std::int64_t jc, std::int64_t kc,
                     std::int64_t nc, BElem* dst) {
    const BIn& src = *b;
    const std::uint8_t* taps[kGemmKC];
    src.tap_bases(pc, kc, taps);
    const std::int64_t kcg = Base::depth(kc);
    for (std::int64_t s = 0; s < nc; s += kGemmNR) {
      const std::int64_t cols = std::min(kGemmNR, nc - s);
      std::int64_t at[kGemmNR];
      src.position_offsets(jc + s, cols, at);
      const bool adjacent =
          cols == kGemmNR && at[kGemmNR - 1] - at[0] == kGemmNR - 1;
      for (std::int64_t p = 0; p < kcg; p += kGroup) {
        std::uint8_t rows[kGroup][kGemmNR];
        for (std::int64_t g = 0; g < kGroup; ++g) {
          if (p + g >= kc) {
            std::memset(rows[g], 0, kGemmNR);
          } else if (adjacent) {
            std::memcpy(rows[g], taps[p + g] + at[0], kGemmNR);
          } else {
            std::int64_t j = 0;
            for (; j < cols; ++j) rows[g][j] = taps[p + g][at[j]];
            for (; j < kGemmNR; ++j) rows[g][j] = 0;
          }
        }
        interleave_group<kGroup>(rows, dst + p * kGemmNR);
      }
      dst += kGemmNR * kcg;
    }
  }
};

// Runs `fn` with a value of the traits type of `kind`.
template <typename Fn>
decltype(auto) with_kernel(PackedKernel kind, Fn&& fn) {
  switch (kind) {
    case PackedKernel::kLowBit:
      return fn(LowBitKernel{});
    case PackedKernel::kLowBitWide:
      return fn(LowBitWideKernel{});
    case PackedKernel::kS8U8:
      break;
  }
  CSQ_CHECK(kind == PackedKernel::kS8U8)
      << "gemm: unknown packed kernel " << static_cast<int>(kind);
  return fn(S8U8Kernel{});
}

// A~ elements of one KC block: the MR panels of the whole m extent.
template <typename K>
std::int64_t a_block_size(std::int64_t m, std::int64_t kc) {
  return (m + kGemmMR - 1) / kGemmMR * kGemmMR * K::depth(kc);
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
// micro-tile grid over the packed B~ (read-only, possibly shared).
template <typename K>
void run_tile(const Problem<K>& p, const Block& blk, std::int64_t ic,
              const typename K::BElem* packed_b, GemmScratch& scratch) {
  const std::int64_t mc = std::min(kGemmMC, p.m - ic);
  const typename K::AElem* packed_a =
      K::a_tile(p.a, ic, blk.pc, mc, blk.kc, blk.a_offset, scratch);
  const std::int64_t a_stride = kGemmMR * K::depth(blk.kc);
  const std::int64_t b_stride = kGemmNR * K::depth(blk.kc);
  typename K::Acc acc[kGemmMR * kGemmNR];
  for (std::int64_t jr = 0; jr < blk.nc; jr += kGemmNR) {
    const std::int64_t n_sub = std::min(kGemmNR, blk.nc - jr);
    const typename K::BElem* pb = packed_b + (jr / kGemmNR) * b_stride;
    for (std::int64_t ir = 0; ir < mc; ir += kGemmMR) {
      const std::int64_t m_sub = std::min(kGemmMR, mc - ir);
      K::micro_kernel(packed_a + (ir / kGemmMR) * a_stride, pb, blk.kc, acc);
      K::update(p.c + (ic + ir) * p.ldc + blk.jc + jr, p.ldc, acc, m_sub,
                n_sub, p.epilogue, blk.pc == 0);
    }
  }
}

// Row schedule: B~ is packed once per (jc, pc) on the calling thread and
// shared by the whole ic sweep, which runs in order or across the pool.
template <typename K>
void run_rows(const Problem<K>& p, GemmScratch& scratch, bool pooled) {
  using BElem = typename K::BElem;
  const std::int64_t ic_tiles = (p.m + kGemmMC - 1) / kGemmMC;
  BElem* packed_b = panel<BElem>(scratch.packed_b);
  for (std::int64_t jc = 0; jc < p.n; jc += kGemmNC) {
    Block blk{jc, std::min(kGemmNC, p.n - jc), 0, 0, 0};
    for (; blk.pc < p.k; blk.pc += kGemmKC) {
      blk.kc = std::min(kGemmKC, p.k - blk.pc);
      K::pack_b(p.trans_b, p.b, p.ldb, blk.pc, jc, blk.kc, blk.nc, packed_b);
      if (!pooled || ic_tiles <= 1) {
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
// stripe into the executing thread's scratch.
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
        typename K::BElem* packed_b =
            panel<typename K::BElem>(scratch.packed_b);
        const std::int64_t stripe_cols =
            ctx.grid.panels_per_stripe * kGemmNR;
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

// The exactness bounds of gemm.h: alpha within the kind's derived range
// and k <= 32767, so int32 accumulation cannot wrap.
template <typename K>
void check_packed_extents(std::int64_t m, std::int64_t n, std::int64_t k,
                          std::int32_t alpha) {
  CSQ_CHECK(m >= 0 && n >= 0 && k >= 0) << "gemm_packed: negative extent";
  CSQ_CHECK(alpha >= -K::kMaxAlpha && alpha <= K::kMaxAlpha)
      << "gemm_packed: alpha " << alpha << " outside the [-" << K::kMaxAlpha
      << ", " << K::kMaxAlpha
      << "] range the exactness bound is derived for";
  CSQ_CHECK(k <= 32767) << "gemm_packed: reduction depth " << k
                        << " would overflow int32 accumulation";
}

// The body shared by gemm_packed and gemm_packed_conv: K's exactness
// bounds, the degenerate shapes, then the driver.
template <typename K>
void run_packed(std::int64_t m, std::int64_t n, std::int64_t k,
                std::int32_t alpha, const std::uint8_t* packed_a,
                Trans trans_b, const typename K::BIn* b, std::int64_t ldb,
                bool accumulate, std::int32_t* c, std::int64_t ldc,
                const GemmExec& exec) {
  check_packed_extents<K>(m, n, k, alpha);
  if (m == 0 || n == 0) return;
  if (alpha == 0 || k == 0) {
    if (!accumulate) {
      for (std::int64_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0);
      }
    }
    return;
  }
  run(Problem<K>{m, n, k, reinterpret_cast<const typename K::AElem*>(packed_a),
                 trans_b, b, ldb, c, ldc, {alpha, accumulate}},
      nullptr, exec);
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

std::int64_t gemm_packed_a_bytes(PackedKernel kind, std::int64_t m,
                                 std::int64_t k) {
  return with_kernel(kind, [&](auto kernel) {
    using K = decltype(kernel);
    std::int64_t total = 0;
    for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
      total += a_block_size<K>(m, std::min(kGemmKC, k - pc));
    }
    return total * static_cast<std::int64_t>(sizeof(typename K::AElem));
  });
}

void gemm_pack_a(PackedKernel kind, std::int64_t m, std::int64_t k,
                 const std::int8_t* a, std::int64_t lda, std::uint8_t* packed) {
  with_kernel(kind, [&](auto kernel) {
    using K = decltype(kernel);
    check_packed_extents<K>(m, 0, k, 1);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t p = 0; p < k; ++p) {
        const std::int32_t v = a[i * lda + p];
        CSQ_CHECK(v >= K::kMinCode && v <= K::kMaxCode)
            << "gemm_pack_a: code " << v << " outside [" << K::kMinCode
            << ", " << K::kMaxCode << "], the range this layout is exact for";
      }
    }
    auto* dst = reinterpret_cast<typename K::AElem*>(packed);
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
  with_kernel(kind, [&](auto kernel) {
    run_packed<decltype(kernel)>(m, n, k, alpha, packed_a, trans_b, b, ldb,
                                 accumulate, c, ldc, exec);
  });
}

void gemm_packed_conv(PackedKernel kind, std::int64_t m, std::int32_t alpha,
                      const std::uint8_t* packed_a, const ConvGeometry& geom,
                      const std::uint8_t* padded, bool accumulate,
                      std::int32_t* c, std::int64_t ldc, GemmExec exec) {
  geom.validate();
  const ConvSource<std::uint8_t> src(geom, padded);
  with_kernel(kind, [&](auto kernel) {
    using K = decltype(kernel);
    run_packed<IntConvKernel<K, K::kDepthGroup>>(
        m, geom.col_cols(), geom.col_rows(), alpha, packed_a, Trans::no, &src,
        0, accumulate, c, ldc, exec);
  });
}

}  // namespace csq
