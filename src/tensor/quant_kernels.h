// Flat-array quantization kernels shared by every WeightSource family.
//
// All five weight parameterizations (CSQ, BSQ, STE-Uniform, DoReFa, LQ-Nets)
// reduce to a handful of elementwise sweeps and reductions over the flat
// weight span: gate evaluation, per-bit-plane weighted accumulation, the
// matching analytic backward, fake-quant/clip, and a few dot/max/Gram
// reductions. This header expresses those sweeps once, as kernels over raw
// float spans, so the sources in src/quant and src/core stop re-implementing
// the same loops.
//
// Execution model: every kernel runs over a FIXED chunk grid of kQuantChunk
// elements. Pooled execution dispatches whole chunks to the global
// ThreadPool; serial execution walks the same chunks in order. Because the
// grid — and therefore the per-element arithmetic and the reduction
// combination order — is independent of the thread count, pooled and serial
// runs produce bit-identical results. Reductions write one partial per chunk
// into caller-provided scratch and are combined serially in chunk order.
//
// Kernels never allocate: scratch buffers (`partials`) are sized by
// quant_chunk_count() and owned by the caller (usually a BitPlaneEngine or a
// weight source), so steady-state training steps stay allocation-free.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/thread_pool.h"

namespace csq {

// ------------------------------------------------------------- execution --

enum class KernelExec { serial, pooled };

// Process-wide default used by the weight sources; tests and benches flip it
// to compare/verify the two paths. Defaults to pooled.
void set_default_kernel_exec(KernelExec exec);
KernelExec default_kernel_exec();

// Fixed chunk size of the execution grid (elements).
constexpr std::int64_t kQuantChunk = 2048;

// Number of grid chunks covering `count` elements.
std::int64_t quant_chunk_count(std::int64_t count);

// Runs body(chunk_index, begin, end) over the fixed grid, pooled or serial.
// Templated so the serial path calls the body directly and the pooled path
// hands the pool a two-pointer closure (within std::function's small-buffer
// optimization) — the kernels themselves never heap-allocate.
template <typename Body>
void for_each_quant_chunk(std::int64_t count, KernelExec exec,
                          const Body& body) {
  const std::int64_t chunks = quant_chunk_count(count);
  if (chunks == 0) return;
  if (exec == KernelExec::serial || chunks == 1) {
    for (std::int64_t c = 0; c < chunks; ++c) {
      const std::int64_t begin = c * kQuantChunk;
      body(c, begin, std::min(begin + kQuantChunk, count));
    }
    return;
  }
  parallel_for(
      0, chunks,
      [&body, count](std::int64_t c) {
        const std::int64_t begin = c * kQuantChunk;
        body(c, begin, std::min(begin + kQuantChunk, count));
      },
      /*serial_threshold=*/1);
}

// ------------------------------------------------------ bit-plane kernels --

// How a latent plane value maps to a bit value in [0, 1]:
//   sigmoid    — f_beta(x) = sigmoid(beta * x), the continuous-sparsification
//                gate (CSQ soft modes); analytic derivative.
//   step       — I(x >= 0), the finalized/hard limit; derivative zero.
//   round_clip — round(clamp(x, 0, 1)), BSQ's latent rounding; clipped-STE
//                derivative I(x in [0, 1]).
enum class GateKind { sigmoid, step, round_clip };

// One gated bit plane of the materialization sum.
struct BitPlane {
  const float* pos = nullptr;  // positive-part latents / logits
  const float* neg = nullptr;  // negative-part latents / logits
  // Soft-path multiplier applied to (g(pos) - g(neg)); for CSQ this is
  // s/(2^N-1) * 2^b * mask_value, for BSQ s/(2^N-1) * 2^b.
  float coeff = 0.0f;
  // Integer plane weight (2^b) used by the integer-exact hard paths.
  std::int32_t code_weight = 0;
  // Optional gate caches filled by the soft forward (nullable; sigmoid
  // gates only). Cached gates let the backward skip re-evaluating the
  // sigmoid.
  float* gate_pos = nullptr;
  float* gate_neg = nullptr;
};

// Soft materialization (paper Eq. 5 inner sum):
//   out[i] = sum_b planes[b].coeff * (g(planes[b].pos[i]) - g(planes[b].neg[i]))
// Gate values are written to the per-plane caches when present, which
// only the sigmoid kind may request.
void bitplane_materialize(GateKind kind, float beta, const BitPlane* planes,
                          int num_planes, float* out, std::int64_t count,
                          KernelExec exec);

// Integer-exact hard materialization: accumulates the per-element integer
// code sum_b code_weight_b * (step(pos) - step(neg)) and emits
// out[i] = unit * code (exactly a unit multiple — the finalized-model
// guarantee). Either of `out` / `codes` may be null.
void bitplane_materialize_hard(const BitPlane* planes, int num_planes,
                               float unit, float* out, std::int32_t* codes,
                               std::int64_t count, KernelExec exec);

// Gradient routing for one plane of the backward sweep.
struct BitPlaneGrad {
  const float* pos = nullptr;       // latents (STE window for round_clip)
  const float* neg = nullptr;
  const float* gate_pos = nullptr;  // cached forward gates (sigmoid path)
  const float* gate_neg = nullptr;
  float coeff = 0.0f;               // dW/d(gate difference), as in forward
  float* grad_pos = nullptr;        // += accumulation targets (nullable)
  float* grad_neg = nullptr;
  // When set, the kernel also reduces sum_i grad_out[i] * (g_pos - g_neg)
  // for this plane — the inner factor of the bit-mask gradient (Eq. 5
  // differentiated w.r.t. m_B). Sigmoid planes only: it reads the cached
  // gates (bitplane_backward rejects it for round_clip).
  bool want_diff_sum = false;
};

// Analytic backward through the gated planes:
//   grad_pos[i] += grad_out[i] * coeff * g'(pos[i])
//   grad_neg[i] -= grad_out[i] * coeff * g'(neg[i])
// with g' per GateKind (sigmoid: beta*g*(1-g) from the cached value; step: 0;
// round_clip: I(latent in [0,1])). `partials` must hold
// quant_chunk_count(count) * num_planes doubles; `diff_sums` (size
// num_planes) receives the deterministic per-plane reductions (zero where
// want_diff_sum is false).
void bitplane_backward(GateKind kind, float beta, const BitPlaneGrad* planes,
                       int num_planes, const float* grad_out,
                       std::int64_t count, double* partials, double* diff_sums,
                       KernelExec exec);

// -------------------------------------------------------------- reductions --

// Upper bound on the source count of tree_reduce_spans (data-parallel
// training shards a batch into at most this many micro-batches).
constexpr int kMaxReduceSpans = 64;

// Deterministic combine of N equally sized spans:
//   dst[i] = pairwise-tree sum over sources[0..num_sources)[i]
// The tree pairs sources at stride 1, 2, 4, ... so the combination order
// depends only on num_sources — never on thread count or scheduling — and
// the sweep runs over the fixed chunk grid (parallelizable across chunks,
// bit-identical pooled vs serial). This is the gradient-combine step of
// data-parallel training: per-shard gradient buffers in, the full-batch
// gradient out.
void tree_reduce_spans(const float* const* sources, int num_sources,
                       float* dst, std::int64_t count, KernelExec exec);

// Deterministic chunked dot product sum_i a[i]*b[i]; `partials` must hold
// quant_chunk_count(count) doubles.
double chunked_dot(const float* a, const float* b, std::int64_t count,
                   double* partials, KernelExec exec);

// max_i |data[i]| (0 for empty spans); `partials` must hold
// quant_chunk_count(count) floats. Max is exactly order-independent, but the
// chunked form keeps the sweep pooled.
float reduce_max_abs(const float* data, std::int64_t count, float* partials,
                     KernelExec exec);

// --------------------------------------------------- fake-quant / clip ----

// Symmetric signed fake-quant onto the +/-(2^bits - 1) grid (the parallel
// form of quantize_symmetric_tensor):
//   out[i] = round(clamp(in[i]/scale, -1, 1) * L) * scale / L,  L = 2^bits-1.
void fake_quant_symmetric(const float* in, float* out, std::int64_t count,
                          float scale, int bits, KernelExec exec);

// y[i] += x[i] — the STE pass-through backward.
void accumulate(const float* x, float* y, std::int64_t count, KernelExec exec);

// DoReFa stage 1: t[i] = tanh(in[i]); returns max_i |t[i]| (exact reduction;
// `partials` sized quant_chunk_count(count) floats).
float tanh_forward_max(const float* in, float* tanh_out, std::int64_t count,
                       float* partials, KernelExec exec);

// DoReFa stage 2: out[i] = 2 * round(L * (t[i]*inv_two_max + 0.5)) / L - 1.
void dorefa_fake_quant(const float* tanh_in, float* out, std::int64_t count,
                       float inv_two_max, float levels, KernelExec exec);

// DoReFa backward: grad_latent[i] += grad_out[i] * (1 - t[i]^2) * inv_max
// (STE through the rounding, exact tanh-normalization derivative).
void tanh_ste_backward(const float* grad_out, const float* tanh_in,
                       float* grad_latent, std::int64_t count, float inv_max,
                       KernelExec exec);

// ------------------------------------------------------- LQ-Nets kernels --

// E-step: nearest-level encoding over `num_levels` candidates. Writes the
// chosen code and dequantized value per element; returns the total squared
// fit error (deterministic; `partials` sized quant_chunk_count(count)
// doubles).
double nearest_level_encode(const float* in, const float* levels,
                            int num_levels, std::int8_t* codes, float* out,
                            std::int64_t count, double* partials,
                            KernelExec exec);

// M-step normal equations: accumulates G = sum_i b_i b_i^T (n x n, row
// major) and r = sum_i b_i * in[i], where b_i in {-1,+1}^n is decoded from
// codes[i]. `partials` must hold quant_chunk_count(count) * (n*n + n)
// doubles; combination is serial in chunk order (deterministic).
void code_gram_accumulate(const float* in, const std::int8_t* codes, int n,
                          double* gram, double* rhs, std::int64_t count,
                          double* partials, KernelExec exec);

}  // namespace csq
