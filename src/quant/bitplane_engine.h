// BitPlaneEngine — the shared materialization pipeline behind the bit-plane
// weight parameterizations (CSQ, BSQ) and the cached-reduction workspace the
// other WeightSource families borrow for their scale/dot sweeps.
//
// Layering (see ROADMAP.md "Open items"):
//
//   WeightSource (nn)  —  the seam the layers talk to
//        │ owns
//   BitPlaneEngine (quant)  —  per-source workspace: gate caches, reduction
//        │ calls                partials, staged plane descriptors
//   quant_kernels (tensor)  —  flat-array chunked kernels on the ThreadPool
//
// The engine owns every buffer the hot path needs — gate caches, chunk
// partials, plane descriptor arrays — all sized once at construction, so a
// steady-state training step (materialize + backward) performs ZERO heap
// allocations. Parallel/serial execution is decided per call from
// default_kernel_exec(); both produce bit-identical weights because the
// kernels run on a fixed chunk grid.
//
// Call protocol per step:
//   engine.clear_planes();
//   engine.add_plane(pos, neg, coeff, code_weight);   // per active bit
//   engine.materialize(kind, beta, out, cache);       // forward
//   ...
//   engine.set_plane_grads(p, grad_pos, grad_neg, want_diff_sum);
//   engine.backward(kind, beta, grad_out);            // backward
//   engine.diff_sum(p);                               // mask-grad reductions
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "tensor/quant_kernels.h"

namespace csq {

class BitPlaneEngine {
 public:
  static constexpr int kMaxPlanes = 8;

  BitPlaneEngine() = default;
  // The per-plane gate cache used by the sigmoid backward (2 * max_planes *
  // element_count floats — 16x the weight memory for CSQ) is allocated
  // lazily on the first caching materialize, so sources that never cache
  // (inference-only ones, BSQ's clipped STE that reads the latents
  // directly) never pay for it, and can be dropped with
  // release_gate_cache() once a source finalizes.
  BitPlaneEngine(std::int64_t element_count, int max_planes);

  // Frees the gate cache (e.g. after finalize(), when no backward can ever
  // run again). A later caching materialize re-allocates it.
  void release_gate_cache();

  std::int64_t element_count() const { return element_count_; }
  int num_planes() const { return num_planes_; }

  // --- forward staging ---------------------------------------------------
  void clear_planes() { num_planes_ = 0; }
  // Appends one gated plane; `coeff` multiplies (g(pos) - g(neg)) on the
  // soft path, `code_weight` (2^b) weighs the integer hard path.
  void add_plane(const float* pos, const float* neg, float coeff,
                 std::int32_t code_weight);

  // Soft materialization into `out` (size element_count). When `cache` is
  // true the per-plane gate values are kept for backward (sigmoid gates
  // only: the other kinds' backward reads the latents).
  void materialize(GateKind kind, float beta, float* out, bool cache);

  // Integer-exact hard materialization: out[i] = unit * code_i with
  // code_i = sum_b code_weight_b * (step(pos)-step(neg)). Either output may
  // be null.
  void materialize_hard(float unit, float* out, std::int32_t* codes);

  // --- backward ----------------------------------------------------------
  // Routes gradient accumulation targets for plane `p` (either may be null
  // to drop that side). `want_diff_sum` additionally reduces
  // sum_i grad_out[i] * (g_pos - g_neg), read back via diff_sum(p).
  void set_plane_grads(int p, float* grad_pos, float* grad_neg,
                       bool want_diff_sum);

  // Analytic backward through the staged planes. For the sigmoid path the
  // last materialize must have cached gates.
  void backward(GateKind kind, float beta, const float* grad_out);

  double diff_sum(int p) const;

  // Deterministic chunked dot product over the engine's partials workspace
  // (used for the dL/ds = <grad, W>/s reductions).
  double dot(const float* a, const float* b);

 private:
  std::int64_t element_count_ = 0;
  std::int64_t chunk_count_ = 0;
  int max_planes_ = 0;
  int num_planes_ = 0;
  bool gates_cached_ = false;

  std::array<BitPlane, kMaxPlanes> planes_{};
  std::array<BitPlaneGrad, kMaxPlanes> grad_planes_{};
  std::array<double, kMaxPlanes> diff_sums_{};

  // Gate cache: [plane][pos|neg][element], one flat allocation.
  std::vector<float> gate_cache_;
  // Reduction scratch: chunk_count * max(1, max_planes) doubles.
  std::vector<double> partials_;
};

}  // namespace csq
