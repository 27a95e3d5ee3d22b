#include "tensor/quant_kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/check.h"
#include "util/thread_pool.h"

namespace csq {

namespace {

std::atomic<KernelExec> g_default_exec{KernelExec::pooled};

// Same arithmetic as core/gate.h's gate(); restated here because the tensor
// layer sits below src/core. Any change must keep the two bit-identical.
inline float sigmoid_gate(float x, float beta) {
  return 1.0f / (1.0f + std::exp(-beta * x));
}

inline float sigmoid_gate_derivative(float gate_value, float beta) {
  return beta * gate_value * (1.0f - gate_value);
}

inline float round_clip_gate(float x) {
  return std::round(std::clamp(x, 0.0f, 1.0f));
}

// Clipped-STE window of the round_clip gate.
inline bool in_unit_window(float x) { return x >= 0.0f && x <= 1.0f; }

}  // namespace

void set_default_kernel_exec(KernelExec exec) {
  g_default_exec.store(exec, std::memory_order_relaxed);
}

KernelExec default_kernel_exec() {
  return g_default_exec.load(std::memory_order_relaxed);
}

std::int64_t quant_chunk_count(std::int64_t count) {
  return count <= 0 ? 0 : (count + kQuantChunk - 1) / kQuantChunk;
}

// ------------------------------------------------------ bit-plane kernels --

void bitplane_materialize(GateKind kind, float beta, const BitPlane* planes,
                          int num_planes, float* out, std::int64_t count,
                          KernelExec exec) {
  CSQ_CHECK(kind != GateKind::step)
      << "bitplane_materialize: use bitplane_materialize_hard for step gates";
  for (int p = 0; p < num_planes; ++p) {
    CSQ_CHECK(kind == GateKind::sigmoid || planes[p].gate_pos == nullptr)
        << "bitplane_materialize: plane " << p
        << " asks for cached gates, which only the sigmoid kind keeps";
  }
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t /*chunk*/, std::int64_t begin, std::int64_t end) {
        std::fill(out + begin, out + end, 0.0f);
        for (int p = 0; p < num_planes; ++p) {
          const BitPlane& plane = planes[p];
          const float* mp = plane.pos;
          const float* mn = plane.neg;
          const float coeff = plane.coeff;
          if (plane.gate_pos != nullptr) {  // sigmoid, checked above
            float* gp = plane.gate_pos;
            float* gn = plane.gate_neg;
            for (std::int64_t i = begin; i < end; ++i) {
              gp[i] = sigmoid_gate(mp[i], beta);
              gn[i] = sigmoid_gate(mn[i], beta);
              out[i] += coeff * (gp[i] - gn[i]);
            }
          } else {
            if (kind == GateKind::sigmoid) {
              for (std::int64_t i = begin; i < end; ++i) {
                out[i] += coeff * (sigmoid_gate(mp[i], beta) -
                                   sigmoid_gate(mn[i], beta));
              }
            } else {  // round_clip
              for (std::int64_t i = begin; i < end; ++i) {
                out[i] +=
                    coeff * (round_clip_gate(mp[i]) - round_clip_gate(mn[i]));
              }
            }
          }
        }
      });
}

void bitplane_materialize_hard(const BitPlane* planes, int num_planes,
                               float unit, float* out, std::int32_t* codes,
                               std::int64_t count, KernelExec exec) {
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t /*chunk*/, std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          std::int32_t code = 0;
          for (int p = 0; p < num_planes; ++p) {
            const BitPlane& plane = planes[p];
            const std::int32_t bit =
                static_cast<std::int32_t>(plane.pos[i] >= 0.0f) -
                static_cast<std::int32_t>(plane.neg[i] >= 0.0f);
            code += bit * plane.code_weight;
          }
          if (codes != nullptr) codes[i] = code;
          // Integer-first accumulation: the emitted weight is exactly
          // unit * integer, the finalized-model exactness guarantee.
          if (out != nullptr) out[i] = unit * static_cast<float>(code);
        }
      });
}

void bitplane_backward(GateKind kind, float beta, const BitPlaneGrad* planes,
                       int num_planes, const float* grad_out,
                       std::int64_t count, double* partials, double* diff_sums,
                       KernelExec exec) {
  CSQ_CHECK(kind != GateKind::step)
      << "bitplane_backward: step gates have no gradient";
  for (int p = 0; p < num_planes; ++p) {
    CSQ_CHECK(kind == GateKind::sigmoid || !planes[p].want_diff_sum)
        << "bitplane_backward: plane " << p
        << " asks for a diff sum, which needs cached sigmoid gates";
  }
  const std::int64_t chunks = quant_chunk_count(count);
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t chunk, std::int64_t begin, std::int64_t end) {
        for (int p = 0; p < num_planes; ++p) {
          const BitPlaneGrad& plane = planes[p];
          const float coeff = plane.coeff;
          double acc = 0.0;
          if (kind == GateKind::sigmoid) {
            const float* gp = plane.gate_pos;
            const float* gn = plane.gate_neg;
            for (std::int64_t i = begin; i < end; ++i) {
              const float gi = grad_out[i];
              if (plane.grad_pos != nullptr) {
                plane.grad_pos[i] +=
                    gi * coeff * sigmoid_gate_derivative(gp[i], beta);
              }
              if (plane.grad_neg != nullptr) {
                plane.grad_neg[i] -=
                    gi * coeff * sigmoid_gate_derivative(gn[i], beta);
              }
              if (plane.want_diff_sum) {
                acc += static_cast<double>(gi) * (gp[i] - gn[i]);
              }
            }
          } else {  // round_clip: clipped STE through the rounding
            for (std::int64_t i = begin; i < end; ++i) {
              const float gi = grad_out[i];
              if (plane.grad_pos != nullptr && in_unit_window(plane.pos[i])) {
                plane.grad_pos[i] += gi * coeff;
              }
              if (plane.grad_neg != nullptr && in_unit_window(plane.neg[i])) {
                plane.grad_neg[i] -= gi * coeff;
              }
            }
          }
          partials[chunk * num_planes + p] = acc;
        }
      });
  if (diff_sums != nullptr) {
    for (int p = 0; p < num_planes; ++p) {
      double total = 0.0;
      for (std::int64_t c = 0; c < chunks; ++c) {
        total += partials[c * num_planes + p];
      }
      diff_sums[p] = total;
    }
  }
}

// -------------------------------------------------------------- reductions --

void tree_reduce_spans(const float* const* sources, int num_sources,
                       float* dst, std::int64_t count, KernelExec exec) {
  CSQ_CHECK(num_sources >= 1 && num_sources <= kMaxReduceSpans)
      << "tree_reduce_spans: source count " << num_sources
      << " outside 1.." << kMaxReduceSpans;
  if (num_sources == 1) {
    const float* src = sources[0];
    for_each_quant_chunk(count, exec,
                         [&](std::int64_t, std::int64_t begin,
                             std::int64_t end) {
                           std::copy(src + begin, src + end, dst + begin);
                         });
    return;
  }
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t, std::int64_t begin, std::int64_t end) {
        float lane[kMaxReduceSpans];
        for (std::int64_t i = begin; i < end; ++i) {
          for (int s = 0; s < num_sources; ++s) lane[s] = sources[s][i];
          // Pairwise tree: (s0+s1)+(s2+s3)... — a fixed shape per source
          // count; an odd tail at any level rides up unchanged.
          for (int stride = 1; stride < num_sources; stride *= 2) {
            for (int s = 0; s + stride < num_sources; s += 2 * stride) {
              lane[s] += lane[s + stride];
            }
          }
          dst[i] = lane[0];
        }
      });
}

double chunked_dot(const float* a, const float* b, std::int64_t count,
                   double* partials, KernelExec exec) {
  const std::int64_t chunks = quant_chunk_count(count);
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t chunk, std::int64_t begin, std::int64_t end) {
        double acc = 0.0;
        for (std::int64_t i = begin; i < end; ++i) {
          acc += static_cast<double>(a[i]) * b[i];
        }
        partials[chunk] = acc;
      });
  double total = 0.0;
  for (std::int64_t c = 0; c < chunks; ++c) total += partials[c];
  return total;
}

float reduce_max_abs(const float* data, std::int64_t count, float* partials,
                     KernelExec exec) {
  const std::int64_t chunks = quant_chunk_count(count);
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t chunk, std::int64_t begin, std::int64_t end) {
        float best = 0.0f;
        for (std::int64_t i = begin; i < end; ++i) {
          best = std::max(best, std::fabs(data[i]));
        }
        partials[chunk] = best;
      });
  float best = 0.0f;
  for (std::int64_t c = 0; c < chunks; ++c) best = std::max(best, partials[c]);
  return best;
}

// --------------------------------------------------- fake-quant / clip ----

void fake_quant_symmetric(const float* in, float* out, std::int64_t count,
                          float scale, int bits, KernelExec exec) {
  CSQ_CHECK(scale > 0.0f) << "fake_quant_symmetric: scale must be positive";
  CSQ_CHECK(bits >= 1 && bits <= 16)
      << "fake_quant_symmetric: bits out of range: " << bits;
  const auto levels = static_cast<float>((std::int64_t{1} << bits) - 1);
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t /*chunk*/, std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          // Same arithmetic as quantize_symmetric (quant/quantizer.h): clamp,
          // round to the integer grid, dequantize.
          const float normalized = std::clamp(in[i] / scale, -1.0f, 1.0f);
          const auto code =
              static_cast<std::int64_t>(std::lround(normalized * levels));
          out[i] = static_cast<float>(code) * scale / levels;
        }
      });
}

void accumulate(const float* x, float* y, std::int64_t count,
                KernelExec exec) {
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t /*chunk*/, std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) y[i] += x[i];
      });
}

float tanh_forward_max(const float* in, float* tanh_out, std::int64_t count,
                       float* partials, KernelExec exec) {
  const std::int64_t chunks = quant_chunk_count(count);
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t chunk, std::int64_t begin, std::int64_t end) {
        float best = 0.0f;
        for (std::int64_t i = begin; i < end; ++i) {
          tanh_out[i] = std::tanh(in[i]);
          best = std::max(best, std::fabs(tanh_out[i]));
        }
        partials[chunk] = best;
      });
  float best = 0.0f;
  for (std::int64_t c = 0; c < chunks; ++c) best = std::max(best, partials[c]);
  return best;
}

void dorefa_fake_quant(const float* tanh_in, float* out, std::int64_t count,
                       float inv_two_max, float levels, KernelExec exec) {
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t /*chunk*/, std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          const float normalized = tanh_in[i] * inv_two_max + 0.5f;  // [0, 1]
          out[i] = 2.0f * std::round(levels * normalized) / levels - 1.0f;
        }
      });
}

void tanh_ste_backward(const float* grad_out, const float* tanh_in,
                       float* grad_latent, std::int64_t count, float inv_max,
                       KernelExec exec) {
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t /*chunk*/, std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          grad_latent[i] +=
              grad_out[i] * (1.0f - tanh_in[i] * tanh_in[i]) * inv_max;
        }
      });
}

// ------------------------------------------------------- LQ-Nets kernels --

double nearest_level_encode(const float* in, const float* levels,
                            int num_levels, std::int8_t* codes, float* out,
                            std::int64_t count, double* partials,
                            KernelExec exec) {
  CSQ_CHECK(num_levels >= 1 && num_levels <= 127)
      << "nearest_level_encode: level count out of int8 code range";
  const std::int64_t chunks = quant_chunk_count(count);
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t chunk, std::int64_t begin, std::int64_t end) {
        double fit_error = 0.0;
        for (std::int64_t i = begin; i < end; ++i) {
          int best_code = 0;
          float best_dist = std::fabs(in[i] - levels[0]);
          for (int c = 1; c < num_levels; ++c) {
            const float dist = std::fabs(in[i] - levels[c]);
            if (dist < best_dist) {
              best_dist = dist;
              best_code = c;
            }
          }
          codes[i] = static_cast<std::int8_t>(best_code);
          out[i] = levels[best_code];
          fit_error += static_cast<double>(best_dist) * best_dist;
        }
        partials[chunk] = fit_error;
      });
  double total = 0.0;
  for (std::int64_t c = 0; c < chunks; ++c) total += partials[c];
  return total;
}

void code_gram_accumulate(const float* in, const std::int8_t* codes, int n,
                          double* gram, double* rhs, std::int64_t count,
                          double* partials, KernelExec exec) {
  CSQ_CHECK(n >= 1 && n <= 4) << "code_gram_accumulate: basis size 1..4";
  const int block = n * n + n;  // per-chunk scratch: gram then rhs
  const std::int64_t chunks = quant_chunk_count(count);
  for_each_quant_chunk(
      count, exec,
      [&](std::int64_t chunk, std::int64_t begin, std::int64_t end) {
        double* local = partials + chunk * block;
        std::fill(local, local + block, 0.0);
        double* local_gram = local;
        double* local_rhs = local + n * n;
        for (std::int64_t i = begin; i < end; ++i) {
          const int code = codes[i];
          for (int a = 0; a < n; ++a) {
            const double sign_a = (code >> a) & 1 ? 1.0 : -1.0;
            local_rhs[a] += sign_a * in[i];
            for (int b = 0; b < n; ++b) {
              const double sign_b = (code >> b) & 1 ? 1.0 : -1.0;
              local_gram[a * n + b] += sign_a * sign_b;
            }
          }
        }
      });
  std::fill(gram, gram + n * n, 0.0);
  std::fill(rhs, rhs + n, 0.0);
  for (std::int64_t c = 0; c < chunks; ++c) {
    const double* local = partials + c * block;
    for (int j = 0; j < n * n; ++j) gram[j] += local[j];
    for (int a = 0; a < n; ++a) rhs[a] += local[n * n + a];
  }
}

}  // namespace csq
