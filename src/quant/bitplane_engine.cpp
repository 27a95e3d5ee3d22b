#include "quant/bitplane_engine.h"

#include <algorithm>

#include "util/check.h"

namespace csq {

BitPlaneEngine::BitPlaneEngine(std::int64_t element_count, int max_planes)
    : element_count_(element_count),
      chunk_count_(quant_chunk_count(element_count)),
      max_planes_(max_planes) {
  CSQ_CHECK(element_count > 0) << "bitplane engine: empty weight";
  CSQ_CHECK(max_planes >= 1 && max_planes <= kMaxPlanes)
      << "bitplane engine: plane count out of range";
  partials_.resize(static_cast<std::size_t>(
      chunk_count_ * std::max(1, max_planes)));
}

void BitPlaneEngine::release_gate_cache() {
  gate_cache_.clear();
  gate_cache_.shrink_to_fit();
  gates_cached_ = false;
}

void BitPlaneEngine::add_plane(const float* pos, const float* neg, float coeff,
                               std::int32_t code_weight) {
  CSQ_CHECK(num_planes_ < max_planes_) << "bitplane engine: too many planes";
  BitPlane& plane = planes_[static_cast<std::size_t>(num_planes_)];
  plane.pos = pos;
  plane.neg = neg;
  plane.coeff = coeff;
  plane.code_weight = code_weight;
  plane.gate_pos = nullptr;
  plane.gate_neg = nullptr;
  ++num_planes_;
}

void BitPlaneEngine::materialize(GateKind kind, float beta, float* out,
                                 bool cache) {
  if (cache) {
    if (gate_cache_.empty()) {
      // Lazy: only sources that actually train pay the 2*planes*count cache.
      gate_cache_.resize(
          static_cast<std::size_t>(2 * max_planes_ * element_count_));
    }
    for (int p = 0; p < num_planes_; ++p) {
      planes_[static_cast<std::size_t>(p)].gate_pos =
          gate_cache_.data() + (2 * p) * element_count_;
      planes_[static_cast<std::size_t>(p)].gate_neg =
          gate_cache_.data() + (2 * p + 1) * element_count_;
    }
  } else {
    for (int p = 0; p < num_planes_; ++p) {
      planes_[static_cast<std::size_t>(p)].gate_pos = nullptr;
      planes_[static_cast<std::size_t>(p)].gate_neg = nullptr;
    }
  }
  gates_cached_ = cache;
  bitplane_materialize(kind, beta, planes_.data(), num_planes_, out,
                       element_count_, default_kernel_exec());
}

void BitPlaneEngine::materialize_hard(float unit, float* out,
                                      std::int32_t* codes) {
  gates_cached_ = false;
  bitplane_materialize_hard(planes_.data(), num_planes_, unit, out, codes,
                            element_count_, default_kernel_exec());
}

void BitPlaneEngine::set_plane_grads(int p, float* grad_pos, float* grad_neg,
                                     bool want_diff_sum) {
  CSQ_CHECK(p >= 0 && p < num_planes_)
      << "bitplane engine: grad plane out of range";
  BitPlaneGrad& grad = grad_planes_[static_cast<std::size_t>(p)];
  const BitPlane& plane = planes_[static_cast<std::size_t>(p)];
  grad.pos = plane.pos;
  grad.neg = plane.neg;
  grad.gate_pos = plane.gate_pos;
  grad.gate_neg = plane.gate_neg;
  grad.coeff = plane.coeff;
  grad.grad_pos = grad_pos;
  grad.grad_neg = grad_neg;
  grad.want_diff_sum = want_diff_sum;
}

void BitPlaneEngine::backward(GateKind kind, float beta,
                              const float* grad_out) {
  if (kind == GateKind::sigmoid) {
    CSQ_CHECK(gates_cached_)
        << "bitplane engine: sigmoid backward without cached gates";
  }
  CSQ_CHECK(static_cast<std::int64_t>(partials_.size()) >=
            chunk_count_ * num_planes_)
      << "bitplane engine: partials workspace too small";
  bitplane_backward(kind, beta, grad_planes_.data(), num_planes_, grad_out,
                    element_count_, partials_.data(), diff_sums_.data(),
                    default_kernel_exec());
}

double BitPlaneEngine::diff_sum(int p) const {
  CSQ_CHECK(p >= 0 && p < num_planes_)
      << "bitplane engine: diff sum plane out of range";
  return diff_sums_[static_cast<std::size_t>(p)];
}

double BitPlaneEngine::dot(const float* a, const float* b) {
  return chunked_dot(a, b, element_count_, partials_.data(),
                     default_kernel_exec());
}

}  // namespace csq
