#include "nn/parameter_arena.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace csq {

ParameterArena::ParameterArena(const std::vector<Parameter*>& params) {
  CSQ_CHECK(!params.empty()) << "parameter arena: empty parameter list";
  std::int64_t total = 0;
  views_.reserve(params.size());
  for (Parameter* param : params) {
    CSQ_CHECK(param != nullptr) << "parameter arena: null parameter";
    CSQ_CHECK(!param->value.is_borrowed())
        << "parameter arena: " << param->name << " is already arena-bound";
    View view;
    view.param = param;
    view.offset = total;
    view.count = param->value.numel();
    view.weight_decay = param->weight_decay;
    views_.push_back(view);
    total += view.count;
  }

  // Offsets are unpadded: the value span is exactly the concatenation of the
  // per-parameter tensors, in registration order.
  values_.resize(static_cast<std::size_t>(total));
  grads_.resize(static_cast<std::size_t>(total));

  for (const View& view : views_) {
    Parameter& param = *view.param;
    std::copy(param.value.data(), param.value.data() + view.count,
              values_.data() + view.offset);
    std::copy(param.grad.data(), param.grad.data() + view.count,
              grads_.data() + view.offset);
    const std::vector<std::int64_t> shape = param.value.shape();
    param.value = Tensor::borrow(values_.data() + view.offset, shape);
    param.grad = Tensor::borrow(grads_.data() + view.offset, shape);
    // Storage moved: any cached materialization holding the old address
    // must be rebuilt, which the version bump forces.
    param.mark_updated();
  }
}

void ParameterArena::zero_grads() {
  std::memset(grads_.data(), 0, grads_.size() * sizeof(float));
}

}  // namespace csq
