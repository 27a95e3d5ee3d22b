// Flat parameter arena: one contiguous span for every parameter value in a
// model and one for every gradient, with each Parameter rebound to an
// offset+shape view (Tensor::borrow) into the spans.
//
// Why: the optimizer step becomes one cache-friendly sweep over two flat
// arrays instead of a pointer chase over dozens of scattered tensors;
// checkpoint save/load becomes a single contiguous write/read; and
// data-parallel replicas borrow their parameter values from the primary's
// span (opt/data_parallel.h). The layout is the uchen idea from
// SNIPPETS.md: registration order defines the offsets, so two models built
// by the same builder share one layout and their arenas are directly
// comparable span-for-span.
//
// Binding preserves every existing Parameter contract: `value`/`grad` stay
// real Tensors (modules and weight sources keep their references), element
// writes land in the arena, whole-tensor assignment into a bound value
// copies in place, and `version`/`mark_updated()` dirty-flag semantics are
// untouched — bind() itself bumps each version because it rewrites storage.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/parameter.h"

namespace csq {

class ParameterArena {
 public:
  struct View {
    Parameter* param = nullptr;
    std::int64_t offset = 0;  // element offset into the flat spans
    std::int64_t count = 0;
    bool weight_decay = true;
  };

  // Binds `params` (registration order; the model's parameters() list).
  // Existing values are copied into the arena before each Parameter's
  // value/grad is rebound to a view, so binding is transparent.
  explicit ParameterArena(const std::vector<Parameter*>& params);

  ParameterArena(const ParameterArena&) = delete;
  ParameterArena& operator=(const ParameterArena&) = delete;

  std::int64_t size() const { return static_cast<std::int64_t>(values_.size()); }
  float* values() { return values_.data(); }
  const float* values() const { return values_.data(); }
  float* grads() { return grads_.data(); }
  const float* grads() const { return grads_.data(); }
  const std::vector<View>& views() const { return views_; }

  // One flat sweep; replaces the per-parameter zero_grad loop.
  void zero_grads();

  // Overwrites this arena's values with `src` (size() floats) and bumps
  // every bound Parameter's version — the checkpoint-load path.
  void load_values(const float* src);

 private:
  std::vector<float> values_;
  std::vector<float> grads_;
  std::vector<View> views_;
};

}  // namespace csq
