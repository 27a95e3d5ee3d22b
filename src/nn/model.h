// Model: a module tree plus the bookkeeping the quantization pipeline needs —
// the flat parameter list for the optimizer and the registry of quantizable
// layers (name -> WeightSource) used for precision accounting, budget
// regularization and the layer-wise scheme dumps of the paper's Figure 4.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"
#include "nn/parameter_arena.h"
#include "nn/weight_source.h"

namespace csq {

struct QuantLayer {
  std::string name;
  WeightSource* source = nullptr;
};

class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  // Wraps a weight-source factory so that every created source is recorded
  // in this model's quant-layer registry. Builders must create all layers
  // through the wrapped factory and only then call set_root.
  WeightSourceFactory recording_factory(WeightSourceFactory base);

  // Installs the module tree. The data batch's gradient is never read, so
  // the module consuming the model input skips it (skip_input_grad).
  void set_root(ModulePtr root);
  Module& root();
  bool has_root() const { return root_ != nullptr; }

  Tensor forward(const Tensor& input, bool training);
  // Accumulates every parameter gradient for the last training forward.
  void backward(const Tensor& grad_output);

  // Depth-first module walk (Module::for_each_module) from the root.
  void for_each_module(const std::function<void(Module&)>& fn) {
    root().for_each_module(fn);
  }

  // Flat parameter list (collected once; stable for the model's lifetime).
  const std::vector<Parameter*>& parameters();
  void zero_grad();

  // Flat parameter arena over parameters(), bound lazily on first call.
  // Binding rebinds every Parameter's value/grad to an arena view (see
  // nn/parameter_arena.h) — transparent to modules, but callers that cache
  // raw data() pointers across the first arena() call would go stale, so
  // the optimizer/checkpoint/data-parallel layers bind before training.
  ParameterArena& arena();

  const std::vector<QuantLayer>& quant_layers() const { return quant_layers_; }

  // Total quantizable weight elements across registered layers.
  std::int64_t total_weight_count() const;
  // Element-weighted average storage bits across registered layers.
  double average_bits() const;
  // 32 / average_bits — the Comp(x) column of the paper's tables.
  double compression_ratio() const;

 private:
  ModulePtr root_;
  std::vector<Parameter*> parameters_;
  bool parameters_collected_ = false;
  // unique_ptr keeps the arena's spans address-stable across Model moves.
  std::unique_ptr<ParameterArena> arena_;
  std::vector<QuantLayer> quant_layers_;
};

}  // namespace csq
