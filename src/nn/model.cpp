#include "nn/model.h"

#include "util/check.h"

namespace csq {

WeightSourceFactory Model::recording_factory(WeightSourceFactory base) {
  CSQ_CHECK(static_cast<bool>(base)) << "recording_factory: null base factory";
  return [this, base = std::move(base)](
             const std::string& name, std::vector<std::int64_t> shape,
             std::int64_t fan_in, Rng& rng) -> WeightSourcePtr {
    WeightSourcePtr source = base(name, std::move(shape), fan_in, rng);
    quant_layers_.push_back(QuantLayer{name, source.get()});
    return source;
  };
}

void Model::set_root(ModulePtr root) {
  CSQ_CHECK(root != nullptr) << "set_root: null module";
  CSQ_CHECK(arena_ == nullptr)
      << "set_root after arena binding would orphan the bound views";
  root_ = std::move(root);
  root_->skip_input_grad();
  parameters_.clear();
  parameters_collected_ = false;
}

Module& Model::root() {
  CSQ_CHECK(root_ != nullptr) << "model has no root module";
  return *root_;
}

Tensor Model::forward(const Tensor& input, bool training) {
  return root().forward(input, training);
}

void Model::backward(const Tensor& grad_output) {
  root().backward(grad_output);
}

const std::vector<Parameter*>& Model::parameters() {
  if (!parameters_collected_) {
    root().collect_parameters(parameters_);
    parameters_collected_ = true;
  }
  return parameters_;
}

void Model::zero_grad() {
  if (arena_ != nullptr) {
    arena_->zero_grads();
    return;
  }
  for (Parameter* param : parameters()) param->zero_grad();
}

ParameterArena& Model::arena() {
  if (arena_ == nullptr) {
    arena_ = std::make_unique<ParameterArena>(parameters());
  }
  return *arena_;
}

std::int64_t Model::total_weight_count() const {
  std::int64_t total = 0;
  for (const QuantLayer& layer : quant_layers_) {
    total += layer.source->weight_count();
  }
  return total;
}

double Model::average_bits() const {
  CSQ_CHECK(!quant_layers_.empty()) << "average_bits: no quant layers";
  double weighted = 0.0;
  double total = 0.0;
  for (const QuantLayer& layer : quant_layers_) {
    const auto count = static_cast<double>(layer.source->weight_count());
    weighted += layer.source->bits_per_weight() * count;
    total += count;
  }
  return weighted / total;
}

double Model::compression_ratio() const { return 32.0 / average_bits(); }

}  // namespace csq
