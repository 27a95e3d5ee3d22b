// Ordered container of modules; forward chains left-to-right, backward
// right-to-left.
#pragma once

#include <memory>
#include <vector>

#include "nn/module.h"

namespace csq {

class Sequential final : public Module {
 public:
  explicit Sequential(const std::string& name) { set_name(name); }

  // Appends a module and returns a typed reference to it for convenience.
  template <typename T>
  T& add(std::unique_ptr<T> module) {
    T& ref = *module;
    modules_.push_back(std::move(module));
    return ref;
  }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void for_each_module(const std::function<void(Module&)>& fn) override;
  void skip_input_grad() override {
    if (!modules_.empty()) modules_.front()->skip_input_grad();
  }
  const char* kind() const override { return "sequential"; }
  void lower(GraphLowering& lowering) override;

  std::size_t size() const { return modules_.size(); }
  Module& module(std::size_t index) { return *modules_[index]; }

 private:
  std::vector<ModulePtr> modules_;
};

}  // namespace csq
