// Layer interface.
//
// The library uses explicit layer-wise backpropagation rather than a taped
// autograd: every Module implements `forward` (caching whatever it needs) and
// `backward` (consuming the cached state, accumulating parameter gradients
// and returning the input gradient). This keeps the gradient of the CSQ
// weight parameterization (the paper's Eq. 5) a closed-form, inspectable
// function instead of an opaque tape — the property the paper's "fully
// differentiable, no STE" claim rests on.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "tensor/tensor.h"

namespace csq {

class GraphLowering;

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // Computes the layer output. When `training` is true the module caches
  // the state needed by the subsequent backward call.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  // Consumes the cached state from the last training-mode forward and
  // returns dLoss/dInput while accumulating parameter gradients.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  // Declares that nothing reads this module's input gradient, so backward
  // may skip it and return an empty tensor. Model::set_root calls it on the
  // root; containers pass it to the child that consumes their input, and
  // leaves without an override keep computing the gradient.
  virtual void skip_input_grad() {}

  // Appends raw pointers to this module's trainable parameters. Pointers
  // stay valid for the module's lifetime (parameters are owned members).
  virtual void collect_parameters(std::vector<Parameter*>& out) { (void)out; }

  // Visits this module and every descendant, depth-first in registration
  // order (the collect_parameters order). Containers override; leaves get
  // the default self-only visit. The data-parallel trainer uses this to
  // pair up stateful modules (batch norms) across model replicas — the
  // deterministic order is what aligns replica k's i-th module with the
  // primary's i-th.
  virtual void for_each_module(const std::function<void(Module&)>& fn) {
    fn(*this);
  }

  // Short type tag ("conv2d", "relu", ...) for debug printouts.
  virtual const char* kind() const = 0;

  // Describes this module to an integer-lowering sink (nn/lowering.h) in
  // execution order. The default implementation throws: a module without an
  // override cannot be lowered into the integer runtime, and the error names
  // it. Containers forward to their children; leaves call the matching
  // GraphLowering hook.
  virtual void lower(GraphLowering& lowering);

  // Dotted instance path assigned by the model builder, e.g.
  // "layer1.0.conv1" — matches the layer naming in the paper's Figure 4.
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  std::string name_;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace csq
