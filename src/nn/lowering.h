// Lowering seam between the float module tree and the integer inference
// runtime (src/runtime).
//
// A finalized model is lowered by walking the module tree in execution
// order: every Module describes itself to a GraphLowering sink via
// Module::lower. The sink (runtime::record_program's recorder) captures
// the walk as a serializable GraphProgram — Conv2d/Linear contribute their
// integer weight codes, BatchNorm2d its folded eval-mode affine, ReLU and
// activation quantizers their fusion/pin markers, and residual blocks
// drive the fork/join callbacks so the skip connection becomes an integer
// re-scaled add. runtime::build_graph then replays the program into a
// CompiledGraph; because the replay consumes only data, a persisted
// artifact (runtime/graph_artifact.h) rebuilds the same graph with the
// float model absent from memory. This walk is the ONLY point where the
// runtime touches modules.
//
// The interface lives in nn (not runtime) so that module classes can
// override lower() without depending on the runtime's graph types; the
// dependency points runtime -> nn only.
#pragma once

#include <cstdint>

namespace csq {

class Conv2d;
class Linear;
class BatchNorm2d;
struct Pool2dConfig;

// Sink for the module-tree walk. Calls arrive in execution order; the
// residual callbacks bracket the two branches of a skip connection:
//
//   begin_residual();   // fork: remember the incoming edge
//   ... main branch ...
//   begin_skip();       // main branch done; skip branch (possibly empty)
//   ... skip branch ...
//   end_residual();     // join: main + skip
class GraphLowering {
 public:
  virtual ~GraphLowering() = default;

  virtual void lower_conv2d(Conv2d& conv) = 0;
  virtual void lower_linear(Linear& linear) = 0;
  virtual void lower_batchnorm(const BatchNorm2d& bn) = 0;
  virtual void lower_relu() = 0;
  // An activation quantizer with the given bit width and clip range: the
  // produced edge carries values in [0, clip] on a 2^bits - 1 step grid.
  virtual void lower_act_quant(int bits, float clip) = 0;
  // Max pooling over Pool2dConfig windows (nn/pooling.h): independent
  // kernel_h/kernel_w, stride and padding; padded taps are -inf.
  virtual void lower_maxpool(const Pool2dConfig& config) = 0;
  virtual void lower_global_avg_pool() = 0;
  virtual void lower_flatten() = 0;

  virtual void begin_residual() = 0;
  virtual void begin_skip() = 0;
  virtual void end_residual() = 0;
};

}  // namespace csq
