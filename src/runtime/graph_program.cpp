#include "runtime/graph_program.h"

#include <cmath>
#include <utility>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/lowering.h"
#include "nn/model.h"
#include "nn/pooling.h"
#include "util/check.h"

namespace csq {
namespace runtime {

namespace {

// GraphLowering sink that captures the walk as data. All module access
// happens here; the graph builder (compiled_graph.cpp) replays the program
// without ever touching a module again.
class ProgramRecorder final : public GraphLowering {
 public:
  explicit ProgramRecorder(GraphProgram& program) : program_(program) {}

  void lower_conv2d(Conv2d& conv) override {
    const Conv2dConfig& config = conv.config();
    ProgramInstr instr;
    instr.kind = ProgramInstr::Kind::kConv;
    instr.layer = add_layer(conv.name(), conv.source());
    instr.kernel = config.kernel;
    instr.stride = config.stride;
    instr.pad = config.pad;
    if (const float* bias = conv.bias_data()) {
      instr.bias.assign(bias, bias + config.out_channels);
    }
    program_.instrs.push_back(std::move(instr));
  }

  void lower_linear(Linear& linear) override {
    ProgramInstr instr;
    instr.kind = ProgramInstr::Kind::kLinear;
    instr.layer = add_layer(linear.name(), linear.source());
    if (const float* bias = linear.bias_data()) {
      instr.bias.assign(bias, bias + linear.out_features());
    }
    program_.instrs.push_back(std::move(instr));
  }

  void lower_batchnorm(const BatchNorm2d& bn) override {
    // Fold the eval-mode running statistics into one per-channel affine
    // a*x + b here, so the program (and the persisted artifact) carry only
    // the two vectors the requantization consumes.
    const std::int64_t channels = bn.running_mean().numel();
    ProgramInstr instr;
    instr.kind = ProgramInstr::Kind::kBatchNorm;
    instr.scale.resize(static_cast<std::size_t>(channels));
    instr.shift.resize(static_cast<std::size_t>(channels));
    const float* mean = bn.running_mean().data();
    const float* var = bn.running_var().data();
    const float* gamma = bn.gamma().data();
    const float* beta = bn.beta().data();
    for (std::int64_t c = 0; c < channels; ++c) {
      const float a = gamma[c] / std::sqrt(var[c] + bn.epsilon());
      instr.scale[static_cast<std::size_t>(c)] = a;
      instr.shift[static_cast<std::size_t>(c)] = beta[c] - mean[c] * a;
    }
    program_.instrs.push_back(std::move(instr));
  }

  void lower_relu() override { push_simple(ProgramInstr::Kind::kRelu); }

  void lower_act_quant(int bits, float clip) override {
    ProgramInstr instr;
    instr.kind = ProgramInstr::Kind::kActQuant;
    instr.act_bits = bits;
    instr.clip = clip;
    program_.instrs.push_back(std::move(instr));
  }

  void lower_maxpool(const Pool2dConfig& config) override {
    ProgramInstr instr;
    instr.kind = ProgramInstr::Kind::kMaxPool;
    instr.kernel = config.kernel_h;
    // kernel_w = 0 encodes a square window; build_graph reads it as
    // kernel_h.
    instr.kernel_w =
        config.kernel_w == config.kernel_h ? 0 : config.kernel_w;
    instr.stride = config.stride;
    instr.pad = config.pad;
    program_.instrs.push_back(std::move(instr));
  }

  void lower_global_avg_pool() override {
    push_simple(ProgramInstr::Kind::kGlobalAvgPool);
  }

  void lower_flatten() override { push_simple(ProgramInstr::Kind::kFlatten); }

  void begin_residual() override {
    push_simple(ProgramInstr::Kind::kBeginResidual);
  }

  void begin_skip() override { push_simple(ProgramInstr::Kind::kBeginSkip); }

  void end_residual() override {
    push_simple(ProgramInstr::Kind::kEndResidual);
  }

 private:
  void push_simple(ProgramInstr::Kind kind) {
    ProgramInstr instr;
    instr.kind = kind;
    program_.instrs.push_back(std::move(instr));
  }

  std::int32_t add_layer(const std::string& name, const WeightSource& source) {
    CSQ_CHECK(source.has_finalized_codes())
        << "lowering " << name << ": weight source '" << source.kind()
        << "' has no exact integer form (finalize the model first)";
    program_.layers.push_back(export_layer(name, source));
    return static_cast<std::int32_t>(program_.layers.size()) - 1;
  }

  GraphProgram& program_;
};

}  // namespace

GraphProgram record_program(Model& model) {
  CSQ_CHECK(model.has_root()) << "record_program: model has no root module";
  GraphProgram program;
  ProgramRecorder recorder(program);
  model.root().lower(recorder);
  return program;
}

}  // namespace runtime
}  // namespace csq
