// GraphProgram — the serializable intermediate representation between the
// float module tree and the integer compiled graph.
//
// A finalized model is lowered in two stages:
//
//   1. record_program(model) walks the module tree through the nn lowering
//      seam (nn/lowering.h) and captures everything the integer runtime
//      needs as plain data: per-layer integer weight codes (the same
//      QuantizedLayerExport records the model container stores), folded
//      batch-norm affines, conv geometry, activation-quantizer pins and the
//      residual fork/join markers.
//   2. build_graph(program, options) (runtime/compiled_graph.h) replays the
//      instruction list into a CompiledGraph.
//
// Because stage 2 consumes only data, the same replay reconstructs a graph
// from a persisted artifact (runtime/graph_artifact.h) with the float model
// absent from memory — the serving deployment path. Replay is
// deterministic: building from a recorded program and building from its
// save/load round-trip produce bit-identical graphs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/export.h"

namespace csq {

class Model;

namespace runtime {

// One lowering step. Fields beyond `kind` are meaningful only for the kinds
// noted; unused fields keep their defaults (and serialize as such).
struct ProgramInstr {
  enum class Kind : std::uint8_t {
    kConv = 0,        // layer, kernel/stride/pad, bias
    kBatchNorm = 1,   // scale/shift: the folded eval-mode affine
    kRelu = 2,
    kActQuant = 3,    // act_bits, clip
    kMaxPool = 4,     // kernel(_w)/stride/pad
    kGlobalAvgPool = 5,
    kFlatten = 6,
    kBeginResidual = 7,
    kBeginSkip = 8,
    kEndResidual = 9,
    kLinear = 10,     // layer, bias
  };

  Kind kind = Kind::kRelu;
  std::int32_t layer = -1;  // index into GraphProgram::layers (conv/linear)
  std::int64_t kernel = 0;  // conv kernel or pool kernel height
  std::int64_t kernel_w = 0;  // pool kernel width; 0 = square (`kernel`)
  std::int64_t stride = 1;  // conv and pools
  std::int64_t pad = 0;     // conv and pools
  std::int32_t act_bits = 0;  // act-quant only
  float clip = 0.0f;          // act-quant only
  // conv/linear: the selected GEMM path (runtime::WeightKernel numeric
  // value). -1 = unresolved; build_graph resolves it deterministically
  // before replay, so persisted programs (which always carry it) replay the
  // recorded choice.
  std::int32_t kernel_kind = -1;
  std::vector<float> scale;   // batch-norm: per-channel a of a*x + b
  std::vector<float> shift;   // batch-norm: per-channel b
  std::vector<float> bias;    // conv/linear bias (empty = none)
};

struct GraphProgram {
  // Quantized weight payloads, one per conv/linear instruction, in lowering
  // order — the exact records the model container's layer section stores.
  std::vector<QuantizedLayerExport> layers;
  std::vector<ProgramInstr> instrs;
};

// Records the module-tree walk of a finalized model. Every quantizable
// layer must answer WeightSource::has_finalized_codes(); throws with the
// offending layer's name otherwise.
GraphProgram record_program(Model& model);

}  // namespace runtime
}  // namespace csq
