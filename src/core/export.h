// Fixed-point export of finalized quantized models.
//
// A finalized weight source stores its weights as integer codes times
// scale / denominator (the paper's "exact quantized model" property, surfaced
// through WeightSource::finalized_codes — any fixed-grid family exports, not
// just CSQ). This module packages those codes as the layer records that
// lowering (runtime/graph_program.h) and the graph artifact
// (runtime/graph_artifact.h) carry, and verifies that the float
// materialization is bit-exact with the integer reconstruction. Integer
// inference over the exported codes lives in runtime/compiled_graph.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/weight_source.h"
#include "tensor/tensor.h"

namespace csq {

struct QuantizedLayerExport {
  std::string name;
  std::vector<std::int64_t> shape;
  std::vector<std::int32_t> codes;  // integer weight codes, |q| <= 255
  float scale = 1.0f;               // w = scale * code / denominator
  float denominator = 255.0f;       // 2^n - 1 of the layer's grid
  int bits = 0;                     // precision of the layer's scheme

  // Real value of one quantization step.
  float step() const { return scale / denominator; }
  // Storage estimate: bits * elements for codes (sign handled by the
  // positive/negative planes) plus the two per-layer floats of the layer
  // record (scale + grid denominator).
  std::int64_t storage_bits() const;
};

// Packages the source's integer form. Requires has_finalized_codes().
QuantizedLayerExport export_layer(const std::string& name,
                                  const WeightSource& source);

// Checks agreement between the source's float materialization and
// step() * codes. Returns the max abs difference — exactly 0.0 for finalized
// CSQ sources (integer-first materialization); at worst one float rounding
// per element for the other fixed-grid families.
float export_roundtrip_error(WeightSource& source);

}  // namespace csq
