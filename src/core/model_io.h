// Binary serialization of finalized CSQ models.
//
// Completes the deployment story: after finalization the model is a list of
// integer code tensors plus per-layer scales (core/export.h); this module
// persists that list to a compact binary container and reads it back, so a
// quantized model can ship without the training stack.
//
// Format (little-endian):
//   magic "CSQM" | u32 version | u32 layer_count
//   per layer: u32 name_len | name bytes | u32 ndim | i64 dims[ndim]
//              | i32 bits | f32 scale | f32 denominator
//              | i16 codes[numel]
// Codes fit i16 (|q| <= 255 by construction; checked on save).
//
// Version 3 is the GRAPH ARTIFACT container (runtime/graph_artifact.h): the
// same layer section followed by a "CSQG" graph section carrying the lowered
// topology and calibrated edge scales. load_quantized_model reads the layer
// section of a v3 file and ignores the graph section, so serving artifacts
// double as plain quantized-model containers.
//
// Support window: readers accept exactly what the writers emit — containers
// v2 (plain) and v3 (graph artifact), checkpoints CSQC v2. Older versions
// are rejected with a check_error.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/export.h"
#include "nn/model.h"
#include "util/check.h"

namespace csq {

// Exports every quantizable layer of a model, in registry order. Throws if
// any quant layer has no exact integer form (WeightSource::
// has_finalized_codes — finalized CSQ, BSQ, STE-Uniform all qualify).
std::vector<QuantizedLayerExport> export_model(Model& model);

// Serializes to `path`. Returns false on I/O failure; throws check_error on
// malformed layers (e.g. codes out of the i16-representable range).
bool save_quantized_model(const std::string& path,
                          const std::vector<QuantizedLayerExport>& layers);

// Deserializes from `path`. Throws check_error on format violations
// (bad magic, truncated payload, absurd counts).
std::vector<QuantizedLayerExport> load_quantized_model(
    const std::string& path);

// Total storage of the container payload in bits (sum of per-layer
// storage_bits); used to report deployment size.
std::int64_t model_storage_bits(const std::vector<QuantizedLayerExport>& layers);

// ---- training checkpoints (float parameter state) -------------------------
//
// Distinct container ("CSQC") for mid-training state: every Parameter's
// float values in registration order. Format (little-endian, version 2):
//   magic "CSQC" | u32 version | u32 param_count
//   per param: u32 name_len | name | u32 ndim | i64 dims[ndim]
//              | u8 weight_decay            (metadata table)
//   f32 blob[total elements]               (one contiguous span)
// Because arena offsets are the unpadded concatenation of the per-tensor
// spans, the blob is byte-identical whether it is written straight from
// the arena (one write) or tensor by tensor — model_io_test asserts this.

// Saves every parameter of `model` as a v2 checkpoint. Binds the model's
// arena (nn/parameter_arena.h); the value payload is ONE contiguous write
// of the arena span. Returns false on I/O failure.
bool save_checkpoint(const std::string& path, Model& model);

// Same v2 bytes, written tensor by tensor without touching the arena —
// kept as the byte-identity oracle for save_checkpoint.
bool save_checkpoint_per_tensor(const std::string& path, Model& model);

// Loads a v2 checkpoint into `model`, which must have an identical
// parameter list (names, shapes, decay flags, order). Binds the arena and
// loads through ParameterArena::load_values, so every Parameter's version
// is bumped (dirty-flag contract). Throws check_error on mismatch or
// malformed files.
void load_checkpoint(const std::string& path, Model& model);

// ---- low-level container sections ----------------------------------------
//
// Shared with the runtime graph-artifact writer (runtime/graph_artifact.cpp),
// which embeds the standard layer section ahead of its graph section so one
// set of readers/writers defines the on-disk layer record.
namespace model_io {

// Container versions: v2 is the plain layer container save_quantized_model
// writes, v3 marks a trailing graph section. Readers accept exactly these.
constexpr std::uint32_t kLayerVersion = 2;
constexpr std::uint32_t kGraphContainerVersion = 3;

// Little-endian POD field encoding — ONE definition for every section of
// the container (layer records here, the graph section in
// runtime/graph_artifact.cpp), so the low-level format cannot drift
// between writers.
template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  CSQ_CHECK(static_cast<bool>(in)) << "model container: truncated";
  return value;
}

// Writes/validates the "CSQM" magic + version + layer count header.
void write_container_header(std::ostream& out, std::uint32_t version,
                            std::uint32_t layer_count);
// Returns {version, layer_count}; throws check_error on bad magic/bounds.
std::pair<std::uint32_t, std::uint32_t> read_container_header(
    std::istream& in);

// One layer record.
void write_layer_record(std::ostream& out, const QuantizedLayerExport& layer);
QuantizedLayerExport read_layer_record(std::istream& in);

}  // namespace model_io

}  // namespace csq
