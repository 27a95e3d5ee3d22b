#include "core/model_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>

#include "util/check.h"

namespace csq {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'Q', 'M'};
// Sanity bounds for reading untrusted files.
constexpr std::uint32_t kMaxLayers = 1 << 16;
constexpr std::uint32_t kMaxNameLength = 1 << 12;
constexpr std::uint32_t kMaxRank = 8;
constexpr std::int64_t kMaxElements = std::int64_t{1} << 32;

using model_io::read_pod;
using model_io::write_pod;

}  // namespace

namespace model_io {

void write_container_header(std::ostream& out, std::uint32_t version,
                            std::uint32_t layer_count) {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, version);
  write_pod(out, layer_count);
}

std::pair<std::uint32_t, std::uint32_t> read_container_header(
    std::istream& in) {
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  CSQ_CHECK(in && std::equal(magic, magic + 4, kMagic))
      << "quantized model file: bad magic";
  const auto version = read_pod<std::uint32_t>(in);
  CSQ_CHECK(version == kLayerVersion || version == kGraphContainerVersion)
      << "quantized model file: unsupported version " << version;
  const auto layer_count = read_pod<std::uint32_t>(in);
  CSQ_CHECK(layer_count <= kMaxLayers)
      << "quantized model file: absurd layer count " << layer_count;
  return {version, layer_count};
}

void write_layer_record(std::ostream& out, const QuantizedLayerExport& layer) {
  CSQ_CHECK(shape_numel(layer.shape) ==
            static_cast<std::int64_t>(layer.codes.size()))
      << "save: layer " << layer.name << " shape/code mismatch";
  write_pod(out, static_cast<std::uint32_t>(layer.name.size()));
  out.write(layer.name.data(),
            static_cast<std::streamsize>(layer.name.size()));
  write_pod(out, static_cast<std::uint32_t>(layer.shape.size()));
  for (const std::int64_t dim : layer.shape) write_pod(out, dim);
  write_pod(out, static_cast<std::int32_t>(layer.bits));
  write_pod(out, layer.scale);
  write_pod(out, layer.denominator);
  for (const std::int32_t code : layer.codes) {
    CSQ_CHECK(code >= -255 && code <= 255)
        << "save: layer " << layer.name << " code " << code
        << " outside the 8-bit grid";
    write_pod(out, static_cast<std::int16_t>(code));
  }
}

QuantizedLayerExport read_layer_record(std::istream& in) {
  QuantizedLayerExport layer;
  const auto name_length = read_pod<std::uint32_t>(in);
  CSQ_CHECK(name_length <= kMaxNameLength)
      << "quantized model file: absurd name length";
  layer.name.resize(name_length);
  in.read(layer.name.data(), name_length);
  CSQ_CHECK(static_cast<bool>(in)) << "quantized model file: truncated name";

  const auto rank = read_pod<std::uint32_t>(in);
  CSQ_CHECK(rank <= kMaxRank) << "quantized model file: absurd rank";
  layer.shape.resize(rank);
  // Overflow-safe element count: bound every partial product, so a
  // corrupted dim can neither wrap the int64 product past the bound check
  // nor drive the code-vector allocation below to an absurd size.
  std::int64_t count = 1;
  for (std::uint32_t d = 0; d < rank; ++d) {
    layer.shape[d] = read_pod<std::int64_t>(in);
    CSQ_CHECK(layer.shape[d] >= 0) << "quantized model file: negative dim";
    CSQ_CHECK(layer.shape[d] == 0 || count <= kMaxElements / layer.shape[d])
        << "quantized model file: absurd element count";
    count *= layer.shape[d];
  }

  layer.bits = read_pod<std::int32_t>(in);
  CSQ_CHECK(layer.bits >= 0 && layer.bits <= 8)
      << "quantized model file: bits out of range";
  layer.scale = read_pod<float>(in);
  layer.denominator = read_pod<float>(in);
  CSQ_CHECK(layer.denominator >= 1.0f && layer.denominator <= 255.0f)
      << "quantized model file: bad grid denominator";

  // Demand-driven growth (not an up-front resize): a corrupt count larger
  // than the actual payload throws on the first truncated read instead of
  // attempting a multi-gigabyte allocation first.
  layer.codes.reserve(static_cast<std::size_t>(
      std::min<std::int64_t>(count, std::int64_t{1} << 20)));
  for (std::int64_t i = 0; i < count; ++i) {
    const auto code = read_pod<std::int16_t>(in);
    CSQ_CHECK(code >= -255 && code <= 255)
        << "quantized model file: code outside the 8-bit grid";
    layer.codes.push_back(code);
  }
  return layer;
}

}  // namespace model_io

std::vector<QuantizedLayerExport> export_model(Model& model) {
  std::vector<QuantizedLayerExport> layers;
  layers.reserve(model.quant_layers().size());
  for (const QuantLayer& layer : model.quant_layers()) {
    CSQ_CHECK(layer.source->has_finalized_codes())
        << "export_model: layer " << layer.name << " ("
        << layer.source->kind()
        << ") has no exact integer form — finalize the model first";
    layers.push_back(export_layer(layer.name, *layer.source));
  }
  return layers;
}

bool save_quantized_model(const std::string& path,
                          const std::vector<QuantizedLayerExport>& layers) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;

  model_io::write_container_header(
      out, model_io::kLayerVersion,
      static_cast<std::uint32_t>(layers.size()));
  for (const QuantizedLayerExport& layer : layers) {
    model_io::write_layer_record(out, layer);
  }
  return static_cast<bool>(out);
}

std::vector<QuantizedLayerExport> load_quantized_model(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CSQ_CHECK(static_cast<bool>(in))
      << "quantized model file: cannot open " << path;

  const std::uint32_t layer_count = model_io::read_container_header(in).second;
  std::vector<QuantizedLayerExport> layers;
  layers.reserve(layer_count);
  for (std::uint32_t l = 0; l < layer_count; ++l) {
    layers.push_back(model_io::read_layer_record(in));
  }
  // v3 containers carry a trailing graph section (runtime/graph_artifact.h)
  // this reader deliberately ignores.
  return layers;
}

std::int64_t model_storage_bits(
    const std::vector<QuantizedLayerExport>& layers) {
  std::int64_t total = 0;
  for (const QuantizedLayerExport& layer : layers) {
    total += layer.storage_bits();
  }
  return total;
}

// ---- training checkpoints -------------------------------------------------

namespace {

constexpr char kCheckpointMagic[4] = {'C', 'S', 'Q', 'C'};
constexpr std::uint32_t kCheckpointVersion = 2;

void write_checkpoint_header(std::ostream& out, std::uint32_t param_count) {
  out.write(kCheckpointMagic, sizeof(kCheckpointMagic));
  write_pod(out, kCheckpointVersion);
  write_pod(out, param_count);
}

void write_param_metadata(std::ostream& out, const Parameter& param) {
  write_pod(out, static_cast<std::uint32_t>(param.name.size()));
  out.write(param.name.data(),
            static_cast<std::streamsize>(param.name.size()));
  const std::vector<std::int64_t>& shape = param.value.shape();
  write_pod(out, static_cast<std::uint32_t>(shape.size()));
  for (const std::int64_t dim : shape) write_pod(out, dim);
  write_pod(out, static_cast<std::uint8_t>(param.weight_decay ? 1 : 0));
}

// Validates one metadata record against the expected parameter and returns
// its element count. The checkpoint must have been written from a model
// with the identical parameter list.
std::int64_t read_param_metadata(std::istream& in, const Parameter& param) {
  const auto name_length = read_pod<std::uint32_t>(in);
  CSQ_CHECK(name_length <= kMaxNameLength)
      << "checkpoint: absurd name length";
  std::string name(name_length, '\0');
  in.read(name.data(), name_length);
  CSQ_CHECK(static_cast<bool>(in)) << "checkpoint: truncated name";
  CSQ_CHECK(name == param.name)
      << "checkpoint: parameter mismatch — file has '" << name
      << "', model expects '" << param.name << "'";

  const auto rank = read_pod<std::uint32_t>(in);
  CSQ_CHECK(rank <= kMaxRank) << "checkpoint: absurd rank";
  std::vector<std::int64_t> shape(rank);
  for (std::uint32_t d = 0; d < rank; ++d) {
    shape[d] = read_pod<std::int64_t>(in);
  }
  CSQ_CHECK(shape == param.value.shape())
      << "checkpoint: shape mismatch for " << param.name;

  const auto decay = read_pod<std::uint8_t>(in);
  CSQ_CHECK((decay != 0) == param.weight_decay)
      << "checkpoint: weight-decay flag mismatch for " << param.name;
  return shape_numel(shape);
}

}  // namespace

bool save_checkpoint(const std::string& path, Model& model) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;

  const ParameterArena& arena = model.arena();
  const std::vector<ParameterArena::View>& views = arena.views();
  write_checkpoint_header(out, static_cast<std::uint32_t>(views.size()));
  for (const ParameterArena::View& view : views) {
    write_param_metadata(out, *view.param);
  }
  // The whole payload is the arena value span — one contiguous write.
  out.write(reinterpret_cast<const char*>(arena.values()),
            static_cast<std::streamsize>(arena.size() *
                                         static_cast<std::int64_t>(
                                             sizeof(float))));
  return static_cast<bool>(out);
}

bool save_checkpoint_per_tensor(const std::string& path, Model& model) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;

  const std::vector<Parameter*>& params = model.parameters();
  write_checkpoint_header(out, static_cast<std::uint32_t>(params.size()));
  for (const Parameter* param : params) write_param_metadata(out, *param);
  for (const Parameter* param : params) {
    out.write(reinterpret_cast<const char*>(param->value.data()),
              static_cast<std::streamsize>(param->value.numel() *
                                           static_cast<std::int64_t>(
                                               sizeof(float))));
  }
  return static_cast<bool>(out);
}

void load_checkpoint(const std::string& path, Model& model) {
  std::ifstream in(path, std::ios::binary);
  CSQ_CHECK(static_cast<bool>(in)) << "checkpoint: cannot open " << path;

  char magic[4] = {};
  in.read(magic, sizeof(magic));
  CSQ_CHECK(in && std::equal(magic, magic + 4, kCheckpointMagic))
      << "checkpoint: bad magic";
  const auto version = read_pod<std::uint32_t>(in);
  CSQ_CHECK(version == kCheckpointVersion)
      << "checkpoint: unsupported version " << version;

  ParameterArena& arena = model.arena();
  const std::vector<ParameterArena::View>& views = arena.views();
  const auto param_count = read_pod<std::uint32_t>(in);
  CSQ_CHECK(param_count == views.size())
      << "checkpoint: file has " << param_count << " parameters, model has "
      << views.size();

  for (const ParameterArena::View& view : views) {
    const std::int64_t count = read_param_metadata(in, *view.param);
    CSQ_CHECK(count == view.count)
        << "checkpoint: element count mismatch for " << view.param->name;
  }
  // Assemble the flat span, then load it through the arena so every
  // version bump happens in one place.
  std::vector<float> values(static_cast<std::size_t>(arena.size()));
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(arena.size() *
                                       static_cast<std::int64_t>(
                                           sizeof(float))));
  CSQ_CHECK(static_cast<bool>(in)) << "checkpoint: truncated payload";
  arena.load_values(values.data());
}

}  // namespace csq
