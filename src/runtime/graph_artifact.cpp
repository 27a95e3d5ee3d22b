#include "runtime/graph_artifact.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <streambuf>

#include "runtime/packed_weights.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/failpoint.h"

namespace csq {
namespace runtime {

namespace {

constexpr char kContainerMagic[4] = {'C', 'S', 'Q', 'M'};
constexpr char kGraphMagic[4] = {'C', 'S', 'Q', 'G'};
// The container version marks a layer section followed by a graph section;
// v3 is the only container this module writes or reads.
constexpr std::uint32_t kContainerVersion = 3;
// The graph section is versioned on its own. save_graph writes v6: the
// program (instructions carry kernel_w, the resolved kernel_kind and one
// reserved byte, always 0) and the edge records, then a CRC-32 trailer over
// every preceding container byte. The weights are stored once, as the
// layer section's codes; load_graph packs the GEMM panels from them.
// load_graph accepts exactly that: every other section version is rejected.
constexpr std::uint32_t kGraphSectionVersion = 6;
// Sanity bounds for reading untrusted artifacts.
constexpr std::uint32_t kMaxLayers = 1 << 16;
constexpr std::uint32_t kMaxNameLength = 1 << 12;
constexpr std::uint32_t kMaxRank = 8;
constexpr std::int64_t kMaxElements = std::int64_t{1} << 32;
constexpr std::uint32_t kMaxInstrs = 1 << 20;
constexpr std::uint32_t kMaxEdges = 1 << 20;
constexpr std::uint32_t kMaxVectorLength = 1 << 24;
constexpr std::int64_t kMaxExtent = 1 << 20;
constexpr std::size_t kCrcTrailerBytes = sizeof(std::uint32_t);

// Little-endian POD field encoding, the one definition for every section.
template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  CSQ_CHECK(static_cast<bool>(in)) << "graph artifact: truncated";
  return value;
}

// One layer record: u32 name_len | name | u32 ndim | i64 dims[ndim] | i32
// bits | f32 scale | f32 denominator | i16 codes[numel]. Codes fit i16
// (|q| <= 255 by construction; checked on save).
void write_layer_record(std::ostream& out, const QuantizedLayerExport& layer) {
  CSQ_CHECK(shape_numel(layer.shape) ==
            static_cast<std::int64_t>(layer.codes.size()))
      << "save_graph: layer " << layer.name << " shape/code mismatch";
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
        << "save_graph: layer " << layer.name << " code " << code
        << " outside the 8-bit grid";
    write_pod(out, static_cast<std::int16_t>(code));
  }
}

QuantizedLayerExport read_layer_record(std::istream& in) {
  QuantizedLayerExport layer;
  const auto name_length = read_pod<std::uint32_t>(in);
  CSQ_CHECK(name_length <= kMaxNameLength)
      << "graph artifact: absurd name length";
  layer.name.resize(name_length);
  in.read(layer.name.data(), name_length);
  CSQ_CHECK(static_cast<bool>(in)) << "graph artifact: truncated name";

  const auto rank = read_pod<std::uint32_t>(in);
  CSQ_CHECK(rank <= kMaxRank) << "graph artifact: absurd rank";
  layer.shape.resize(rank);
  // Overflow-safe element count: bound every partial product, so a
  // corrupted dim can neither wrap the int64 product past the bound check
  // nor drive the code-vector allocation below to an absurd size.
  std::int64_t count = 1;
  for (std::uint32_t d = 0; d < rank; ++d) {
    layer.shape[d] = read_pod<std::int64_t>(in);
    CSQ_CHECK(layer.shape[d] >= 0) << "graph artifact: negative dim";
    CSQ_CHECK(layer.shape[d] == 0 || count <= kMaxElements / layer.shape[d])
        << "graph artifact: absurd element count";
    count *= layer.shape[d];
  }

  layer.bits = read_pod<std::int32_t>(in);
  CSQ_CHECK(layer.bits >= 0 && layer.bits <= 8)
      << "graph artifact: bits out of range";
  layer.scale = read_pod<float>(in);
  layer.denominator = read_pod<float>(in);
  CSQ_CHECK(layer.denominator >= 1.0f && layer.denominator <= 255.0f)
      << "graph artifact: bad grid denominator";

  // Demand-driven growth (not an up-front resize): a corrupt count larger
  // than the actual payload throws on the first truncated read instead of
  // attempting a multi-gigabyte allocation first.
  layer.codes.reserve(static_cast<std::size_t>(
      std::min<std::int64_t>(count, std::int64_t{1} << 20)));
  for (std::int64_t i = 0; i < count; ++i) {
    const auto code = read_pod<std::int16_t>(in);
    CSQ_CHECK(code >= -255 && code <= 255)
        << "graph artifact: code outside the 8-bit grid";
    layer.codes.push_back(code);
  }
  return layer;
}

void write_float_vector(std::ostream& out, const std::vector<float>& values) {
  write_pod(out, static_cast<std::uint32_t>(values.size()));
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
}

std::vector<float> read_float_vector(std::istream& in) {
  const auto count = read_pod<std::uint32_t>(in);
  CSQ_CHECK(count <= kMaxVectorLength)
      << "graph artifact: absurd vector length " << count;
  std::vector<float> values(count);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(float)));
  CSQ_CHECK(static_cast<bool>(in)) << "graph artifact: truncated";
  return values;
}

// A bool field: the writer emits exactly 0 or 1.
bool read_flag(std::istream& in) {
  const auto flag = read_pod<std::uint8_t>(in);
  CSQ_CHECK(flag <= 1) << "graph artifact: bad flag byte "
                       << static_cast<int>(flag);
  return flag != 0;
}

// Serializes the whole container (layer section + graph section, no CRC
// trailer) — the byte range the trailer covers.
void write_payload(std::ostream& out, const GraphProgram& program,
                   const LowerOptions& options,
                   const std::vector<EdgeScaleRecord>& edges) {
  out.write(kContainerMagic, sizeof(kContainerMagic));
  write_pod(out, kContainerVersion);
  write_pod(out, static_cast<std::uint32_t>(program.layers.size()));
  for (const QuantizedLayerExport& layer : program.layers) {
    write_layer_record(out, layer);
  }

  out.write(kGraphMagic, sizeof(kGraphMagic));
  write_pod(out, kGraphSectionVersion);
  write_pod(out, options.in_channels);
  write_pod(out, options.in_height);
  write_pod(out, options.in_width);
  write_pod(out, static_cast<std::int32_t>(options.act_bits));

  write_pod(out, static_cast<std::uint32_t>(program.instrs.size()));
  for (const ProgramInstr& instr : program.instrs) {
    write_pod(out, static_cast<std::uint8_t>(instr.kind));
    write_pod(out, instr.layer);
    write_pod(out, instr.kernel);
    write_pod(out, instr.kernel_w);
    write_pod(out, instr.stride);
    write_pod(out, instr.pad);
    write_pod(out, instr.act_bits);
    write_pod(out, instr.clip);
    write_pod(out, instr.kernel_kind);
    write_pod(out, std::uint8_t{0});  // reserved
    write_float_vector(out, instr.scale);
    write_float_vector(out, instr.shift);
    write_float_vector(out, instr.bias);
  }

  write_pod(out, static_cast<std::uint32_t>(edges.size()));
  for (const EdgeScaleRecord& edge : edges) {
    write_pod(out, static_cast<std::uint8_t>(edge.is_acc ? 1 : 0));
    write_pod(out, edge.scale);
    write_pod(out, edge.levels);
    write_pod(out, edge.zero_point);
  }
}

// Forces `path`'s dirty state to stable storage: file data pages for a
// regular file, the entry table for a directory (pass O_DIRECTORY).
bool sync_path(const char* path, int flags) {
  const int fd = ::open(path, flags | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// Directory component of `path` ("." when the path has none) — the directory
// whose entry table must be fsynced for a rename into it to be durable.
std::string parent_directory(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// ---- shared parse of the layer + graph sections ---------------------------

// Read-only istream over an existing byte span (the artifact image) —
// parsing never copies the underlying bytes.
class SpanStreamBuf final : public std::streambuf {
 public:
  SpanStreamBuf(const char* data, std::size_t size) {
    char* base = const_cast<char*>(data);
    setg(base, base, base + size);
  }
};

struct ParsedArtifact {
  GraphProgram program;
  LowerOptions options;
  std::vector<EdgeScaleRecord> edges;
};

// Parses the exact bytes save_graph writes from the image [data, data +
// size): the CRC trailer (the last four bytes) is verified BEFORE any field
// is deserialized, every section is read and bounds-checked, and the
// payload must end exactly where the edge records do.
ParsedArtifact parse_artifact(const char* data, std::size_t size,
                              bool pooled) {
  CSQ_CHECK(size > kCrcTrailerBytes) << "graph artifact: truncated";
  const std::size_t payload_size = size - kCrcTrailerBytes;
  std::uint32_t stored = 0;
  std::memcpy(&stored, data + payload_size, kCrcTrailerBytes);
  const std::uint32_t actual = crc32(data, payload_size);
  CSQ_CHECK(stored == actual)
      << "graph artifact: CRC mismatch (stored " << stored << ", computed "
      << actual << ") — torn write or corrupted file";

  SpanStreamBuf buf(data, payload_size);
  std::istream in(&buf);
  ParsedArtifact parsed;
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  CSQ_CHECK(in && std::equal(magic, magic + 4, kContainerMagic))
      << "graph artifact: bad magic";
  const auto version = read_pod<std::uint32_t>(in);
  CSQ_CHECK(version == kContainerVersion)
      << "graph artifact: unsupported container version " << version
      << " (this build reads v" << kContainerVersion << ")";
  const auto layer_count = read_pod<std::uint32_t>(in);
  CSQ_CHECK(layer_count <= kMaxLayers)
      << "graph artifact: absurd layer count " << layer_count;

  GraphProgram& program = parsed.program;
  program.layers.reserve(layer_count);
  for (std::uint32_t l = 0; l < layer_count; ++l) {
    program.layers.push_back(read_layer_record(in));
  }

  in.read(magic, sizeof(magic));
  CSQ_CHECK(in && std::equal(magic, magic + 4, kGraphMagic))
      << "graph artifact: bad graph-section magic";
  const auto section_version = read_pod<std::uint32_t>(in);
  CSQ_CHECK(section_version == kGraphSectionVersion)
      << "graph artifact: unsupported graph-section version "
      << section_version << " (this build reads v" << kGraphSectionVersion
      << ")";

  LowerOptions& options = parsed.options;
  options.in_channels = read_pod<std::int64_t>(in);
  options.in_height = read_pod<std::int64_t>(in);
  options.in_width = read_pod<std::int64_t>(in);
  options.act_bits = read_pod<std::int32_t>(in);
  options.pooled = pooled;
  for (const std::int64_t extent :
       {options.in_channels, options.in_height, options.in_width}) {
    CSQ_CHECK(extent >= 1 && extent <= kMaxExtent)
        << "graph artifact: bad input extent " << extent;
  }

  const auto instr_count = read_pod<std::uint32_t>(in);
  CSQ_CHECK(instr_count <= kMaxInstrs)
      << "graph artifact: absurd instruction count " << instr_count;
  program.instrs.reserve(instr_count);
  for (std::uint32_t i = 0; i < instr_count; ++i) {
    ProgramInstr instr;
    const auto kind = read_pod<std::uint8_t>(in);
    CSQ_CHECK(kind <= static_cast<std::uint8_t>(ProgramInstr::Kind::kLinear))
        << "graph artifact: unknown instruction kind "
        << static_cast<int>(kind);
    instr.kind = static_cast<ProgramInstr::Kind>(kind);
    instr.layer = read_pod<std::int32_t>(in);
    instr.kernel = read_pod<std::int64_t>(in);
    instr.kernel_w = read_pod<std::int64_t>(in);
    instr.stride = read_pod<std::int64_t>(in);
    instr.pad = read_pod<std::int64_t>(in);
    instr.act_bits = read_pod<std::int32_t>(in);
    instr.clip = read_pod<float>(in);
    instr.kernel_kind = read_pod<std::int32_t>(in);
    CSQ_CHECK(read_pod<std::uint8_t>(in) == 0)
        << "graph artifact: nonzero reserved instruction byte";
    instr.scale = read_float_vector(in);
    instr.shift = read_float_vector(in);
    instr.bias = read_float_vector(in);
    // Field validation the replay builder does not re-derive: a zero pool
    // kernel would reach an integer division and a wild act_bits an
    // undefined shift — corrupted artifacts must throw, not crash. Saved
    // programs carry a resolved GEMM kernel on every conv/linear and none
    // elsewhere (kind 2, the retired nibble kernel, is not one of them).
    const bool has_weights = instr.kind == ProgramInstr::Kind::kConv ||
                             instr.kind == ProgramInstr::Kind::kLinear;
    const auto kernel = static_cast<WeightKernel>(instr.kernel_kind);
    CSQ_CHECK(has_weights ? kernel == WeightKernel::kS8U8 ||
                                kernel == WeightKernel::kBitSerial ||
                                kernel == WeightKernel::kBitSerialWide
                          : kernel == WeightKernel::kAuto)
        << "graph artifact: bad kernel kind " << instr.kernel_kind;
    if (instr.kind == ProgramInstr::Kind::kConv ||
        instr.kind == ProgramInstr::Kind::kMaxPool) {
      CSQ_CHECK(instr.kernel >= 1 && instr.kernel <= kMaxExtent)
          << "graph artifact: bad kernel extent " << instr.kernel;
      CSQ_CHECK(instr.kernel_w >= 0 && instr.kernel_w <= kMaxExtent)
          << "graph artifact: bad kernel width " << instr.kernel_w;
      CSQ_CHECK(instr.stride >= 1 && instr.stride <= kMaxExtent &&
                instr.pad >= 0 && instr.pad <= kMaxExtent)
          << "graph artifact: bad conv/pool stride/pad";
    }
    if (instr.kind == ProgramInstr::Kind::kActQuant) {
      CSQ_CHECK(instr.act_bits >= 1 && instr.act_bits <= 32)
          << "graph artifact: bad act-quant bits " << instr.act_bits;
    }
    program.instrs.push_back(std::move(instr));
  }

  const auto edge_count = read_pod<std::uint32_t>(in);
  CSQ_CHECK(edge_count <= kMaxEdges)
      << "graph artifact: absurd edge count " << edge_count;
  parsed.edges.reserve(edge_count);
  for (std::uint32_t e = 0; e < edge_count; ++e) {
    EdgeScaleRecord record;
    record.is_acc = read_flag(in);
    record.scale = read_pod<float>(in);
    record.levels = read_pod<float>(in);
    record.zero_point = read_pod<std::int32_t>(in);
    parsed.edges.push_back(record);
  }

  CSQ_CHECK(in.peek() == std::char_traits<char>::eof())
      << "graph artifact: unexpected bytes after the edge records";
  return parsed;
}

}  // namespace

bool save_graph(const std::string& path, CompiledGraph& graph) {
  // Resolve (and validate) the scales before touching the filesystem so an
  // uncalibrated graph fails cleanly without leaving a partial file.
  const std::vector<EdgeScaleRecord> edges = graph.edge_scales();
  const GraphProgram& program = graph.program();
  const LowerOptions& options = graph.options();
  CSQ_CHECK(!program.instrs.empty())
      << "save_graph: graph carries no lowering program";

  // Serialize to memory first: the CRC trailer covers the exact payload
  // bytes, and the file write below becomes a single streamed copy.
  std::ostringstream buffer(std::ios::binary);
  write_payload(buffer, program, options, edges);
  CSQ_CHECK(static_cast<bool>(buffer))
      << "save_graph: in-memory serialization failed";
  const std::string payload = buffer.str();
  const std::uint32_t checksum = crc32(payload.data(), payload.size());

  // Crash-safe publish: write a sibling temp file, fsync it, atomically
  // rename over the destination, then fsync the parent directory. A crash
  // or I/O failure mid-write leaves the destination either absent or the
  // previous complete artifact — never a truncated file a later load_graph
  // trusts — and the directory fsync makes the rename itself durable (on
  // ext4/xfs a crash right after rename can otherwise roll the name back to
  // the previous artifact even though the data pages hit disk).
  static std::atomic<std::uint64_t> temp_counter{0};
  const std::string temp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(temp_counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    // Mid-write I/O failure injection (disk full): the destination must be
    // untouched and the temp file must not survive.
    CSQ_FAILPOINT_STREAM("artifact.write", out);
    write_pod(out, checksum);
    out.flush();
    if (!out) {
      std::remove(temp_path.c_str());
      return false;
    }
  }
  if (CSQ_FAILPOINT_FIRES("artifact.fsync") ||
      !sync_path(temp_path.c_str(), O_RDONLY)) {
    std::remove(temp_path.c_str());
    return false;
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    std::remove(temp_path.c_str());
    return false;
  }
  // Post-rename window: the new artifact's bytes are durable but its name
  // may not be. On directory-fsync failure report false — the caller must
  // not bank on durability — while the renamed file stays in place and
  // remains loadable.
  const std::string dir = parent_directory(path);
  if (CSQ_FAILPOINT_FIRES("artifact.dirsync") ||
      !sync_path(dir.c_str(), O_RDONLY | O_DIRECTORY)) {
    return false;
  }
  return true;
}

CompiledGraph load_graph(const std::string& path, bool pooled) {
  CSQ_FAILPOINT("artifact.read");
  std::ifstream file(path, std::ios::binary);
  CSQ_CHECK(static_cast<bool>(file))
      << "graph artifact: cannot open " << path;
  // Read the whole artifact up front: the CRC trailer covers every
  // preceding byte, so integrity is decided on the exact file image before
  // any field is trusted (artifacts are compact — the weights are int8
  // codes).
  std::ostringstream sink(std::ios::binary);
  sink << file.rdbuf();
  CSQ_CHECK(static_cast<bool>(file) || file.eof())
      << "graph artifact: cannot read " << path;
  const std::string bytes = sink.str();

  // build_graph packs every GEMM panel from the layer section's codes.
  ParsedArtifact parsed = parse_artifact(bytes.data(), bytes.size(), pooled);
  CompiledGraph graph =
      build_graph(std::move(parsed.program), parsed.options);
  graph.restore_edge_scales(parsed.edges);
  return graph;
}

}  // namespace runtime
}  // namespace csq
