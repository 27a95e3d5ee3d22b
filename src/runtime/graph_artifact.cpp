#include "runtime/graph_artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <sstream>
#include <streambuf>

#include "core/model_io.h"
#include "runtime/packed_weights.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/failpoint.h"

namespace csq {
namespace runtime {

namespace {

constexpr char kGraphMagic[4] = {'C', 'S', 'Q', 'G'};
// The graph section is versioned on its own. save_graph writes v5: the
// program (instructions carry kernel_w, the resolved kernel_kind and the
// avg-pool exclude_pad flag), the edge records, a packed-weights section
// (each conv/linear layer's int8 planes + prepacked kernel panels, 64-byte
// aligned) so load_graph_mmap can borrow weight pages straight from a
// read-only mapping, and a CRC-32 trailer over every preceding container
// byte. Both loaders accept exactly that: v1–v4 sections are rejected.
constexpr std::uint32_t kGraphSectionVersion = 5;
// Sanity bounds for reading untrusted artifacts.
constexpr std::uint32_t kMaxInstrs = 1 << 20;
constexpr std::uint32_t kMaxEdges = 1 << 20;
constexpr std::uint32_t kMaxVectorLength = 1 << 24;
constexpr std::int64_t kMaxExtent = 1 << 20;
constexpr std::size_t kCrcTrailerBytes = sizeof(std::uint32_t);
// File-offset alignment of every weight-section blob. mmap bases are
// page-aligned, so file-offset alignment IS memory alignment for the
// borrowed int16 panels (and keeps blobs cache-line aligned).
constexpr std::size_t kWeightAlignment = 64;

using model_io::read_pod;
using model_io::write_pod;

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

// Zero-pads `out` so the next byte lands on a kWeightAlignment boundary of
// the payload (== file) offset.
void pad_to_alignment(std::ostream& out) {
  static const char zeros[kWeightAlignment] = {};
  const auto pos = static_cast<std::size_t>(out.tellp());
  const std::size_t misalign = pos % kWeightAlignment;
  if (misalign != 0) {
    out.write(zeros,
              static_cast<std::streamsize>(kWeightAlignment - misalign));
  }
}

// Serializes the whole container (layer section + graph section + v5
// packed-weights section, no CRC trailer) — the byte range the trailer
// covers. `weights` are the built graph's packed layers in lowering order.
void write_payload(std::ostream& out, const GraphProgram& program,
                   const LowerOptions& options,
                   const std::vector<EdgeScaleRecord>& edges,
                   const std::vector<const PackedIntWeights*>& weights) {
  model_io::write_container_header(
      out, model_io::kGraphContainerVersion,
      static_cast<std::uint32_t>(program.layers.size()));
  for (const QuantizedLayerExport& layer : program.layers) {
    model_io::write_layer_record(out, layer);
  }

  out.write(kGraphMagic, sizeof(kGraphMagic));
  write_pod(out, kGraphSectionVersion);
  write_pod(out, options.in_channels);
  write_pod(out, options.in_height);
  write_pod(out, options.in_width);
  write_pod(out, static_cast<std::int32_t>(options.act_bits));

  write_pod(out, static_cast<std::uint32_t>(program.instrs.size()));
  std::vector<std::int32_t> weight_layer_indices;
  for (const ProgramInstr& instr : program.instrs) {
    if (instr.kind == ProgramInstr::Kind::kConv ||
        instr.kind == ProgramInstr::Kind::kLinear) {
      weight_layer_indices.push_back(instr.layer);
    }
    write_pod(out, static_cast<std::uint8_t>(instr.kind));
    write_pod(out, instr.layer);
    write_pod(out, instr.kernel);
    write_pod(out, instr.kernel_w);
    write_pod(out, instr.stride);
    write_pod(out, instr.pad);
    write_pod(out, instr.act_bits);
    write_pod(out, instr.clip);
    write_pod(out, instr.kernel_kind);
    write_pod(out, static_cast<std::uint8_t>(instr.exclude_pad ? 1 : 0));
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

  // v5 packed-weights section: the exact bytes the serving-time GEMM
  // consumes, one entry per conv/linear layer in lowering order, every blob
  // aligned so a mapped view can be consumed in place.
  CSQ_CHECK(weights.size() == weight_layer_indices.size())
      << "save_graph: " << weights.size() << " packed layers for "
      << weight_layer_indices.size() << " conv/linear instructions";
  write_pod(out, static_cast<std::uint32_t>(weights.size()));
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const PackedIntWeights& w = *weights[i];
    const std::int64_t count = w.rows() * w.cols();
    write_pod(out, weight_layer_indices[i]);
    write_pod(out, w.rows());
    write_pod(out, w.cols());
    write_pod(out, static_cast<std::int32_t>(w.shift()));
    write_pod(out, static_cast<std::int32_t>(w.kernel()));
    write_pod(out, static_cast<std::uint8_t>(w.split() ? 1 : 0));
    pad_to_alignment(out);
    out.write(reinterpret_cast<const char*>(w.primary_data()),
              static_cast<std::streamsize>(count));
    if (w.split()) {
      pad_to_alignment(out);
      out.write(reinterpret_cast<const char*>(w.low_data()),
                static_cast<std::streamsize>(count));
    }
    // The panel blobs: gemm_pack_a's layout for the layer's kernel, one per
    // stored plane.
    const auto panel_bytes = static_cast<std::streamsize>(
        gemm_packed_a_bytes(packed_kernel(w.kernel()), w.rows(), w.cols()));
    pad_to_alignment(out);
    out.write(reinterpret_cast<const char*>(w.panel_data()), panel_bytes);
    if (w.split()) {
      pad_to_alignment(out);
      out.write(reinterpret_cast<const char*>(w.low_panel_data()),
                panel_bytes);
    }
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

// Read-only istream over an existing byte span (the mmap'd artifact) with
// full seek support — parsing never copies the underlying bytes.
class SpanStreamBuf final : public std::streambuf {
 public:
  SpanStreamBuf(const char* data, std::size_t size) {
    char* base = const_cast<char*>(data);
    setg(base, base, base + size);
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    if (!(which & std::ios_base::in)) return pos_type(off_type(-1));
    const off_type size = egptr() - eback();
    off_type target = 0;
    switch (dir) {
      case std::ios_base::beg:
        target = off;
        break;
      case std::ios_base::cur:
        target = (gptr() - eback()) + off;
        break;
      case std::ios_base::end:
        target = size + off;
        break;
      default:
        return pos_type(off_type(-1));
    }
    if (target < 0 || target > size) return pos_type(off_type(-1));
    setg(eback(), eback() + target, egptr());
    return pos_type(target);
  }

  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekoff(off_type(pos), std::ios_base::beg, which);
  }
};

// Parses the packed-weights section (stream positioned right after the
// edge records) into views over the payload [base, base + payload_size).
// Every blob is bounds-checked against the payload, and each entry's layer
// and kernel must match its conv/linear instruction: the GEMM reads panels
// in the instruction's layout, so the entry must have been sized for it.
std::shared_ptr<MappedWeightTable> read_weight_table(
    std::istream& in, const char* base, std::size_t payload_size,
    const GraphProgram& program) {
  std::vector<const ProgramInstr*> weight_instrs;
  for (const ProgramInstr& instr : program.instrs) {
    if (instr.kind == ProgramInstr::Kind::kConv ||
        instr.kind == ProgramInstr::Kind::kLinear) {
      weight_instrs.push_back(&instr);
    }
  }

  const auto entry_count = read_pod<std::uint32_t>(in);
  CSQ_CHECK(entry_count == weight_instrs.size())
      << "graph artifact: weight section holds " << entry_count
      << " entries for " << weight_instrs.size() << " conv/linear layers";

  auto table = std::make_shared<MappedWeightTable>();
  table->entries.reserve(entry_count);

  // Aligns the read position and returns a bounds-checked view of the next
  // `bytes` payload bytes, advancing the stream past them.
  const auto take_blob = [&](std::int64_t bytes) -> const char* {
    const auto pos = static_cast<std::size_t>(in.tellg());
    const std::size_t misalign = pos % kWeightAlignment;
    const std::size_t aligned =
        misalign == 0 ? pos : pos + (kWeightAlignment - misalign);
    CSQ_CHECK(bytes >= 0 &&
              aligned + static_cast<std::size_t>(bytes) <= payload_size)
        << "graph artifact: weight blob overruns the payload";
    CSQ_CHECK(std::all_of(base + pos, base + aligned,
                          [](char c) { return c == 0; }))
        << "graph artifact: nonzero alignment padding";
    in.seekg(static_cast<std::streamoff>(aligned +
                                         static_cast<std::size_t>(bytes)),
             std::ios_base::beg);
    CSQ_CHECK(static_cast<bool>(in)) << "graph artifact: truncated weights";
    return base + aligned;
  };

  for (std::uint32_t i = 0; i < entry_count; ++i) {
    const ProgramInstr& instr = *weight_instrs[i];
    const auto layer_index = read_pod<std::int32_t>(in);
    CSQ_CHECK(layer_index == instr.layer)
        << "graph artifact: weight entry " << i << " keys layer "
        << layer_index << ", program expects " << instr.layer;
    MappedWeightTable::Entry entry;
    entry.rows = read_pod<std::int64_t>(in);
    entry.cols = read_pod<std::int64_t>(in);
    entry.shift = read_pod<std::int32_t>(in);
    const auto kernel = read_pod<std::int32_t>(in);
    const bool split = read_flag(in);
    CSQ_CHECK(entry.rows >= 1 && entry.rows <= kMaxExtent &&
              entry.cols >= 1 && entry.cols <= 32767)
        << "graph artifact: absurd weight extents " << entry.rows << "x"
        << entry.cols;
    CSQ_CHECK(kernel == instr.kernel_kind)
        << "graph artifact: weight entry " << i << " packed for kernel "
        << kernel << ", instruction selects " << instr.kernel_kind;

    const std::int64_t count = entry.rows * entry.cols;
    entry.spans.primary =
        reinterpret_cast<const std::int8_t*>(take_blob(count));
    if (split) {
      entry.spans.low =
          reinterpret_cast<const std::int8_t*>(take_blob(count));
    }
    const std::int64_t panel_bytes = gemm_packed_a_bytes(
        static_cast<PackedKernel>(kernel), entry.rows, entry.cols);
    entry.spans.panels =
        reinterpret_cast<const std::uint8_t*>(take_blob(panel_bytes));
    if (split) {
      entry.spans.low_panels =
          reinterpret_cast<const std::uint8_t*>(take_blob(panel_bytes));
    }
    table->entries.push_back(entry);
  }
  return table;
}

struct ParsedArtifact {
  GraphProgram program;
  LowerOptions options;
  std::vector<EdgeScaleRecord> edges;
  // Views into the parsed image: load_graph_mmap adopts them, load_graph
  // drops them and re-packs from the codes.
  std::shared_ptr<MappedWeightTable> weights;
};

// Parses the exact bytes save_graph writes from the image [data, data +
// size): the CRC trailer (the last four bytes) is verified BEFORE any field
// is deserialized, every section is read and bounds-checked, and the
// payload must end exactly where the weight section does.
// skip_layer_codes leaves every layer's code vector empty (mmap path).
ParsedArtifact parse_artifact(const char* data, std::size_t size,
                              bool pooled, bool skip_layer_codes) {
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
  const auto [version, layer_count] = model_io::read_container_header(in);
  CSQ_CHECK(version == model_io::kGraphContainerVersion)
      << "graph artifact: file is a plain quantized-model container "
      << "(version " << version << ") with no graph section";

  GraphProgram& program = parsed.program;
  program.layers.reserve(layer_count);
  for (std::uint32_t l = 0; l < layer_count; ++l) {
    program.layers.push_back(
        model_io::read_layer_record(in, skip_layer_codes));
  }

  char magic[4] = {};
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
    CSQ_CHECK(kind <= static_cast<std::uint8_t>(ProgramInstr::Kind::kAvgPool))
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
    instr.exclude_pad = read_flag(in);
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
        instr.kind == ProgramInstr::Kind::kMaxPool ||
        instr.kind == ProgramInstr::Kind::kAvgPool) {
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

  parsed.weights = read_weight_table(in, data, payload_size, program);
  CSQ_CHECK(static_cast<std::size_t>(in.tellg()) == payload_size)
      << "graph artifact: unexpected bytes after the weight section";
  return parsed;
}

// Owns one read-only mapping of an artifact file; the MappedWeightTable's
// keepalive shares it with every graph built from the program.
struct ArtifactMapping {
  const char* data = nullptr;
  std::size_t size = 0;

  ~ArtifactMapping() {
    if (data != nullptr) {
      ::munmap(const_cast<char*>(data), size);
    }
  }
};

}  // namespace

bool save_graph(const std::string& path, CompiledGraph& graph) {
  // Resolve (and validate) the scales before touching the filesystem so an
  // uncalibrated graph fails cleanly without leaving a partial file.
  const std::vector<EdgeScaleRecord> edges = graph.edge_scales();
  const GraphProgram& program = graph.program();
  const LowerOptions& options = graph.options();
  CSQ_CHECK(!program.instrs.empty())
      << "save_graph: graph carries no lowering program";
  CSQ_CHECK(program.mapped == nullptr)
      << "save_graph: graph was loaded via load_graph_mmap (weight codes "
         "are borrowed, not owned); re-save from a load_graph copy instead";

  // Serialize to memory first: the CRC trailer covers the exact payload
  // bytes, and the file write below becomes a single streamed copy.
  std::ostringstream buffer(std::ios::binary);
  write_payload(buffer, program, options, edges, graph.layer_weight_views());
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

  // The weight-section views are dropped: this loader re-packs from the
  // owned codes, byte-identically.
  ParsedArtifact parsed = parse_artifact(bytes.data(), bytes.size(), pooled,
                                         /*skip_layer_codes=*/false);
  CompiledGraph graph =
      build_graph(std::move(parsed.program), parsed.options);
  graph.restore_edge_scales(parsed.edges);
  return graph;
}

CompiledGraph load_graph_mmap(const std::string& path, bool pooled) {
  CSQ_FAILPOINT("artifact.mmap");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  CSQ_CHECK(fd >= 0) << "graph artifact: cannot open " << path;
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    CSQ_CHECK(false) << "graph artifact: cannot stat " << path;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  CSQ_CHECK(base != MAP_FAILED) << "graph artifact: mmap failed for " << path;
  auto mapping = std::make_shared<ArtifactMapping>();
  mapping->data = static_cast<const char*>(base);
  mapping->size = size;

  ParsedArtifact parsed = parse_artifact(mapping->data, size, pooled,
                                         /*skip_layer_codes=*/true);
  parsed.weights->keepalive = std::move(mapping);
  parsed.program.mapped = std::move(parsed.weights);
  CompiledGraph graph =
      build_graph(std::move(parsed.program), parsed.options);
  graph.restore_edge_scales(parsed.edges);
  return graph;
}

}  // namespace runtime
}  // namespace csq
