// Tests for the graph-artifact container (runtime/graph_artifact): the
// committed golden_v6.csqm fixture (pinned logits, layer records, byte
// identity on resave), the container and graph-section version windows, the
// reader's message for every field bound it checks, the writer's layer
// records and publish path, and the rejection of files and layers save_graph
// never emits.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/compiled_graph.h"
#include "runtime/graph_artifact.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/rng.h"

namespace csq {
namespace {

// Unique temp path per test to avoid collisions under parallel ctest.
std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "csq_artifact_" + tag + ".bin";
}

// ------------------------------------------------------- golden file ---
//
// The committed fixture (tests/data/golden_v6.csqm) is the one format the
// writer emits. Every field is asserted against the values the file was
// written with; versions outside the window are rejected.

std::string golden_path(const std::string& name) {
  return std::string(CSQ_TEST_DATA_DIR) + "/" + name;
}

// Committed v6 artifact (5441 bytes) whose layers run every integer kernel
// family. It comes from a hand-built GraphProgram over 3x8x8 inputs: conv1
// 8x3x3x3 (8-bit, s8u8), conv2 8x8x3x3 (8-bit codes up to +/-255, split
// s8u8), conv3 8x8x3x3 (3-bit, bitserial), conv4 8x8x1x1 (2-bit,
// bitserial-w16), conv5 8x8x3x3 (4-bit, s8u8), each followed by ReLU, then
// global average pooling and an 8-bit 4x8 fc head; calibrated on 8 seeded
// uniform(-1, 1) images. The file is the earlier v5 fixture's payload cut
// before its packed-weights section (the first 5437 bytes), with the
// graph-section version set to 6 and a fresh CRC trailer; every byte the
// loader reads is unchanged, and so are the logits. The file holds integer
// codes only and the GEMM panels are packed from them at load, so the
// pinned logits are the check on the packers.
const char kGoldenV6[] = "golden_v6.csqm";
const float kGoldenV6Logits[8] = {0.353785932f,  -0.103491917f, -0.204821542f,
                                  0.578203261f,  0.354760945f,  -0.10857062f,
                                  -0.195406288f, 0.56861341f};

Tensor golden_v6_probe() {
  Tensor probe({2, 3, 8, 8});
  Rng probe_rng(9999);
  for (std::int64_t i = 0; i < probe.numel(); ++i) {
    probe[i] = probe_rng.uniform(-1.0f, 1.0f);
  }
  return probe;
}

void expect_golden_v6_graph(runtime::CompiledGraph& graph) {
  const char* kernels[6] = {"s8u8",          "s8u8", "bitserial",
                            "bitserial-w16", "s8u8", "s8u8"};
  ASSERT_EQ(graph.layers().size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(graph.layers()[i].kernel, kernels[i]) << "layer " << i;
    EXPECT_EQ(graph.layers()[i].split, i == 1) << "layer " << i;
  }
  const Tensor logits = graph.forward(golden_v6_probe());
  ASSERT_EQ(logits.numel(), 8);
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(logits[i], kGoldenV6Logits[i]) << "logit " << i;
  }
}

std::vector<char> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

TEST(ModelIoGolden, V6FixtureServesPinnedLogits) {
  runtime::CompiledGraph graph = runtime::load_graph(golden_path(kGoldenV6));
  expect_golden_v6_graph(graph);
}

TEST(ModelIoGolden, V6FixtureLayerSectionHoldsPinnedLayers) {
  // The layer section's records, as load_graph hands them to the program.
  const runtime::CompiledGraph graph =
      runtime::load_graph(golden_path(kGoldenV6));
  const auto& layers = graph.program().layers;
  ASSERT_EQ(layers.size(), 6u);
  const char* names[6] = {"conv1", "conv2", "conv3", "conv4", "conv5", "fc"};
  const std::vector<std::int64_t> shapes[6] = {
      {8, 3, 3, 3}, {8, 8, 3, 3}, {8, 8, 3, 3},
      {8, 8, 1, 1}, {8, 8, 3, 3}, {4, 8}};
  const int bits[6] = {8, 8, 3, 2, 4, 8};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(layers[i].name, names[i]) << "layer " << i;
    EXPECT_EQ(layers[i].shape, shapes[i]) << "layer " << i;
    EXPECT_EQ(layers[i].bits, bits[i]) << "layer " << i;
    EXPECT_EQ(layers[i].codes.size(),
              static_cast<std::size_t>(shape_numel(shapes[i])))
        << "layer " << i;
  }
}

TEST(ModelIoGolden, ContainerVersionsOutsideTheWindowAreRejected) {
  // The committed fixture relabelled as every neighbouring container
  // version (the u32 at byte 4) and resealed with a fresh CRC: only v3 is
  // read. v2 was the retired plain layer container, v4 a future one.
  const std::string payload = testing::golden_v6_payload();
  const std::string path = temp_path("container_version");
  for (const std::uint32_t version : {0u, 1u, 2u, 4u}) {
    std::string mutant = payload;
    std::memcpy(mutant.data() + 4, &version, sizeof(version));
    testing::write_bytes(path, testing::reseal(mutant));
    try {
      runtime::load_graph(path);
      ADD_FAILURE() << "container v" << version << " loaded";
    } catch (const check_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "unsupported container version " +
                    std::to_string(version) + " (this build reads v3)"),
                std::string::npos)
          << "v" << version << ": " << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(ModelIoGolden, GraphSectionVersionsOutsideTheWindowAreRejected) {
  // The committed v6 fixture relabelled as every other graph-section
  // version and resealed with a fresh CRC: only v6 is read. v1-v5 are the
  // retired layouts (v5 appended a packed-weights section), v7 a future one.
  const std::string payload = testing::golden_v6_payload();
  const std::size_t magic = payload.find("CSQG");
  ASSERT_NE(magic, std::string::npos);
  const std::string path = temp_path("graph_version");
  for (const std::uint32_t version : {1u, 2u, 3u, 4u, 5u, 7u}) {
    std::string mutant = payload;
    std::memcpy(mutant.data() + magic + 4, &version, sizeof(version));
    testing::write_bytes(path, testing::reseal(mutant));
    try {
      runtime::load_graph(path);
      ADD_FAILURE() << "graph section v" << version << " loaded";
    } catch (const check_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported graph-section version"),
                std::string::npos)
          << "v" << version << ": " << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(ModelIoGolden, V6FixtureResavesByteIdentically) {
  const std::vector<char> original = read_file_bytes(golden_path(kGoldenV6));
  ASSERT_EQ(original.size(), 5441u);
  runtime::CompiledGraph graph = runtime::load_graph(golden_path(kGoldenV6));
  const std::string path = temp_path("golden_v6_resave");
  ASSERT_TRUE(runtime::save_graph(path, graph));
  EXPECT_TRUE(read_file_bytes(path) == original)
      << "save_graph no longer reproduces the committed v6 bytes";
  std::remove(path.c_str());
}

// ------------------------------------------------ rejected inputs ---

TEST(GraphArtifact, RejectsMissingFile) {
  EXPECT_THROW(runtime::load_graph(temp_path("does_not_exist")), check_error);
}

TEST(GraphArtifact, RejectsBadMagic) {
  const std::string path = temp_path("badmagic");
  // A file that is no artifact at all fails its CRC trailer first...
  testing::write_bytes(path, "NOPEnope this is not a model file");
  EXPECT_THROW(runtime::load_graph(path), check_error);

  // ...and the fixture with its "CSQM" magic overwritten, resealed so the
  // CRC passes, fails on the magic itself.
  std::string mutant = testing::golden_v6_payload();
  std::memcpy(mutant.data(), "NOPE", 4);
  testing::write_bytes(path, testing::reseal(mutant));
  try {
    runtime::load_graph(path);
    ADD_FAILURE() << "bad magic loaded";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("graph artifact: bad magic"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(GraphArtifact, RejectsOutOfGridCodesOnBuild) {
  // A code outside the 8-bit grid can still share a power-of-two factor
  // with the rest of its layer that would bring code >> shift back inside.
  // Doubling conv2's codes (up to +/-255) gives such a layer with codes up
  // to +/-510: build_graph must refuse it, as load_graph refuses to read
  // one, so no graph holds codes save_graph could not write.
  runtime::CompiledGraph golden = runtime::load_graph(golden_path(kGoldenV6));
  runtime::GraphProgram program = golden.program();
  std::int32_t widest = 0;
  for (std::int32_t& code : program.layers[1].codes) {
    code *= 2;
    widest = std::max(widest, std::abs(code));
  }
  ASSERT_GT(widest, 255);
  try {
    runtime::build_graph(std::move(program), golden.options());
    ADD_FAILURE() << "out-of-grid codes built";
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find("outside the 8-bit grid"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------ integrity and field bounds ---
//
// Each case edits the fixture and asserts the reader's message for the one
// check the edit trips. Edits past the CRC check are resealed with a fresh
// trailer so they reach the field validators.

// load_graph must reject `path` with a check_error whose message contains
// `reason`.
void expect_load_rejects(const std::string& path, const std::string& reason) {
  try {
    runtime::load_graph(path);
    ADD_FAILURE() << "loaded a file that should fail with: " << reason;
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

// Reseals `payload` into a file and expects load_graph to reject it.
void expect_payload_rejected(const std::string& payload,
                             const std::string& tag,
                             const std::string& reason) {
  const std::string path = temp_path(tag);
  testing::write_bytes(path, testing::reseal(payload));
  expect_load_rejects(path, reason);
  std::remove(path.c_str());
}

template <typename T>
T peek(const std::string& bytes, std::size_t offset) {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

// `payload` with the T at `offset` overwritten by `value`.
template <typename T>
std::string with_field(std::string payload, std::size_t offset, T value) {
  std::memcpy(payload.data() + offset, &value, sizeof(T));
  return payload;
}

// Field offsets in the fixture's payload. The container opens with "CSQM",
// the u32 container version and the u32 layer count. The graph section
// opens with "CSQG", the u32 section version, i64 in_channels, in_height
// and in_width, i32 act_bits and the u32 instruction count. An instruction
// is u8 kind, i32 layer, i64 kernel, kernel_w, stride and pad, i32
// act_bits, f32 clip, i32 kernel kind, a reserved u8 and three float
// vectors (u32 length, then the floats). The u32 edge count and the 13-byte
// edge records (u8 flag, f32 scale, f32 levels, i32 zero point) end it.
constexpr std::size_t kLayerCountAt = 8;
constexpr std::size_t kInstrKernel = 5;
constexpr std::size_t kInstrKernelW = 13;
constexpr std::size_t kInstrStride = 21;
constexpr std::size_t kInstrPad = 29;
constexpr std::size_t kInstrActBits = 37;
constexpr std::size_t kInstrVectors = 50;
constexpr std::size_t kEdgeRecordBytes = 13;

struct FixtureLayout {
  std::size_t section = 0;      // the "CSQG" magic
  std::size_t instr_count = 0;  // the u32 instruction count
  std::vector<std::size_t> instrs;
  std::size_t edge_count = 0;  // the u32 edge count
};

FixtureLayout fixture_layout(const std::string& payload) {
  FixtureLayout layout;
  layout.section = payload.find("CSQG");
  EXPECT_NE(layout.section, std::string::npos);
  layout.instr_count = layout.section + 36;
  std::size_t at = layout.instr_count + 4;
  const auto count = peek<std::uint32_t>(payload, layout.instr_count);
  for (std::uint32_t i = 0; i < count; ++i) {
    layout.instrs.push_back(at);
    at += kInstrVectors;
    for (int v = 0; v < 3; ++v) {
      at += 4 + 4 * std::size_t{peek<std::uint32_t>(payload, at)};
    }
  }
  layout.edge_count = at;
  EXPECT_EQ(at + 4 + kEdgeRecordBytes * peek<std::uint32_t>(payload, at),
            payload.size());
  return layout;
}

// The fixture's program opens with conv1 (kind 0; kernel 3, stride 1, pad
// 1) and its ReLU (kind 2).
FixtureLayout golden_layout_checked(const std::string& payload) {
  FixtureLayout layout = fixture_layout(payload);
  EXPECT_EQ(layout.instrs.size(), 13u);
  if (layout.instrs.size() >= 2) {
    EXPECT_EQ(peek<std::uint8_t>(payload, layout.instrs[0]), 0);
    EXPECT_EQ(peek<std::int64_t>(payload, layout.instrs[0] + kInstrKernel), 3);
    EXPECT_EQ(peek<std::uint8_t>(payload, layout.instrs[1]), 2);
  }
  return layout;
}

TEST(GraphArtifact, RejectsTruncatedFile) {
  // The fixture with its last five bytes cut off: the four bytes read as
  // the trailer no longer hold the checksum of the bytes before them.
  const std::string bytes = testing::read_bytes(golden_path(kGoldenV6));
  const std::string path = temp_path("truncated");
  testing::write_bytes(path, bytes.substr(0, bytes.size() - 5));
  expect_load_rejects(path, "graph artifact: CRC mismatch");
  std::remove(path.c_str());
}

TEST(GraphArtifact, RejectsFilesNoLongerThanTheCrcTrailer) {
  // Zero to four bytes cannot hold a payload and its four-byte trailer.
  const std::string path = temp_path("trailer_only");
  for (std::size_t size = 0; size <= 4; ++size) {
    SCOPED_TRACE("size " + std::to_string(size));
    testing::write_bytes(path, std::string(size, '\0'));
    expect_load_rejects(path, "graph artifact: truncated");
  }
  std::remove(path.c_str());
}

TEST(GraphArtifact, CrcMismatchNamesBothChecksums) {
  // One flipped payload byte under the trailer save_graph wrote: the
  // message names the stored and the recomputed checksum.
  const std::string bytes = testing::read_bytes(golden_path(kGoldenV6));
  const std::size_t payload_size = bytes.size() - sizeof(std::uint32_t);
  std::string flipped = bytes;
  flipped[100] = static_cast<char>(flipped[100] ^ 0x01);
  const auto stored = peek<std::uint32_t>(bytes, payload_size);
  const std::uint32_t computed = crc32(flipped.data(), payload_size);
  ASSERT_NE(stored, computed);
  const std::string path = temp_path("crc_mismatch");
  testing::write_bytes(path, flipped);
  expect_load_rejects(path, "CRC mismatch (stored " + std::to_string(stored) +
                                ", computed " + std::to_string(computed) +
                                ")");
  std::remove(path.c_str());
}

TEST(GraphArtifact, RejectsBadGraphSectionMagic) {
  const std::string payload = testing::golden_v6_payload();
  const FixtureLayout layout = golden_layout_checked(payload);
  std::string mutant = payload;
  std::memcpy(mutant.data() + layout.section, "CSQX", 4);
  expect_payload_rejected(mutant, "graph_magic",
                          "graph artifact: bad graph-section magic");
}

TEST(GraphArtifact, RejectsAbsurdLayerCount) {
  // The bound is 2^16 layers. One past it is refused before any record is
  // read; at the bound the count passes and the seventh record, read from
  // the graph section's bytes, fails.
  const std::string payload = testing::golden_v6_payload();
  ASSERT_EQ(peek<std::uint32_t>(payload, kLayerCountAt), 6u);
  expect_payload_rejected(
      with_field<std::uint32_t>(payload, kLayerCountAt, 65537), "layer_count",
      "absurd layer count 65537");
  expect_payload_rejected(
      with_field<std::uint32_t>(payload, kLayerCountAt, 65536),
      "layer_count_bound", "graph artifact: absurd name length");
}

TEST(GraphArtifact, RejectsAbsurdInstructionCount) {
  const std::string payload = testing::golden_v6_payload();
  const FixtureLayout layout = golden_layout_checked(payload);
  expect_payload_rejected(
      with_field<std::uint32_t>(payload, layout.instr_count, (1u << 20) + 1),
      "instr_count", "absurd instruction count 1048577");
}

TEST(GraphArtifact, RejectsAbsurdEdgeCount) {
  const std::string payload = testing::golden_v6_payload();
  const FixtureLayout layout = golden_layout_checked(payload);
  ASSERT_EQ(peek<std::uint32_t>(payload, layout.edge_count), 12u);
  expect_payload_rejected(
      with_field<std::uint32_t>(payload, layout.edge_count, (1u << 20) + 1),
      "edge_count", "absurd edge count 1048577");
}

TEST(GraphArtifact, RejectsAbsurdFloatVectorLength) {
  // conv1's scale vector (empty in the fixture) claims 2^24 + 1 floats.
  const std::string payload = testing::golden_v6_payload();
  const FixtureLayout layout = golden_layout_checked(payload);
  const std::size_t scale = layout.instrs[0] + kInstrVectors;
  ASSERT_EQ(peek<std::uint32_t>(payload, scale), 0u);
  expect_payload_rejected(
      with_field<std::uint32_t>(payload, scale, (1u << 24) + 1), "vector",
      "absurd vector length 16777217");
}

TEST(GraphArtifact, RejectsBadEdgeFlagByte) {
  // The first edge record's accumulator flag: the writer emits 0 or 1.
  const std::string payload = testing::golden_v6_payload();
  const FixtureLayout layout = golden_layout_checked(payload);
  const std::size_t flag = layout.edge_count + 4;
  ASSERT_LE(peek<std::uint8_t>(payload, flag), 1);
  expect_payload_rejected(with_field<std::uint8_t>(payload, flag, 2),
                          "edge_flag", "bad flag byte 2");
}

TEST(GraphArtifact, RejectsBadInputExtent) {
  // in_channels (3) set to 0, and in_width (8) one past the 2^20 bound.
  const std::string payload = testing::golden_v6_payload();
  const FixtureLayout layout = golden_layout_checked(payload);
  const std::size_t channels = layout.section + 8;
  const std::size_t width = layout.section + 24;
  ASSERT_EQ(peek<std::int64_t>(payload, channels), 3);
  ASSERT_EQ(peek<std::int64_t>(payload, width), 8);
  expect_payload_rejected(with_field<std::int64_t>(payload, channels, 0),
                          "extent_zero", "bad input extent 0");
  expect_payload_rejected(
      with_field<std::int64_t>(payload, width, (std::int64_t{1} << 20) + 1),
      "extent_wide", "bad input extent 1048577");
}

TEST(GraphArtifact, RejectsZeroKernelExtent) {
  const std::string payload = testing::golden_v6_payload();
  const FixtureLayout layout = golden_layout_checked(payload);
  expect_payload_rejected(
      with_field<std::int64_t>(payload, layout.instrs[0] + kInstrKernel, 0),
      "kernel", "bad kernel extent 0");
}

TEST(GraphArtifact, RejectsNegativeKernelWidth) {
  // kernel_w 0 means square; a negative width is no kernel.
  const std::string payload = testing::golden_v6_payload();
  const FixtureLayout layout = golden_layout_checked(payload);
  const std::size_t kernel_w = layout.instrs[0] + kInstrKernelW;
  ASSERT_EQ(peek<std::int64_t>(payload, kernel_w), 0);
  expect_payload_rejected(with_field<std::int64_t>(payload, kernel_w, -1),
                          "kernel_w", "bad kernel width -1");
}

TEST(GraphArtifact, RejectsBadStrideOrPad) {
  // conv1's stride (1) set to 0, then its pad (1) set to -1.
  const std::string payload = testing::golden_v6_payload();
  const FixtureLayout layout = golden_layout_checked(payload);
  const std::size_t stride = layout.instrs[0] + kInstrStride;
  const std::size_t pad = layout.instrs[0] + kInstrPad;
  ASSERT_EQ(peek<std::int64_t>(payload, stride), 1);
  ASSERT_EQ(peek<std::int64_t>(payload, pad), 1);
  expect_payload_rejected(with_field<std::int64_t>(payload, stride, 0),
                          "stride", "bad conv/pool stride/pad");
  expect_payload_rejected(with_field<std::int64_t>(payload, pad, -1), "pad",
                          "bad conv/pool stride/pad");
}

TEST(GraphArtifact, RejectsBadActQuantBits) {
  // conv1's ReLU relabelled as an activation quantizer (kind 3) keeps its
  // act_bits of 0; 33 is one past the bound.
  const std::string payload = testing::golden_v6_payload();
  const FixtureLayout layout = golden_layout_checked(payload);
  const std::size_t relu = layout.instrs[1];
  ASSERT_EQ(peek<std::int32_t>(payload, relu + kInstrActBits), 0);
  const std::string act_quant = with_field<std::uint8_t>(payload, relu, 3);
  expect_payload_rejected(act_quant, "act_bits_zero", "bad act-quant bits 0");
  expect_payload_rejected(
      with_field<std::int32_t>(act_quant, relu + kInstrActBits, 33),
      "act_bits_wide", "bad act-quant bits 33");
}

TEST(GraphArtifact, RejectsTrailingBytesAfterTheEdgeRecords) {
  expect_payload_rejected(testing::golden_v6_payload() + std::string(1, '\0'),
                          "trailing",
                          "unexpected bytes after the edge records");
}

// ------------------------------------------------------------- writer ---

TEST(GraphArtifact, WeightStorageBitsCountsSplitPlanes) {
  // Each layer of the loaded fixture stores count x bits plus 32 bits of
  // scale; conv2's split codes add a 1-bit lo plane.
  const runtime::CompiledGraph graph =
      runtime::load_graph(golden_path(kGoldenV6));
  const std::int64_t bits[6] = {216 * 8 + 32,  576 * (8 + 1) + 32,
                                576 * 3 + 32,  64 * 2 + 32,
                                576 * 4 + 32,  32 * 8 + 32};
  ASSERT_EQ(graph.layers().size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(graph.layers()[i].storage_bits, bits[i]) << "layer " << i;
  }
  EXPECT_EQ(graph.weight_storage_bits(), 11520);
}

TEST(GraphArtifact, SaveLoadPreservesEveryLayerRecordField) {
  // The fixture's program with new names (one at the 4096-byte bound) and
  // scales: every field of every layer record reads back exactly.
  runtime::CompiledGraph golden = runtime::load_graph(golden_path(kGoldenV6));
  runtime::GraphProgram program = golden.program();
  program.layers[0].name = std::string(4096, 'n');
  for (std::size_t i = 1; i < program.layers.size(); ++i) {
    program.layers[i].name = "stage" + std::to_string(i) + ".block.conv";
  }
  for (QuantizedLayerExport& layer : program.layers) layer.scale *= 0.375f;
  const std::vector<QuantizedLayerExport> written = program.layers;
  runtime::CompiledGraph graph =
      runtime::build_graph(std::move(program), golden.options());
  graph.restore_edge_scales(golden.edge_scales());
  const std::string path = temp_path("layer_fields");
  ASSERT_TRUE(runtime::save_graph(path, graph));

  const runtime::CompiledGraph loaded = runtime::load_graph(path);
  const auto& layers = loaded.program().layers;
  ASSERT_EQ(layers.size(), written.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EXPECT_EQ(layers[i].name, written[i].name) << "layer " << i;
    EXPECT_EQ(layers[i].shape, written[i].shape) << "layer " << i;
    EXPECT_EQ(layers[i].bits, written[i].bits) << "layer " << i;
    EXPECT_EQ(layers[i].scale, written[i].scale) << "layer " << i;
    EXPECT_EQ(layers[i].denominator, written[i].denominator) << "layer " << i;
    EXPECT_EQ(layers[i].codes, written[i].codes) << "layer " << i;
  }
  std::remove(path.c_str());
}

TEST(GraphArtifact, SaveToABareFileNamePublishesInTheWorkingDirectory) {
  // A path with no directory component: the directory whose entry table
  // is synced after the rename is the working directory.
  runtime::CompiledGraph graph = runtime::load_graph(golden_path(kGoldenV6));
  char cwd[4096];
  ASSERT_NE(::getcwd(cwd, sizeof(cwd)), nullptr);
  ASSERT_EQ(::chdir(::testing::TempDir().c_str()), 0);
  const std::string name = "csq_artifact_bare_name.bin";
  const bool saved = runtime::save_graph(name, graph);
  ASSERT_EQ(::chdir(cwd), 0);
  ASSERT_TRUE(saved);
  const std::string path = ::testing::TempDir() + name;
  EXPECT_TRUE(testing::read_bytes(path) ==
              testing::read_bytes(golden_path(kGoldenV6)));
  std::remove(path.c_str());
}

TEST(GraphArtifact, SaveReplacesAnExistingFileAndLeavesNoTempSibling) {
  // save_graph publishes through a sibling temp file and a rename: the
  // destination's old bytes are replaced whole, twice over, and no temp
  // file is left beside it.
  const std::string path = temp_path("replace");
  testing::write_bytes(path, std::string(64, '\x5a'));
  runtime::CompiledGraph graph = runtime::load_graph(golden_path(kGoldenV6));
  ASSERT_TRUE(runtime::save_graph(path, graph));
  ASSERT_TRUE(runtime::save_graph(path, graph));
  EXPECT_TRUE(testing::read_bytes(path) ==
              testing::read_bytes(golden_path(kGoldenV6)));
  const std::string temp_prefix =
      std::filesystem::path(path).filename().string() + ".tmp.";
  for (const auto& entry :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    EXPECT_NE(entry.path().filename().string().rfind(temp_prefix, 0), 0u)
        << entry.path();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace csq
