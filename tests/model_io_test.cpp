// Tests for the quantized-model container (core/model_io): roundtrip
// fidelity, format validation against corrupt/truncated files, export
// preconditions.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "core/csq_weight.h"
#include "core/model_io.h"
#include "nn/models.h"
#include "runtime/compiled_graph.h"
#include "runtime/graph_artifact.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/rng.h"

namespace csq {
namespace {

// Unique temp path per test to avoid collisions under parallel ctest.
std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "csq_model_io_" + tag + ".bin";
}

std::vector<QuantizedLayerExport> make_layers() {
  QuantizedLayerExport a;
  a.name = "conv1";
  a.shape = {2, 3};
  a.codes = {0, 64, -128, 255, -255, 7};
  a.scale = 0.125f;
  a.bits = 4;
  QuantizedLayerExport b;
  b.name = "fc";
  b.shape = {1, 2, 1, 1};
  b.codes = {-1, 1};
  b.scale = 2.0f;
  b.bits = 1;
  return {a, b};
}

TEST(ModelIo, SaveLoadRoundtrip) {
  const std::string path = temp_path("roundtrip");
  const auto layers = make_layers();
  ASSERT_TRUE(save_quantized_model(path, layers));

  const auto loaded = load_quantized_model(path);
  ASSERT_EQ(loaded.size(), layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    EXPECT_EQ(loaded[l].name, layers[l].name);
    EXPECT_EQ(loaded[l].shape, layers[l].shape);
    EXPECT_EQ(loaded[l].codes, layers[l].codes);
    EXPECT_EQ(loaded[l].bits, layers[l].bits);
    EXPECT_FLOAT_EQ(loaded[l].scale, layers[l].scale);
  }
  std::remove(path.c_str());
}

TEST(ModelIo, StorageBitsAggregatesLayers) {
  const auto layers = make_layers();
  EXPECT_EQ(model_storage_bits(layers),
            layers[0].storage_bits() + layers[1].storage_bits());
}

TEST(ModelIo, RejectsOutOfGridCodesOnSave) {
  auto layers = make_layers();
  layers[0].codes[0] = 300;  // outside the 8-bit grid
  EXPECT_THROW(save_quantized_model(temp_path("badcode"), layers),
               check_error);
}

TEST(ModelIo, RejectsBadMagic) {
  const std::string path = temp_path("badmagic");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPEnope this is not a model file";
  }
  EXPECT_THROW(load_quantized_model(path), check_error);
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsTruncatedFile) {
  const std::string path = temp_path("truncated");
  ASSERT_TRUE(save_quantized_model(path, make_layers()));
  // Chop the last bytes off.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() - 5));
  }
  EXPECT_THROW(load_quantized_model(path), check_error);
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsMissingFile) {
  EXPECT_THROW(load_quantized_model(temp_path("does_not_exist")),
               check_error);
}

// ------------------------------------------------------- golden files ---
//
// Committed fixtures (tests/data/), one per format the writers emit: the
// plain v2 container here, the v6 graph artifact and the v2 checkpoint
// below. Every field is asserted against the values the files were written
// with; versions outside the window are rejected.

std::string golden_path(const std::string& name) {
  return std::string(CSQ_TEST_DATA_DIR) + "/" + name;
}

void expect_golden_conv1(const QuantizedLayerExport& layer) {
  EXPECT_EQ(layer.name, "conv1");
  EXPECT_EQ(layer.shape, (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(layer.codes, (std::vector<std::int32_t>{0, 64, -128, 255, -255, 7}));
  EXPECT_EQ(layer.bits, 3);
  EXPECT_EQ(layer.scale, 0.5f);
}

TEST(ModelIoGolden, V2FixtureLoadsIdentically) {
  const auto layers = load_quantized_model(golden_path("golden_v2.csqm"));
  ASSERT_EQ(layers.size(), 2u);
  expect_golden_conv1(layers[0]);
  EXPECT_EQ(layers[0].denominator, 255.0f);
  EXPECT_EQ(layers[1].name, "fc");
  EXPECT_EQ(layers[1].shape, (std::vector<std::int64_t>{1, 2, 1, 1}));
  EXPECT_EQ(layers[1].codes, (std::vector<std::int32_t>{-1, 1}));
  EXPECT_EQ(layers[1].bits, 1);
  EXPECT_EQ(layers[1].scale, 2.0f);
  EXPECT_EQ(layers[1].denominator, 85.0f);
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

TEST(ModelIoGolden, V6FixtureLayerSectionLoadsAsPlainModel) {
  // A serving artifact doubles as a quantized-model container: the layer
  // reader consumes the layer section and ignores the graph section.
  const auto layers = load_quantized_model(golden_path(kGoldenV6));
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

// Overwrites the u32 version field at byte 4 of a CSQM/CSQC image.
std::string with_version(std::string bytes, std::uint32_t version) {
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  return bytes;
}

TEST(ModelIoGolden, VersionsOutsideTheWindowAreRejected) {
  // Readers accept exactly what the writers emit: containers v2 and v3.
  const std::string v2 = testing::read_bytes(golden_path("golden_v2.csqm"));
  const std::string path = temp_path("window");
  for (const std::uint32_t version : {0u, 1u, 4u}) {
    testing::write_bytes(path, with_version(v2, version));
    EXPECT_THROW(load_quantized_model(path), check_error)
        << "container v" << version;
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

TEST(ModelIo, ExportModelRequiresFinalizedCsqSources) {
  Rng rng(50);
  ModelConfig config;
  config.base_width = 4;

  // Dense model: export must refuse.
  Model dense = make_resnet20(config, dense_weight_factory(), nullptr, rng);
  EXPECT_THROW(export_model(dense), check_error);

  // CSQ model: not finalized -> integer_codes refuses.
  std::vector<CsqWeightSource*> sources;
  Model csq_model =
      make_resnet20(config, csq_weight_factory(&sources), nullptr, rng);
  EXPECT_THROW(export_model(csq_model), check_error);

  // Finalized: full roundtrip through disk, bit-exact codes.
  for (CsqWeightSource* source : sources) source->finalize();
  const auto layers = export_model(csq_model);
  EXPECT_EQ(layers.size(), csq_model.quant_layers().size());

  const std::string path = temp_path("resnet");
  ASSERT_TRUE(save_quantized_model(path, layers));
  const auto loaded = load_quantized_model(path);
  ASSERT_EQ(loaded.size(), layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    EXPECT_EQ(loaded[l].codes, layers[l].codes);
    EXPECT_EQ(loaded[l].name, layers[l].name);
  }
  std::remove(path.c_str());
}

// ---- training checkpoints (CSQC container) --------------------------------

Model checkpoint_model(std::uint64_t seed) {
  Rng rng(seed);
  ModelConfig config;
  config.num_classes = 4;
  config.base_width = 4;
  return make_resnet_cifar(8, config, dense_weight_factory(), nullptr, rng);
}

// Deterministic, seed-independent parameter pattern so the committed golden
// fixture's expected values are reproducible from the test source alone.
void fill_pattern(Model& model) {
  std::int64_t i = 0;
  for (Parameter* param : model.parameters()) {
    float* data = param->value.data();
    for (std::int64_t j = 0; j < param->value.numel(); ++j, ++i) {
      data[j] = 0.03125f * static_cast<float>(i % 257) - 4.0f;
    }
    param->mark_updated();
  }
}

TEST(Checkpoint, RoundTripRestoresEveryParameterAndBumpsVersions) {
  Model model = checkpoint_model(41);
  fill_pattern(model);
  const std::string path = temp_path("ckpt_roundtrip");
  ASSERT_TRUE(save_checkpoint(path, model));

  Model fresh = checkpoint_model(42);  // different seed: different values
  std::vector<std::uint64_t> versions;
  for (Parameter* param : fresh.parameters()) versions.push_back(param->version);
  load_checkpoint(path, fresh);

  const ParameterArena& a = model.arena();
  const ParameterArena& b = fresh.arena();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.values(), b.values(),
                        static_cast<std::size_t>(a.size()) * sizeof(float)),
            0)
      << "restored values differ";
  const std::vector<Parameter*>& params = fresh.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_GT(params[i]->version, versions[i])
        << params[i]->name << ": load must bump the version";
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, ArenaSaveByteIdenticalToPerTensorSave) {
  Model model = checkpoint_model(43);
  fill_pattern(model);
  model.arena();  // bind BEFORE either save: both paths see arena views
  const std::string arena_path = temp_path("ckpt_arena");
  const std::string tensor_path = temp_path("ckpt_tensor");
  ASSERT_TRUE(save_checkpoint(arena_path, model));
  ASSERT_TRUE(save_checkpoint_per_tensor(tensor_path, model));

  const std::vector<char> arena_bytes = read_file_bytes(arena_path);
  const std::vector<char> tensor_bytes = read_file_bytes(tensor_path);
  ASSERT_FALSE(arena_bytes.empty());
  EXPECT_EQ(arena_bytes, tensor_bytes)
      << "single-write arena checkpoint differs from per-tensor bytes";
  std::remove(arena_path.c_str());
  std::remove(tensor_path.c_str());
}

TEST(Checkpoint, PerTensorSaveWithoutArenaMatchesArenaSave) {
  // The legacy per-tensor writer must produce the same bytes whether or not
  // the model has ever been arena-bound.
  Model unbound = checkpoint_model(44);
  fill_pattern(unbound);
  const std::string unbound_path = temp_path("ckpt_unbound");
  ASSERT_TRUE(save_checkpoint_per_tensor(unbound_path, unbound));

  Model bound = checkpoint_model(44);
  fill_pattern(bound);
  const std::string bound_path = temp_path("ckpt_bound");
  ASSERT_TRUE(save_checkpoint(bound_path, bound));

  EXPECT_EQ(read_file_bytes(unbound_path), read_file_bytes(bound_path));
  std::remove(unbound_path.c_str());
  std::remove(bound_path.c_str());
}

// Committed v2 fixture written by save_checkpoint with the deterministic
// fill_pattern values. Regenerate with CSQ_REGEN_GOLDEN=1 only on a
// deliberate format change.
const char kGoldenCheckpoint[] = "golden_checkpoint_v2.csqc";

TEST(Checkpoint, GoldenFixtureLoads) {
  const std::string path = golden_path(kGoldenCheckpoint);
  if (std::getenv("CSQ_REGEN_GOLDEN") != nullptr) {
    Model writer = checkpoint_model(47);
    fill_pattern(writer);
    ASSERT_TRUE(save_checkpoint(path, writer));
  }

  Model model = checkpoint_model(48);
  load_checkpoint(path, model);

  // The loaded values must be exactly the deterministic pattern.
  std::int64_t i = 0;
  for (Parameter* param : model.parameters()) {
    const float* data = param->value.data();
    for (std::int64_t j = 0; j < param->value.numel(); ++j, ++i) {
      ASSERT_EQ(data[j], 0.03125f * static_cast<float>(i % 257) - 4.0f)
          << param->name << " element " << j;
    }
  }
}

TEST(Checkpoint, GoldenFixtureResavesByteIdentically) {
  // A writer change that alters the committed bytes is a format break.
  Model model = checkpoint_model(48);
  fill_pattern(model);
  const std::string path = temp_path("ckpt_golden_resave");
  ASSERT_TRUE(save_checkpoint(path, model));
  EXPECT_TRUE(read_file_bytes(path) ==
              read_file_bytes(golden_path(kGoldenCheckpoint)))
      << "save_checkpoint no longer reproduces the committed v2 bytes";
  std::remove(path.c_str());
}

TEST(Checkpoint, VersionsOutsideTheWindowAreRejected) {
  // CSQC v2 is the only checkpoint format: the pre-arena v1 is rejected.
  const std::string golden =
      testing::read_bytes(golden_path(kGoldenCheckpoint));
  const std::string path = temp_path("ckpt_window");
  for (const std::uint32_t version : {1u, 3u}) {
    testing::write_bytes(path, with_version(golden, version));
    Model model = checkpoint_model(48);
    EXPECT_THROW(load_checkpoint(path, model), check_error)
        << "checkpoint v" << version;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMismatchedModelAndCorruptFiles) {
  Model model = checkpoint_model(49);
  const std::string path = temp_path("ckpt_mismatch");
  ASSERT_TRUE(save_checkpoint(path, model));

  // Different architecture: parameter list differs.
  Rng rng(50);
  ModelConfig wide;
  wide.num_classes = 4;
  wide.base_width = 8;
  Model other = make_resnet_cifar(8, wide, dense_weight_factory(), nullptr, rng);
  EXPECT_THROW(load_checkpoint(path, other), check_error);

  // Truncated payload.
  const std::vector<char> bytes = read_file_bytes(path);
  const std::string truncated_path = temp_path("ckpt_truncated");
  {
    std::ofstream out(truncated_path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 64));
  }
  Model fresh = checkpoint_model(49);
  EXPECT_THROW(load_checkpoint(truncated_path, fresh), check_error);

  // Bad magic.
  const std::string magic_path = temp_path("ckpt_badmagic");
  {
    std::ofstream out(magic_path, std::ios::binary);
    out.write("NOPE", 4);
    out.write(bytes.data() + 4,
              static_cast<std::streamsize>(bytes.size() - 4));
  }
  Model fresh2 = checkpoint_model(49);
  EXPECT_THROW(load_checkpoint(magic_path, fresh2), check_error);

  std::remove(path.c_str());
  std::remove(truncated_path.c_str());
  std::remove(magic_path.c_str());
}

}  // namespace
}  // namespace csq
