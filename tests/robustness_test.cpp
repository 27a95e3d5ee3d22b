// Failure-semantics tests (`ctest -L robustness`, also swept by the
// sanitize/tsan presets):
//
//  * Failpoint.*         — the deterministic fault-injection framework
//    itself: trigger policies, counters, re-arm/disarm, the stream variant;
//  * ArtifactRobustness.* — crash-safe graph artifacts: atomic temp+rename
//    save (an injected mid-write failure leaves the previous artifact
//    intact and no temp litter), the CRC-32 trailer rejecting bit flips
//    and truncation, the artifact.read failpoint;
//  * CorruptionFuzz.*    — CRC-valid hostile artifacts: the committed
//    golden_v6.csqm cut at every byte, padded with trailing bytes, given
//    a bad field (a retired or ineligible kernel kind, an absurd extent, a
//    nonzero reserved byte, an unknown instruction kind, a wrong record
//    count, a bad layer dim, bit width, denominator or code, an
//    instruction keyed to a missing or misfitting layer) or bit-flipped,
//    each resealed with a fresh CRC so it reaches the field validators.
//    load_graph must reject it or load it cleanly, never crash — run this
//    suite under the sanitize preset for the memory-safety half of the
//    claim;
//  * ServeRobustness.*   — the serving failure paths: replica quarantine +
//    backoff restore with bit-identical recovery, shard failure only when
//    every replica is dead, request deadlines, stale handles, warmup
//    failures, stop() behind a parked worker, a thread-pool
//    submission fault on pooled replicas, dead replicas refilled on
//    restart (a failed shard gets every replica rebuilt), and a seeded
//    lifecycle schedule (mixed requests, injected forward faults,
//    stop/start cycles) checked against its invariants.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/csq_weight.h"
#include "nn/models.h"
#include "nn/weight_source.h"
#include "runtime/compiled_graph.h"
#include "runtime/graph_artifact.h"
#include "serve/batching_server.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace csq {
namespace {

using testing::golden_v6_payload;
using testing::parked_worker_options;
using testing::random_tensor;
using testing::read_bytes;
using testing::reseal;
using testing::write_bytes;

constexpr std::int64_t kSide = 12;
constexpr std::int64_t kChannels = 3;

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "csq_robust_" + tag + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".csqm";
}

// A small finalized 3-bit CSQ ResNet-20, lowered and calibrated (same
// substrate as serve_test.cpp).
runtime::CompiledGraph make_calibrated_graph() {
  Rng rng(8001);
  std::vector<CsqWeightSource*> registry;
  ModelConfig model_config;
  model_config.base_width = 4;
  CsqWeightOptions weight_options;
  weight_options.fixed_precision = 3;
  Model model = make_resnet20(
      model_config, csq_weight_factory(&registry, weight_options), nullptr,
      rng);
  for (CsqWeightSource* source : registry) source->finalize();

  runtime::LowerOptions options;
  options.in_channels = kChannels;
  options.in_height = kSide;
  options.in_width = kSide;
  runtime::CompiledGraph graph = runtime::lower(model, options);
  Rng calib_rng(8002);
  Tensor calib = random_tensor({8, kChannels, kSide, kSide}, calib_rng);
  graph.calibrate(calib);
  return graph;
}

#if CSQ_FAILPOINTS_ENABLED

// ----------------------------------------------------- failpoint framework --

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::disarm_all(); }

  // One evaluation of a test-local site; returns whether it fired.
  static bool evaluate(const char* point) {
    try {
      CSQ_FAILPOINT(point);
    } catch (const fail::injected_fault& fault) {
      EXPECT_EQ(fault.point(), point);
      return true;
    }
    return false;
  }
};

TEST_F(FailpointTest, UnarmedSitesNeverFireAndCountNothing) {
  EXPECT_FALSE(evaluate("test.unarmed"));
  EXPECT_EQ(fail::evaluations("test.unarmed"), 0u);
  EXPECT_EQ(fail::triggers("test.unarmed"), 0u);
}

TEST_F(FailpointTest, OncePolicyFiresExactlyOnce) {
  fail::arm("test.once", fail::Policy::kOnce);
  EXPECT_TRUE(evaluate("test.once"));
  EXPECT_FALSE(evaluate("test.once"));
  EXPECT_FALSE(evaluate("test.once"));
  EXPECT_EQ(fail::evaluations("test.once"), 3u);
  EXPECT_EQ(fail::triggers("test.once"), 1u);
}

TEST_F(FailpointTest, EveryNPolicyFiresOnMultiples) {
  fail::arm("test.every", fail::Policy::kEveryN, 3);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(evaluate("test.every"));
  const std::vector<bool> expected = {false, false, true, false, false,
                                      true, false, false, true};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(fail::triggers("test.every"), 3u);
}

TEST_F(FailpointTest, AfterNPolicyFiresPastTheThreshold) {
  fail::arm("test.after", fail::Policy::kAfterN, 2);
  EXPECT_FALSE(evaluate("test.after"));
  EXPECT_FALSE(evaluate("test.after"));
  EXPECT_TRUE(evaluate("test.after"));
  EXPECT_TRUE(evaluate("test.after"));
  EXPECT_EQ(fail::triggers("test.after"), 2u);
}

TEST_F(FailpointTest, RearmResetsCountersAndDisarmSilences) {
  fail::arm("test.rearm", fail::Policy::kOnce);
  EXPECT_TRUE(evaluate("test.rearm"));
  // Re-arming replaces the state: the kOnce budget is fresh.
  fail::arm("test.rearm", fail::Policy::kOnce);
  EXPECT_EQ(fail::evaluations("test.rearm"), 0u);
  EXPECT_TRUE(evaluate("test.rearm"));
  fail::disarm("test.rearm");
  EXPECT_FALSE(evaluate("test.rearm"));
  EXPECT_EQ(fail::evaluations("test.rearm"), 0u);  // unarmed again
}

TEST_F(FailpointTest, StreamVariantPoisonsTheStreamInsteadOfThrowing) {
  std::ostringstream out;
  CSQ_FAILPOINT_STREAM("test.stream", out);
  EXPECT_TRUE(out.good());  // unarmed: untouched
  fail::arm("test.stream", fail::Policy::kOnce);
  CSQ_FAILPOINT_STREAM("test.stream", out);
  EXPECT_TRUE(out.fail());  // armed: the disk-full observable
}

#endif  // CSQ_FAILPOINTS_ENABLED

// ------------------------------------------------------ crash-safe artifacts

class ArtifactRobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override {
#if CSQ_FAILPOINTS_ENABLED
    fail::disarm_all();
#endif
  }
};

#if CSQ_FAILPOINTS_ENABLED

TEST_F(ArtifactRobustnessTest, FailedSaveLeavesPreviousArtifactIntact) {
  // A mid-write failure (injected failbit: disk full) must leave the
  // previously saved artifact byte-identical and no temp litter behind —
  // the whole point of the temp-file + atomic-rename protocol.
  char dir_template[512];
  const std::string tmpl = ::testing::TempDir() + "csq_atomic_XXXXXX";
  ASSERT_LT(tmpl.size(), sizeof(dir_template));
  std::memcpy(dir_template, tmpl.c_str(), tmpl.size() + 1);
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir(dir_template);
  const std::string path = dir + "/model.csqm";

  runtime::CompiledGraph graph = make_calibrated_graph();
  ASSERT_TRUE(runtime::save_graph(path, graph));
  const std::string before = read_bytes(path);

  fail::arm("artifact.write", fail::Policy::kOnce);
  EXPECT_FALSE(runtime::save_graph(path, graph));
  EXPECT_EQ(read_bytes(path), before) << "destination was touched";

  // The directory holds exactly the artifact: the failed temp was removed.
  std::vector<std::string> entries;
  DIR* handle = ::opendir(dir.c_str());
  ASSERT_NE(handle, nullptr);
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") entries.push_back(name);
  }
  ::closedir(handle);
  EXPECT_EQ(entries, std::vector<std::string>{"model.csqm"});

  // And the surviving artifact still loads and serves.
  runtime::CompiledGraph loaded = runtime::load_graph(path, /*pooled=*/false);
  EXPECT_EQ(loaded.io_shape().out_features, 10);

  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

TEST_F(ArtifactRobustnessTest, ReadFailpointSurfacesAsInjectedFault) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::string path = temp_path("read_fault");
  ASSERT_TRUE(runtime::save_graph(path, graph));
  fail::arm("artifact.read", fail::Policy::kOnce);
  EXPECT_THROW(runtime::load_graph(path), fail::injected_fault);
  // Self-disarmed after the single trigger: the retry succeeds.
  runtime::CompiledGraph loaded = runtime::load_graph(path, /*pooled=*/false);
  EXPECT_EQ(loaded.io_shape().out_features, 10);
  std::remove(path.c_str());
}

TEST_F(ArtifactRobustnessTest, FsyncFailureLeavesPreviousArtifactIntact) {
  // The durability fsync of the TEMP file fails (pre-rename window): the
  // destination must be untouched and the failed temp removed — same
  // contract as a mid-write failure, one step later in the protocol.
  char dir_template[512];
  const std::string tmpl = ::testing::TempDir() + "csq_fsync_XXXXXX";
  ASSERT_LT(tmpl.size(), sizeof(dir_template));
  std::memcpy(dir_template, tmpl.c_str(), tmpl.size() + 1);
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir(dir_template);
  const std::string path = dir + "/model.csqm";

  runtime::CompiledGraph graph = make_calibrated_graph();
  ASSERT_TRUE(runtime::save_graph(path, graph));
  const std::string before = read_bytes(path);

  fail::arm("artifact.fsync", fail::Policy::kOnce);
  EXPECT_FALSE(runtime::save_graph(path, graph));
  EXPECT_EQ(read_bytes(path), before) << "destination was touched";

  std::vector<std::string> entries;
  DIR* handle = ::opendir(dir.c_str());
  ASSERT_NE(handle, nullptr);
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") entries.push_back(name);
  }
  ::closedir(handle);
  EXPECT_EQ(entries, std::vector<std::string>{"model.csqm"});

  runtime::CompiledGraph loaded = runtime::load_graph(path, /*pooled=*/false);
  EXPECT_EQ(loaded.io_shape().out_features, 10);
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

TEST_F(ArtifactRobustnessTest, DirsyncFailureIsPostRenameAndNonDestructive) {
  // The parent-directory fsync fails AFTER the atomic rename (post-rename
  // window): save_graph must report failure — the caller cannot count on
  // the rename surviving a crash — but the renamed file IS the complete
  // new artifact, so a reader that finds it must be able to trust it.
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::string path = temp_path("dirsync_fault");
  fail::arm("artifact.dirsync", fail::Policy::kOnce);
  EXPECT_FALSE(runtime::save_graph(path, graph));

  runtime::CompiledGraph loaded = runtime::load_graph(path, /*pooled=*/false);
  EXPECT_EQ(loaded.io_shape().out_features, 10);
  std::remove(path.c_str());
}

#endif  // CSQ_FAILPOINTS_ENABLED

TEST_F(ArtifactRobustnessTest, SaveToUnopenablePathReturnsFalse) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  EXPECT_FALSE(runtime::save_graph(
      "/nonexistent_csq_dir/deeper/model.csqm", graph));
}

TEST_F(ArtifactRobustnessTest, CrcTrailerRejectsEverySampledBitFlip) {
  // The v4 graph section ends in a CRC-32 over every preceding byte: ANY
  // single-bit flip anywhere in the artifact (payload or trailer) must be
  // rejected before a single parsed field is trusted.
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::string path = temp_path("crc_flip");
  ASSERT_TRUE(runtime::save_graph(path, graph));
  std::string bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), 8u);

  const std::string flipped_path = temp_path("crc_flip_mut");
  const std::size_t total_bits = bytes.size() * 8;
  // ~256 deterministic positions spread over the file, plus both ends
  // (header magic and the trailer itself).
  const std::size_t stride = std::max<std::size_t>(1, total_bits / 256);
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < total_bits; bit += stride) {
    std::string mutant = bytes;
    mutant[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(mutant[bit / 8]) ^ (1u << (bit % 8)));
    write_bytes(flipped_path, mutant);
    EXPECT_THROW(runtime::load_graph(flipped_path), check_error)
        << "bit " << bit << " flipped without detection";
    ++rejected;
  }
  EXPECT_GE(rejected, 200u);
  std::remove(path.c_str());
  std::remove(flipped_path.c_str());
}

TEST_F(ArtifactRobustnessTest, TruncatedV4ArtifactIsRejected) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::string path = temp_path("v4_trunc");
  ASSERT_TRUE(runtime::save_graph(path, graph));
  const std::string bytes = read_bytes(path);
  const std::string mutant_path = temp_path("v4_trunc_mut");
  // A torn tail — including a clean cut right through the CRC trailer —
  // must never load.
  for (const std::size_t cut :
       {bytes.size() - 1, bytes.size() - 2, bytes.size() - 4,
        bytes.size() - 5, bytes.size() / 2, std::size_t{16}, std::size_t{0}}) {
    write_bytes(mutant_path, bytes.substr(0, cut));
    EXPECT_THROW(runtime::load_graph(mutant_path), check_error)
        << "cut at " << cut;
  }
  std::remove(path.c_str());
  std::remove(mutant_path.c_str());
}

// ------------------------------------------------------- corruption fuzzing

// load_graph must reject the artifact at `path` with a clean check_error
// whose message contains `reason` (any message when empty).
void expect_load_graph_rejects(const std::string& path,
                               const std::string& what,
                               const std::string& reason = "") {
  try {
    runtime::load_graph(path, /*pooled=*/false);
    ADD_FAILURE() << "load_graph accepted " << what;
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(CorruptionFuzz, GoldenV6ResealedPrefixesAreRejected) {
  // Every proper prefix of the payload, resealed with a fresh CRC, is a
  // CRC-valid file the writer never emits: load_graph must reject it.
  const std::string payload = golden_v6_payload();
  const std::string path = temp_path("golden_prefix");
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    write_bytes(path, reseal(payload.substr(0, cut)));
    expect_load_graph_rejects(path, "cut at " + std::to_string(cut));
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GoldenV6ResealedTrailingBytesAreRejected) {
  // The payload must end exactly where the edge records do.
  const std::string payload = golden_v6_payload();
  const std::string path = temp_path("golden_trailing");
  for (const std::size_t extra : {1u, 8u, 64u}) {
    write_bytes(path, reseal(payload + std::string(extra, '\0')));
    expect_load_graph_rejects(path, std::to_string(extra) + " trailing bytes");
  }
  std::remove(path.c_str());
}

// Overwrites the T at `offset` of `payload`, which must hold `expected`.
template <typename T>
void patch(std::string& payload, std::size_t offset, T expected, T value) {
  ASSERT_LE(offset + sizeof(T), payload.size());
  T old{};
  std::memcpy(&old, payload.data() + offset, sizeof(T));
  ASSERT_EQ(old, expected) << "fixture field at " << offset;
  std::memcpy(payload.data() + offset, &value, sizeof(T));
}

// Offset of the unique occurrence of `prefix` in `payload`, or npos.
std::size_t find_unique(const std::string& payload, const std::string& prefix) {
  const std::size_t at = payload.find(prefix);
  return at == payload.rfind(prefix) ? at : std::string::npos;
}

// Offset of the i32 kernel-kind field of the 3x3 conv instruction of
// `layer`, or npos. The instruction is u8 kind (conv = 0), i32 layer, i64
// kernel (3), then i64 kernel_w, stride and pad, i32 act_bits and f32 clip
// before the kernel kind.
std::size_t conv3x3_kernel_kind(const std::string& payload,
                                std::int32_t layer) {
  char head[13] = {0};
  const std::int64_t kernel = 3;
  std::memcpy(head + 1, &layer, 4);
  std::memcpy(head + 5, &kernel, 8);
  const std::size_t instr =
      find_unique(payload, std::string(head, sizeof(head)));
  return instr == std::string::npos ? instr
                                    : instr + sizeof(head) + 3 * 8 + 4 + 4;
}

TEST(CorruptionFuzz, GoldenV6ResealedFieldMutantsAreRejected) {
  // Single-field edits that pass the CRC once resealed.
  const std::string golden = golden_v6_payload();
  const std::string path = temp_path("golden_field");

  // conv2 (layer 1, codes up to +/-255, split s8u8) recorded as bitserial
  // (kind 1). Recorded kernels are honoured but never trusted: the packer
  // re-checks eligibility against the codes it packs.
  const std::size_t conv2 = conv3x3_kernel_kind(golden, 1);
  ASSERT_NE(conv2, std::string::npos) << "conv2 instruction not found";
  std::string mutant = golden;
  patch<std::int32_t>(mutant, conv2, 0, 1);
  write_bytes(path, reseal(mutant));
  expect_load_graph_rejects(path, "a split conv recorded as bitserial",
                            "bit-serial kernel needs unsplit codes");

  // conv5 (layer 4, 8x8x3x3, s8u8) recorded as kind 2, the retired nibble
  // kernel: the parse's kind set {0, 1, 3} rejects it.
  const std::size_t conv5 = conv3x3_kernel_kind(golden, 4);
  ASSERT_NE(conv5, std::string::npos) << "conv5 instruction not found";
  mutant = golden;
  patch<std::int32_t>(mutant, conv5, 0, 2);
  write_bytes(path, reseal(mutant));
  expect_load_graph_rejects(path, "a conv recorded as kernel kind 2",
                            "bad kernel kind 2");

  // An absurd input height (the graph section's third field): edge extents
  // derived from it would overflow int64.
  const std::size_t section = golden.find("CSQG");
  ASSERT_NE(section, std::string::npos);
  mutant = golden;
  patch<std::int64_t>(mutant, section + 16, 8, std::int64_t{1} << 60);
  write_bytes(path, reseal(mutant));
  expect_load_graph_rejects(path, "a 2^60 input height");

  // The GAP instruction (kind 5, no layer, stride 1, no kernel kind): its
  // u8 kind, i32 layer, four i64 geometry fields, i32 act_bits, f32 clip
  // and i32 kernel kind, then the reserved byte the writer leaves 0.
  char gap[49] = {0};
  gap[0] = 5;
  const std::int32_t no_layer = -1;
  const std::int64_t unit_stride = 1;
  std::memcpy(gap + 1, &no_layer, 4);
  std::memcpy(gap + 21, &unit_stride, 8);
  std::memcpy(gap + 45, &no_layer, 4);
  const std::size_t gap_instr =
      find_unique(golden, std::string(gap, sizeof(gap)));
  ASSERT_NE(gap_instr, std::string::npos) << "GAP instruction not found";
  mutant = golden;
  patch<std::uint8_t>(mutant, gap_instr + sizeof(gap), 0, 1);
  write_bytes(path, reseal(mutant));
  expect_load_graph_rejects(path, "a nonzero reserved instruction byte");

  // The same instruction relabelled kind 11, the deleted average pool.
  mutant = golden;
  patch<std::uint8_t>(mutant, gap_instr, 5, 11);
  write_bytes(path, reseal(mutant));
  expect_load_graph_rejects(path, "instruction kind 11",
                            "unknown instruction kind 11");
  std::remove(path.c_str());
}

// The T stored at `offset` of `payload` (0 past its end).
template <typename T>
T peek(const std::string& payload, std::size_t offset) {
  T value{};
  if (offset + sizeof(T) <= payload.size()) {
    std::memcpy(&value, payload.data() + offset, sizeof(T));
  }
  return value;
}

// Where the records of a v6 payload start, found by walking its layout
// field by field: the container header ("CSQM", u32 version, u32 layer
// count), each layer record (u32 name length, name, u32 rank, i64 dims, i32
// bits, f32 scale, f32 denominator, i16 codes), the graph section header
// ("CSQG", u32 version, three i64 input extents, i32 act_bits, u32
// instruction count), each instruction (kInstrVectors fixed bytes, then
// three u32-counted float vectors) and the 13-byte edge records.
struct GoldenLayout {
  std::size_t layer_count = 0;  // offset of the u32 layer count
  std::vector<std::size_t> layers;
  std::size_t instr_count = 0;  // offset of the u32 instruction count
  std::vector<std::size_t> instrs;
  std::size_t edge_count = 0;  // offset of the u32 edge count
  std::size_t end = 0;         // one past the last edge record
};

// Instruction field offsets: u8 kind, i32 layer, i64 kernel, kernel_w,
// stride and pad, i32 act_bits, f32 clip, i32 kernel kind, u8 reserved.
constexpr std::size_t kInstrLayer = 1;
constexpr std::size_t kInstrKernelKind = 45;
constexpr std::size_t kInstrVectors = 50;

// Offset of the first i64 dim of the layer record at `record`.
std::size_t layer_dims(const std::string& payload, std::size_t record) {
  return record + 4 + peek<std::uint32_t>(payload, record) + 4;
}

std::uint32_t layer_rank(const std::string& payload, std::size_t record) {
  return peek<std::uint32_t>(payload, layer_dims(payload, record) - 4);
}

// Offset of the i32 bits field of the layer record at `record`; the f32
// scale, f32 denominator and the i16 codes follow it.
std::size_t layer_bits(const std::string& payload, std::size_t record) {
  return layer_dims(payload, record) + 8 * layer_rank(payload, record);
}

GoldenLayout golden_layout(const std::string& payload) {
  GoldenLayout layout;
  layout.layer_count = 8;
  std::size_t at = layout.layer_count + 4;
  const auto layers = peek<std::uint32_t>(payload, layout.layer_count);
  for (std::uint32_t l = 0; l < layers && at < payload.size(); ++l) {
    layout.layers.push_back(at);
    std::int64_t codes = 1;
    for (std::uint32_t d = 0; d < layer_rank(payload, at); ++d) {
      codes *= peek<std::int64_t>(payload, layer_dims(payload, at) + 8 * d);
    }
    at = layer_bits(payload, at) + 12 + 2 * static_cast<std::size_t>(codes);
  }
  layout.instr_count = at + 4 + 4 + 3 * 8 + 4;
  at = layout.instr_count + 4;
  const auto instrs = peek<std::uint32_t>(payload, layout.instr_count);
  for (std::uint32_t i = 0; i < instrs && at < payload.size(); ++i) {
    layout.instrs.push_back(at);
    at += kInstrVectors;
    for (int v = 0; v < 3; ++v) at += 4 + 4 * peek<std::uint32_t>(payload, at);
  }
  layout.edge_count = at;
  layout.end = at + 4 + 13 * std::size_t{peek<std::uint32_t>(payload, at)};
  return layout;
}

bool is_gemm_instr(const std::string& payload, std::size_t instr) {
  const auto kind = static_cast<runtime::ProgramInstr::Kind>(
      peek<std::uint8_t>(payload, instr));
  return kind == runtime::ProgramInstr::Kind::kConv ||
         kind == runtime::ProgramInstr::Kind::kLinear;
}

TEST(CorruptionFuzz, GoldenV6ResealedCountMutantsAreRejected) {
  // Every count field sets how many records follow it: a wrong count, in
  // range or absurd, misreads the rest of the payload.
  const std::string golden = golden_v6_payload();
  const GoldenLayout layout = golden_layout(golden);
  ASSERT_EQ(layout.end, golden.size());
  const std::string path = temp_path("golden_counts");
  const struct {
    const char* name;
    std::size_t offset;
  } counts[] = {{"layer count", layout.layer_count},
                {"instruction count", layout.instr_count},
                {"edge count", layout.edge_count}};
  for (const auto& count : counts) {
    const auto value = peek<std::uint32_t>(golden, count.offset);
    for (const std::uint32_t wrong :
         {0u, value - 1, value + 1, std::uint32_t{0xFFFFFFFFu}}) {
      std::string mutant = golden;
      patch<std::uint32_t>(mutant, count.offset, value, wrong);
      write_bytes(path, reseal(mutant));
      expect_load_graph_rejects(
          path, std::string(count.name) + " " + std::to_string(wrong));
    }
  }
  // The u32 length of each instruction's first float vector, one on or
  // absurd.
  for (const std::size_t instr : layout.instrs) {
    const std::size_t at = instr + kInstrVectors;
    const auto length = peek<std::uint32_t>(golden, at);
    for (const std::uint32_t wrong : {length + 1, std::uint32_t{0xFFFFFFFFu}}) {
      std::string mutant = golden;
      patch<std::uint32_t>(mutant, at, length, wrong);
      write_bytes(path, reseal(mutant));
      expect_load_graph_rejects(path, "instruction at " + std::to_string(instr) +
                                          " vector length " +
                                          std::to_string(wrong));
    }
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GoldenV6ResealedLayerExtentMutantsAreRejected) {
  // The layer dims size the code array the GEMM panels are packed from:
  // negative or absurd dims, and dims one off the saved shape, never load.
  const std::string golden = golden_v6_payload();
  const GoldenLayout layout = golden_layout(golden);
  ASSERT_EQ(layout.end, golden.size());
  ASSERT_EQ(layout.layers.size(), 6u);
  const std::string path = temp_path("golden_layer_extents");
  for (std::size_t l = 0; l < layout.layers.size(); ++l) {
    const std::size_t record = layout.layers[l];
    for (std::uint32_t d = 0; d < layer_rank(golden, record); ++d) {
      const std::size_t at = layer_dims(golden, record) + 8 * d;
      const auto dim = peek<std::int64_t>(golden, at);
      const std::string where =
          "layer " + std::to_string(l) + " dim " + std::to_string(d);
      std::string mutant = golden;
      patch<std::int64_t>(mutant, at, dim, -1);
      write_bytes(path, reseal(mutant));
      expect_load_graph_rejects(path, where + " -1", "negative dim");

      mutant = golden;
      patch<std::int64_t>(mutant, at, dim, std::int64_t{1} << 40);
      write_bytes(path, reseal(mutant));
      expect_load_graph_rejects(path, where + " 2^40", "absurd element count");

      for (const std::int64_t off : {dim - 1, dim + 1}) {
        mutant = golden;
        patch<std::int64_t>(mutant, at, dim, off);
        write_bytes(path, reseal(mutant));
        expect_load_graph_rejects(path, where + " " + std::to_string(off));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GoldenV6ResealedLayerFieldMutantsAreRejected) {
  // The fields of every layer record the loader reads before packing: name
  // length, rank, bit width, grid denominator and the codes themselves.
  const std::string golden = golden_v6_payload();
  const GoldenLayout layout = golden_layout(golden);
  ASSERT_EQ(layout.end, golden.size());
  ASSERT_EQ(layout.layers.size(), 6u);
  const std::string path = temp_path("golden_layer_fields");
  for (std::size_t l = 0; l < layout.layers.size(); ++l) {
    const std::size_t record = layout.layers[l];
    const std::string where = "layer " + std::to_string(l);
    const auto expect_rejects = [&](const std::string& mutant,
                                    const std::string& what,
                                    const std::string& reason) {
      write_bytes(path, reseal(mutant));
      expect_load_graph_rejects(path, where + " " + what, reason);
    };

    std::string mutant = golden;
    patch<std::uint32_t>(mutant, record, peek<std::uint32_t>(golden, record),
                         4097);
    expect_rejects(mutant, "name length 4097", "absurd name length");

    const std::size_t rank_at = layer_dims(golden, record) - 4;
    mutant = golden;
    patch<std::uint32_t>(mutant, rank_at, layer_rank(golden, record), 9);
    expect_rejects(mutant, "rank 9", "absurd rank");

    const std::size_t bits_at = layer_bits(golden, record);
    const auto bits = peek<std::int32_t>(golden, bits_at);
    for (const std::int32_t wrong : {-1, 9}) {
      mutant = golden;
      patch<std::int32_t>(mutant, bits_at, bits, wrong);
      expect_rejects(mutant, "bits " + std::to_string(wrong),
                     "bits out of range");
    }

    const std::size_t denominator_at = bits_at + 8;
    const auto denominator = peek<float>(golden, denominator_at);
    for (const float wrong : {0.5f, 256.0f}) {
      mutant = golden;
      patch<float>(mutant, denominator_at, denominator, wrong);
      expect_rejects(mutant, "denominator " + std::to_string(wrong),
                     "bad grid denominator");
    }

    const std::size_t first_code = bits_at + 12;
    for (const std::int16_t wrong : {std::int16_t{256}, std::int16_t{-256}}) {
      mutant = golden;
      patch<std::int16_t>(mutant, first_code,
                          peek<std::int16_t>(golden, first_code), wrong);
      expect_rejects(mutant, "first code " + std::to_string(wrong),
                     "code outside the 8-bit grid");
    }
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GoldenV6ResealedInstructionsMustNameAMatchingLayer) {
  // Each conv/linear instruction packs the codes of the layer it names: an
  // index outside the layer section, or a layer whose shape the
  // instruction's geometry does not fit, is rejected at lowering.
  const std::string golden = golden_v6_payload();
  const GoldenLayout layout = golden_layout(golden);
  ASSERT_EQ(layout.end, golden.size());
  ASSERT_EQ(layout.layers.size(), 6u);
  const std::string path = temp_path("golden_instr_layer");
  const auto shape_of = [&](std::size_t l) {
    const std::size_t record = layout.layers[l];
    return golden.substr(layer_dims(golden, record) - 4,
                         4 + 8 * layer_rank(golden, record));
  };
  const auto layer_count = static_cast<std::int32_t>(layout.layers.size());
  std::size_t gemm_instrs = 0;
  for (const std::size_t instr : layout.instrs) {
    if (!is_gemm_instr(golden, instr)) continue;
    ++gemm_instrs;
    const auto layer = peek<std::int32_t>(golden, instr + kInstrLayer);
    ASSERT_TRUE(layer >= 0 && layer < layer_count);
    const std::string where = "layer " + std::to_string(layer);
    for (const std::int32_t wrong : {-1, layer_count}) {
      std::string mutant = golden;
      patch<std::int32_t>(mutant, instr + kInstrLayer, layer, wrong);
      write_bytes(path, reseal(mutant));
      expect_load_graph_rejects(path, where + " keyed to " +
                                          std::to_string(wrong),
                                "instruction references layer");
    }
    for (std::int32_t other = 0; other < layer_count; ++other) {
      if (shape_of(static_cast<std::size_t>(other)) ==
          shape_of(static_cast<std::size_t>(layer))) {
        continue;
      }
      std::string mutant = golden;
      patch<std::int32_t>(mutant, instr + kInstrLayer, layer, other);
      write_bytes(path, reseal(mutant));
      expect_load_graph_rejects(
          path, where + " keyed to layer " + std::to_string(other),
          "lowering ");
    }
  }
  EXPECT_EQ(gemm_instrs, 6u);
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GoldenV6ResealedRecordedKernelsNeverChangeTheLogits) {
  // A recorded kernel kind picks a GEMM path, not the values it computes:
  // every conv/linear relabelled with every other kind the parse accepts
  // (0 s8u8, 1 bitserial, 3 bitserial-w16) either fails the packer's
  // eligibility check against the codes or serves the golden logits bit
  // for bit.
  const std::string golden = golden_v6_payload();
  const GoldenLayout layout = golden_layout(golden);
  ASSERT_EQ(layout.end, golden.size());
  Rng rng(9999);
  const Tensor probe = random_tensor({2, 3, 8, 8}, rng);
  runtime::CompiledGraph reference =
      runtime::load_graph(testing::golden_v6_path(), /*pooled=*/false);
  const Tensor expected = reference.forward(probe);
  const std::string path = temp_path("golden_kernels");
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (const std::size_t instr : layout.instrs) {
    if (!is_gemm_instr(golden, instr)) continue;
    const auto kind = peek<std::int32_t>(golden, instr + kInstrKernelKind);
    for (const std::int32_t wrong : {0, 1, 3}) {
      if (wrong == kind) continue;
      const std::string what = "instruction at " + std::to_string(instr) +
                               " recorded as kernel " + std::to_string(wrong);
      std::string mutant = golden;
      patch<std::int32_t>(mutant, instr + kInstrKernelKind, kind, wrong);
      write_bytes(path, reseal(mutant));
      try {
        runtime::CompiledGraph graph = runtime::load_graph(path, false);
        const Tensor logits = graph.forward(probe);
        ASSERT_EQ(logits.numel(), expected.numel()) << what;
        for (std::int64_t i = 0; i < logits.numel(); ++i) {
          EXPECT_EQ(logits[i], expected[i]) << what << ", logit " << i;
        }
        ++loaded;
      } catch (const check_error& e) {
        EXPECT_NE(std::string(e.what()).find("packed weights: "),
                  std::string::npos)
            << what << ": " << e.what();
        ++rejected;
      }
    }
  }
  // The fixture holds layers each way: codes a relabelled kernel can pack
  // and codes it cannot.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GoldenV6ResealedBitFlipsNeverCrash) {
  // Resealed flips pass the CRC, so they exercise every field validator
  // behind it. A flip may legitimately load (inside a weight code or a
  // scale); the guarantee is that EVERY outcome through load_graph is
  // either a load or a clean check_error — never a crash, an out-of-bounds
  // parse (the sanitize preset enforces that) or another exception type.
  // The 21-bit stride samples about 2,070 flips of the 5,437-byte payload.
  const std::string payload = golden_v6_payload();
  const std::string path = temp_path("golden_flip");
  const std::size_t total_bits = payload.size() * 8;
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < total_bits; bit += 21) {
    std::string mutant = payload;
    mutant[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(mutant[bit / 8]) ^ (1u << (bit % 8)));
    write_bytes(path, reseal(mutant));
    try {
      runtime::load_graph(path, /*pooled=*/false);
      ++loaded;
    } catch (const check_error&) {
      ++rejected;
    }
  }
  EXPECT_GE(loaded + rejected, 2000u);
  // Both outcomes must actually occur: flips in magic/counts reject, flips
  // deep inside code or scale payloads load.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
  std::remove(path.c_str());
}

#if CSQ_FAILPOINTS_ENABLED

// ------------------------------------------------------- serving robustness

class ServeRobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::disarm_all(); }

  // Polls a shard-stats predicate for up to ~10 s — far beyond any healthy
  // restore, but roomy enough that a fully loaded CI box (parallel ctest
  // plus a concurrent build) cannot starve a rebuild+warmup past it.
  template <typename Predicate>
  static bool poll(Predicate&& predicate) {
    for (int i = 0; i < 2000; ++i) {
      if (predicate()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
  }

  // Serial single-sample forwards of `graph`, one per sample: the bits
  // every request the server completes with kOk must reproduce.
  static std::vector<Tensor> serial_logits(runtime::CompiledGraph& graph,
                                           const Tensor& samples) {
    const std::int64_t sample_numel = kChannels * kSide * kSide;
    std::vector<Tensor> logits;
    for (std::int64_t s = 0; s < samples.shape()[0]; ++s) {
      Tensor one({1, kChannels, kSide, kSide});
      std::memcpy(one.data(), samples.data() + s * sample_numel,
                  static_cast<std::size_t>(sample_numel) * sizeof(float));
      logits.push_back(graph.forward(one));
    }
    return logits;
  }
};

TEST_F(ServeRobustnessTest, QuarantinedReplicaRecoversWhileSiblingsServe) {
  // One replica's forward throws once: its batch is requeued for the
  // sibling (no request lost, results still bit-identical), the failed
  // replica is rebuilt from the shard's shared program, and the shard ends
  // the test at full strength.
  runtime::CompiledGraph graph = make_calibrated_graph();
  const auto shape = graph.io_shape();
  const std::int64_t sample_numel = kChannels * kSide * kSide;
  Rng rng(8100);
  Tensor samples = random_tensor({8, kChannels, kSide, kSide}, rng);
  const std::vector<Tensor> expected = serial_logits(graph, samples);

  serve::ServerOptions options;
  options.max_batch = 4;
  options.restore_backoff_us = 200;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::replicate(graph));
  replicas.push_back(runtime::replicate(graph));
  server.add_model("m", std::move(replicas));

  fail::arm("serve.replica_forward", fail::Policy::kOnce);
  server.start();

  const serve::ModelHandle handle = server.handle("m");
  constexpr int kProducers = 4;
  constexpr int kIterations = 25;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<float> logits(
          static_cast<std::size_t>(shape.out_features));
      for (int i = 0; i < kIterations; ++i) {
        const int s = (p * 31 + i * 7) % 8;
        const serve::ServeStatus status = server.try_infer(
            handle, samples.data() + s * sample_numel, logits.data());
        if (status != serve::ServeStatus::kOk) {
          ++failures;
          continue;
        }
        if (std::memcmp(logits.data(),
                        expected[static_cast<std::size_t>(s)].data(),
                        logits.size() * sizeof(float)) != 0) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  EXPECT_EQ(failures.load(), 0u) << "requests failed during quarantine";
  EXPECT_EQ(mismatches.load(), 0u) << "served bits diverged";
  EXPECT_EQ(fail::triggers("serve.replica_forward"), 1u)
      << "the fault never fired: the test exercised nothing";

  // The backoff restore completes shortly after the quarantine.
  EXPECT_TRUE(poll([&] { return server.stats("m").restores >= 1; }));
  const auto stats = server.stats("m");
  EXPECT_GE(stats.quarantines, 1u);
  EXPECT_GE(stats.restores, 1u);
  EXPECT_EQ(stats.replicas_quarantined, 0);
  EXPECT_EQ(stats.replicas_dead, 0);
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kProducers * kIterations));
  server.stop();
}

TEST_F(ServeRobustnessTest, ShardFailsOnlyWhenEveryReplicaIsDead) {
  // Single replica, forward fails once, and every rebuild attempt fails
  // too: the replica exhausts its restore budget, the shard dies, and the
  // blocked producer gets kShardFailed instead of hanging.
  runtime::CompiledGraph graph = make_calibrated_graph();
  const auto shape = graph.io_shape();

  serve::ServerOptions options;
  options.max_batch = 2;
  options.restore_backoff_us = 100;
  options.restore_max_attempts = 2;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));

  fail::arm("serve.replica_forward", fail::Policy::kOnce);
  fail::arm("serve.restore", fail::Policy::kEveryN, 1);
  server.start();

  std::vector<float> sample(
      static_cast<std::size_t>(kChannels * kSide * kSide), 0.25f);
  std::vector<float> logits(static_cast<std::size_t>(shape.out_features));
  const serve::ModelHandle handle = server.handle("m");
  EXPECT_EQ(server.try_infer(handle, sample.data(), logits.data()),
            serve::ServeStatus::kShardFailed);
  // The shard is dead: subsequent requests fast-fail, nothing hangs.
  EXPECT_EQ(server.try_infer(handle, sample.data(), logits.data()),
            serve::ServeStatus::kShardFailed);
  const auto stats = server.stats("m");
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.restores, 0u);
  EXPECT_EQ(stats.replicas_dead, 1);
  EXPECT_EQ(fail::triggers("serve.restore"), 2u);  // both attempts failed
  // The throwing wrapper surfaces the same outcome as a check_error.
  EXPECT_THROW(server.infer(handle, sample.data(), logits.data()),
               check_error);
  server.stop();
}

TEST_F(ServeRobustnessTest, DeadlineExpiryWhileQueuedIsCancelledAsTimeout) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  const auto shape = graph.io_shape();
  serve::BatchingServer server(parked_worker_options());
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  fail::arm("serve.worker_batch", fail::Policy::kEveryN, 1);
  server.start();

  const serve::ModelHandle handle = server.handle("m");
  std::vector<float> sample(
      static_cast<std::size_t>(kChannels * kSide * kSide), 0.5f);
  std::vector<float> logits(static_cast<std::size_t>(shape.out_features));
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_EQ(server.try_infer(handle, sample.data(), logits.data(),
                             /*deadline_us=*/30'000),
            serve::ServeStatus::kTimeout);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - begin);
  EXPECT_LT(elapsed.count(), 5000) << "timeout did not bound the call";
  const auto stats = server.stats("m");
  EXPECT_EQ(stats.timed_out, 1u);
  // The cancelled node was removed from the ring: capacity is free again.
  EXPECT_EQ(server.try_infer(handle, sample.data(), logits.data(),
                             /*deadline_us=*/10'000),
            serve::ServeStatus::kTimeout);
  server.stop();
}

TEST_F(ServeRobustnessTest, StopCompletesRequestsQueuedBehindAParkedWorker) {
  // The only worker is parked in a 10 s restore backoff with a request
  // queued behind it. stop() drains without a deadline, yet returns
  // promptly: it cuts the backoff short, the worker exits without serving,
  // and the queued request completes with kShuttingDown.
  runtime::CompiledGraph graph = make_calibrated_graph();
  const auto shape = graph.io_shape();
  serve::BatchingServer server(parked_worker_options());
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  fail::arm("serve.worker_batch", fail::Policy::kEveryN, 1);
  server.start();

  const serve::ModelHandle handle = server.handle("m");
  std::vector<float> sample(
      static_cast<std::size_t>(kChannels * kSide * kSide), 0.5f);
  std::vector<float> logits(static_cast<std::size_t>(shape.out_features));
  serve::ServeStatus status = serve::ServeStatus::kOk;
  std::thread producer([&] {
    status = server.try_infer(handle, sample.data(), logits.data());
  });
  ASSERT_TRUE(poll([&] { return server.stats("m").requests >= 1; }));

  const auto begin = std::chrono::steady_clock::now();
  server.stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - begin);
  producer.join();
  EXPECT_EQ(status, serve::ServeStatus::kShuttingDown);
  EXPECT_LT(elapsed.count(), 5000)
      << "stop() waited out the parked worker's restore backoff";

  // Late arrival after stop: typed rejection through a still-live handle.
  EXPECT_EQ(server.try_infer(handle, sample.data(), logits.data()),
            serve::ServeStatus::kShuttingDown);
}

TEST_F(ServeRobustnessTest, IdleSiblingServesWhileAReplicaRestores) {
  // One of two replicas sits in a long restore backoff. Every lone request
  // must wake the idle sibling: a wake-up spent on the restoring worker
  // would leave the request waiting out the backoff past its deadline.
  runtime::CompiledGraph graph = make_calibrated_graph();
  const auto shape = graph.io_shape();
  serve::BatchingServer server(parked_worker_options());
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::replicate(graph));
  replicas.push_back(runtime::replicate(graph));
  server.add_model("m", std::move(replicas));
  fail::arm("serve.worker_batch", fail::Policy::kOnce);
  server.start();
  ASSERT_TRUE(
      poll([&] { return server.stats("m").replicas_quarantined == 1; }));

  const serve::ModelHandle handle = server.handle("m");
  std::vector<float> sample(
      static_cast<std::size_t>(kChannels * kSide * kSide), 0.5f);
  std::vector<float> logits(static_cast<std::size_t>(shape.out_features));
  // Which waiter a wake-up reaches varies run to run, so use enough
  // requests that a misdirected wake is all but certain to show.
  constexpr int kRequests = 100;
  int failed = 0;
  for (int i = 0; i < kRequests; ++i) {
    if (server.try_infer(handle, sample.data(), logits.data(),
                         /*deadline_us=*/200'000) != serve::ServeStatus::kOk) {
      ++failed;
    }
  }
  EXPECT_EQ(failed, 0) << "of " << kRequests << " requests failed";
  EXPECT_EQ(server.stats("m").timed_out, 0u);
  EXPECT_EQ(server.stats("m").replicas_quarantined, 1);
  server.stop();
}

TEST_F(ServeRobustnessTest, WarmupFailureSurfacesSynchronouslyFromStart) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::replicate(graph));
  replicas.push_back(runtime::replicate(graph));
  server.add_model("m", std::move(replicas));
  fail::arm("serve.warmup", fail::Policy::kOnce);
  EXPECT_THROW(server.start(), fail::injected_fault);
  // The failed start cleaned up: the server can start again (failpoint is
  // spent) and serve normally.
  server.start();
  const auto shape = server.model_shape("m");
  std::vector<float> sample(
      static_cast<std::size_t>(kChannels * kSide * kSide), 0.5f);
  std::vector<float> logits(static_cast<std::size_t>(shape.out_features));
  EXPECT_EQ(server.try_infer(server.handle("m"), sample.data(),
                             logits.data()),
            serve::ServeStatus::kOk);
  server.stop();
}

TEST_F(ServeRobustnessTest, PooledSubmitFaultQuarantinesTheReplica) {
  // A thread-pool submission failure inside a pooled replica's forward
  // surfaces on the shard worker and takes the quarantine path like any
  // kernel fault; the sibling (and later the restored replica) serves the
  // requeued batch.
  runtime::CompiledGraph graph = make_calibrated_graph();
  const auto shape = graph.io_shape();
  const std::int64_t sample_numel = kChannels * kSide * kSide;
  Rng rng(8200);
  Tensor samples = random_tensor({4, kChannels, kSide, kSide}, rng);

  serve::ServerOptions options;
  options.max_batch = 4;
  options.restore_backoff_us = 200;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::replicate(graph));
  replicas.push_back(runtime::replicate(graph));
  for (auto& replica : replicas) replica.set_pooled(true);
  server.add_model("m", std::move(replicas));
  server.start();  // warmup submits to the pool too: arm only afterwards

  fail::arm("threadpool.submit", fail::Policy::kOnce);
  const serve::ModelHandle handle = server.handle("m");
  std::atomic<std::uint64_t> failures{0};
  // Only a multi-sample forward has enough GEMM row tiles to actually
  // SUBMIT to the pool — a batch-1 forward of this tiny graph takes the
  // serial fallback and never evaluates the failpoint. So each wave
  // releases max_batch producers at once against the two replicas: a
  // worker that wakes to more than one queued request takes them all as
  // one batch. Waves repeat until one trips the armed submit point; the
  // bound covers waves whose requests were all popped one at a time.
  for (int wave = 0; wave < 50 && fail::triggers("threadpool.submit") == 0;
       ++wave) {
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&, p] {
        std::vector<float> logits(
            static_cast<std::size_t>(shape.out_features));
        const int s = p % 4;
        while (!go.load()) std::this_thread::yield();
        if (server.try_infer(handle, samples.data() + s * sample_numel,
                             logits.data()) != serve::ServeStatus::kOk) {
          ++failures;
        }
      });
    }
    go.store(true);
    for (std::thread& producer : producers) producer.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(fail::triggers("threadpool.submit"), 1u);
  EXPECT_GE(server.stats("m").quarantines, 1u);
  EXPECT_TRUE(poll([&] { return server.stats("m").restores >= 1; }));
  server.stop();
}

TEST_F(ServeRobustnessTest, RestartRefillsDeadReplicas) {
  // A replica whose restores are exhausted dies and frees its slot. The
  // next start() rebuilds that slot from the restore template, so every
  // start runs the registered replica count: one replica must not restart
  // with no worker to serve its queue, and two must not spawn a worker on
  // the empty slot.
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::int64_t sample_numel = kChannels * kSide * kSide;
  Rng rng(8300);
  Tensor samples = random_tensor({2, kChannels, kSide, kSide}, rng);
  const std::vector<Tensor> expected = serial_logits(graph, samples);
  std::vector<float> logits(static_cast<std::size_t>(expected[0].numel()));

  for (int registered = 1; registered <= 2; ++registered) {
    SCOPED_TRACE("registered replicas: " + std::to_string(registered));
    serve::ServerOptions options;
    options.restore_backoff_us = 100;
    options.restore_max_attempts = 1;
    serve::BatchingServer server(options);
    std::vector<runtime::CompiledGraph> replicas;
    for (int r = 0; r < registered; ++r) {
      replicas.push_back(runtime::replicate(graph));
    }
    server.add_model("m", std::move(replicas));
    fail::arm("serve.replica_forward", fail::Policy::kOnce);
    fail::arm("serve.restore", fail::Policy::kEveryN, 1);
    server.start();

    // The first forward fails and its replica's only restore fails too. A
    // lone replica takes the shard down with it; a sibling serves the
    // requeued request.
    const serve::ModelHandle handle = server.handle("m");
    EXPECT_EQ(server.try_infer(handle, samples.data(), logits.data()),
              registered == 1 ? serve::ServeStatus::kShardFailed
                              : serve::ServeStatus::kOk);
    ASSERT_TRUE(poll([&] { return server.stats("m").replicas_dead == 1; }));
    server.stop();

    // serve.restore stays armed: the restart must not depend on it.
    server.start();
    const auto stats = server.stats("m");
    ASSERT_EQ(stats.replicas_active, registered);
    EXPECT_EQ(stats.replicas_dead, 0);
    EXPECT_EQ(server.replica_workspace_bytes("m").size(),
              static_cast<std::size_t>(registered));
    for (int s = 0; s < 2; ++s) {
      ASSERT_EQ(server.try_infer(handle, samples.data() + s * sample_numel,
                                 logits.data()),
                serve::ServeStatus::kOk);
      EXPECT_EQ(std::memcmp(logits.data(),
                            expected[static_cast<std::size_t>(s)].data(),
                            logits.size() * sizeof(float)),
                0)
          << "sample " << s << " diverged after the restart";
    }
    server.stop();
    fail::disarm_all();
  }
}

TEST_F(ServeRobustnessTest, FailedShardRestartsWithEveryReplicaRebuilt) {
  // Every replica of a 3-replica shard fails its forward and its only
  // restore, so the shard fails. The next start() rebuilds all three
  // slots from the restore template, and the rebuilt replicas serve
  // concurrent producers bit-identically to the serial forward.
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::int64_t sample_numel = kChannels * kSide * kSide;
  constexpr int kSamples = 6;
  Rng rng(8350);
  Tensor samples = random_tensor({kSamples, kChannels, kSide, kSide}, rng);
  const std::vector<Tensor> expected = serial_logits(graph, samples);

  serve::ServerOptions options;
  options.max_batch = 1;  // one forward per request: every worker serves
  options.restore_backoff_us = 100;
  options.restore_max_attempts = 1;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  for (int r = 0; r < 3; ++r) replicas.push_back(runtime::replicate(graph));
  server.add_model("m", std::move(replicas));
  fail::arm("serve.replica_forward", fail::Policy::kEveryN, 1);
  fail::arm("serve.restore", fail::Policy::kEveryN, 1);
  server.start();

  const serve::ModelHandle handle = server.handle("m");
  std::vector<float> logits(static_cast<std::size_t>(expected[0].numel()));
  EXPECT_EQ(server.try_infer(handle, samples.data(), logits.data()),
            serve::ServeStatus::kShardFailed);
  ASSERT_TRUE(poll([&] { return server.stats("m").replicas_dead == 3; }));
  EXPECT_EQ(server.stats("m").quarantines, 3u);
  EXPECT_TRUE(server.replica_workspace_bytes("m").empty());
  server.stop();

  // Forwards succeed again; serve.restore stays armed, and the restart
  // must not depend on it.
  fail::disarm("serve.replica_forward");
  server.start();
  const auto stats = server.stats("m");
  ASSERT_EQ(stats.replicas_active, 3);
  EXPECT_EQ(stats.replicas_dead, 0);
  EXPECT_EQ(server.replica_workspace_bytes("m").size(), 3u);

  constexpr int kProducers = 3;
  constexpr int kIterations = 8;
  std::atomic<int> failed{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<float> out(static_cast<std::size_t>(expected[0].numel()));
      for (int i = 0; i < kIterations; ++i) {
        const int s = (p * 5 + i) % kSamples;
        if (server.try_infer(handle, samples.data() + s * sample_numel,
                             out.data()) != serve::ServeStatus::kOk) {
          ++failed;
          continue;
        }
        if (std::memcmp(out.data(),
                        expected[static_cast<std::size_t>(s)].data(),
                        out.size() * sizeof(float)) != 0) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(mismatches.load(), 0) << "rebuilt replicas diverged";
  EXPECT_EQ(server.stats("m").replicas_active, 3);
  server.stop();
}

// infer()'s outcome as a status: kOk, or the one its check_error names.
serve::ServeStatus infer_status(serve::BatchingServer& server,
                                const serve::ModelHandle& handle,
                                const float* sample, float* logits) {
  try {
    server.infer(handle, sample, logits);
    return serve::ServeStatus::kOk;
  } catch (const check_error& error) {
    const std::string message = error.what();
    for (const serve::ServeStatus status :
         {serve::ServeStatus::kTimeout, serve::ServeStatus::kShardFailed,
          serve::ServeStatus::kShuttingDown}) {
      if (message.find(std::string("status ") +
                       serve::serve_status_name(status)) !=
          std::string::npos) {
        return status;
      }
    }
    throw;
  }
}

TEST_F(ServeRobustnessTest, LifecycleInvariantsHoldAcrossRestarts) {
  // A seeded schedule: four producers mix infer and try_infer (deadlines
  // -1, 0 and a few hundred µs) against a 2-replica shard whose forward
  // fails every fifth batch, whose worker loop fails every seventh pass and
  // whose first restore attempt fails, while the control thread runs two
  // stop()/start() cycles at instants drawn from the seed.
  // Invariants: every call returns, every kOk is bit-identical to the
  // serial forward, a call begun after stop() returned never gets kOk
  // before the next start(), and each status's count matches its
  // ShardStats counter.
  constexpr std::uint64_t kSeed = 8400;
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::int64_t sample_numel = kChannels * kSide * kSide;
  constexpr std::uint32_t kSamples = 8;
  Rng rng(kSeed);
  Tensor samples = random_tensor({kSamples, kChannels, kSide, kSide}, rng);
  const std::vector<Tensor> expected = serial_logits(graph, samples);

  serve::ServerOptions options;
  options.max_batch = 2;
  // Fewer slots than producers: producers wait on backpressure, some of
  // them under deadlines.
  options.queue_capacity = 2;
  options.restore_backoff_us = 200;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::replicate(graph));
  replicas.push_back(runtime::replicate(graph));
  server.add_model("m", std::move(replicas));
  fail::arm("serve.replica_forward", fail::Policy::kEveryN, 5);
  fail::arm("serve.worker_batch", fail::Policy::kEveryN, 7);
  // One failed attempt is retried within the 8 allowed, so no replica dies
  // and the stopped phases answer kShuttingDown, not kShardFailed.
  fail::arm("serve.restore", fail::Policy::kOnce);
  server.start();

  // Odd while stopped: bumped once stop() has returned and again just
  // before start() is called.
  std::atomic<int> phase{0};
  std::atomic<bool> done{false};
  std::atomic<int> finished{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> ok_while_stopped{0};
  constexpr int kProducers = 4;
  // Indexed by ServeStatus value (0-4; 2 is retired).
  constexpr std::size_t kStatuses = 5;
  std::vector<std::array<std::uint64_t, kStatuses>> outcomes(
      kProducers, std::array<std::uint64_t, kStatuses>{});
  const serve::ModelHandle handle = server.handle("m");
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng choice(kSeed + 100 + static_cast<std::uint64_t>(p));
      std::vector<float> logits(
          static_cast<std::size_t>(expected[0].numel()));
      while (!done.load()) {
        const std::uint32_t s = choice.uniform_int(kSamples);
        const float* sample = samples.data() + s * sample_numel;
        const int began = phase.load();
        serve::ServeStatus status;
        switch (choice.uniform_int(4)) {
          case 0:
            status = infer_status(server, handle, sample, logits.data());
            break;
          case 1:
            status = server.try_infer(handle, sample, logits.data());
            break;
          case 2:
            status = server.try_infer(handle, sample, logits.data(),
                                      /*deadline_us=*/0);
            break;
          default:
            status = server.try_infer(handle, sample, logits.data(),
                                      1 + choice.uniform_int(500));
            break;
        }
        ++outcomes[static_cast<std::size_t>(p)]
                  [static_cast<std::size_t>(status)];
        if (status != serve::ServeStatus::kOk) continue;
        if (began % 2 == 1 && phase.load() == began) ++ok_while_stopped;
        if (std::memcmp(logits.data(), expected[s].data(),
                        logits.size() * sizeof(float)) != 0) {
          ++mismatches;
        }
      }
      ++finished;
    });
  }

  // Each serving phase ends once the shard has served 4-11 more batches
  // (drawn from the seed) and restored a replica, so every armed site is
  // reached however slow the build; each stopped phase lasts 5-24 ms.
  Rng schedule(kSeed + 1);
  const auto serve_phase = [&] {
    const auto before = server.stats("m");
    const std::uint64_t batches = 4 + schedule.uniform_int(8);
    EXPECT_TRUE(poll([&] {
      const auto now = server.stats("m");
      return now.batches >= before.batches + batches &&
             now.restores > before.restores;
    })) << "the shard stopped serving or restoring";
  };
  for (int cycle = 0; cycle < 2; ++cycle) {
    serve_phase();
    server.stop();
    ++phase;
    std::this_thread::sleep_for(
        std::chrono::microseconds(5'000 + schedule.uniform_int(20'000)));
    ++phase;
    server.start();
  }
  serve_phase();
  done.store(true);
  EXPECT_TRUE(poll([&] { return finished.load() == kProducers; }))
      << "a call never returned";
  server.stop();  // releases any call still waiting, so the joins finish
  for (std::thread& producer : producers) producer.join();

  std::array<std::uint64_t, kStatuses> total{};
  for (const auto& counts : outcomes) {
    for (std::size_t i = 0; i < kStatuses; ++i) total[i] += counts[i];
  }
  const auto count = [&](serve::ServeStatus status) {
    return total[static_cast<std::size_t>(status)];
  };
  const auto stats = server.stats("m");
  EXPECT_EQ(mismatches.load(), 0u) << "served bits diverged";
  EXPECT_EQ(ok_while_stopped.load(), 0u) << "kOk from a stopped server";
  EXPECT_EQ(count(serve::ServeStatus::kTimeout), stats.timed_out);
  EXPECT_EQ(count(serve::ServeStatus::kShuttingDown) +
                count(serve::ServeStatus::kShardFailed),
            stats.rejected);
  // The schedule exercised what it claims to.
  EXPECT_GT(count(serve::ServeStatus::kOk), 0u);
  EXPECT_GT(count(serve::ServeStatus::kShuttingDown), 0u);
  EXPECT_GE(stats.quarantines, 1u);
  for (const char* point :
       {"serve.replica_forward", "serve.worker_batch", "serve.restore"}) {
    EXPECT_GE(fail::triggers(point), 1u)
        << point << ": " << fail::evaluations(point) << " evaluations";
  }
  EXPECT_EQ(stats.replicas_dead, 0);
}

#endif  // CSQ_FAILPOINTS_ENABLED

TEST(ServeRobustness, StaleHandleResolvesToShuttingDown) {
  // ModelHandle is a weak reference: one that outlives stop() — or the
  // whole server — degrades to kShuttingDown instead of dereferencing a
  // destroyed shard (the PR-4 handle was a raw pointer; this is the fix).
  std::vector<float> sample(
      static_cast<std::size_t>(kChannels * kSide * kSide), 0.5f);
  std::vector<float> logits(16);
  serve::ModelHandle stale;
  EXPECT_FALSE(stale.valid());  // default-constructed: never bound
  {
    serve::BatchingServer server;
    std::vector<runtime::CompiledGraph> replicas;
    replicas.push_back(make_calibrated_graph());
    server.add_model("m", std::move(replicas));
    server.start();
    stale = server.handle("m");
    EXPECT_TRUE(stale.valid());
    server.stop();
    // Stopped but alive: the shard still exists, requests are rejected.
    EXPECT_TRUE(stale.valid());
    EXPECT_EQ(server.try_infer(stale, sample.data(), logits.data()),
              serve::ServeStatus::kShuttingDown);
    EXPECT_THROW(server.infer(stale, sample.data(), logits.data()),
                 check_error);
  }
  // Server destroyed: the handle must detect it, not touch freed memory.
  EXPECT_FALSE(stale.valid());
}

}  // namespace
}  // namespace csq
