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
//    golden_v5.csqm cut at every byte, padded with trailing bytes, given a
//    mismatched weight kernel or layer key, nonzero weight padding, or
//    bit-flipped, each resealed with a fresh CRC so it reaches the field
//    validators. load_graph must reject it or load it cleanly, never
//    crash — run this suite under the sanitize preset for the
//    memory-safety half of the claim;
//  * ServeRobustness.*   — the serving failure paths: replica quarantine +
//    backoff restore with bit-identical recovery, shard failure only when
//    every replica is dead, load shedding, request deadlines, stale
//    handles, warmup failures, deadline-bounded drain, a thread-pool
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
#include "core/model_io.h"
#include "nn/models.h"
#include "nn/weight_source.h"
#include "runtime/compiled_graph.h"
#include "runtime/graph_artifact.h"
#include "runtime/packed_weights.h"
#include "serve/batching_server.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace csq {
namespace {

using testing::golden_v5_payload;
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

TEST(CorruptionFuzz, GoldenV5ResealedPrefixesAreRejected) {
  // Every proper prefix of the payload, resealed with a fresh CRC, is a
  // CRC-valid file the writer never emits: load_graph must reject it —
  // including cuts inside the weight section, which it validates but never
  // packs from.
  const std::string payload = golden_v5_payload();
  const std::string path = temp_path("golden_prefix");
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    write_bytes(path, reseal(payload.substr(0, cut)));
    expect_load_graph_rejects(path, "cut at " + std::to_string(cut));
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GoldenV5ResealedTrailingBytesAreRejected) {
  // The payload must end exactly where the weight section does.
  const std::string payload = golden_v5_payload();
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

// Offset of the kernel field of the weight entry of `layer` (rows x cols):
// i32 layer, i64 rows, i64 cols, i32 shift, then the i32 kernel.
std::size_t weight_entry_kernel(const std::string& payload, std::int32_t layer,
                                std::int64_t rows, std::int64_t cols) {
  char header[20];
  std::memcpy(header, &layer, 4);
  std::memcpy(header + 4, &rows, 8);
  std::memcpy(header + 12, &cols, 8);
  const std::size_t entry =
      find_unique(payload, std::string(header, sizeof(header)));
  return entry == std::string::npos ? entry : entry + sizeof(header) + 4;
}

TEST(CorruptionFuzz, GoldenV5ResealedFieldMutantsAreRejected) {
  // Single-field edits that pass the CRC once resealed.
  const std::string golden = golden_v5_payload();
  const std::string path = temp_path("golden_field");

  // The fc weight entry (layer 5, 4x8, packed for s8u8 = kernel 0)
  // relabelled as bitserial: its panel blob is sized for s8u8, but the GEMM
  // would read it in the instruction's layout.
  const std::size_t fc_kernel = weight_entry_kernel(golden, 5, 4, 8);
  ASSERT_NE(fc_kernel, std::string::npos) << "fc weight entry not found";
  std::string mutant = golden;
  patch<std::int32_t>(mutant, fc_kernel, 0, 1);
  write_bytes(path, reseal(mutant));
  expect_load_graph_rejects(path, "a bitserial entry for an s8u8 layer");

  // conv5 (layer 4, 8x8x3x3, s8u8) with its instruction AND its weight
  // entry relabelled kind 2, the retired nibble kernel. The two agree, so
  // the entry-vs-instruction check passes; the parse's kind set {0, 1, 3}
  // rejects it. The instruction is u8 kind (conv = 0), i32 layer, i64
  // kernel (3), then i64 kernel_w, stride and pad, i32 act_bits and f32
  // clip before the i32 kernel kind.
  char conv5[13] = {0};
  const std::int32_t conv5_layer = 4;
  const std::int64_t conv5_kernel = 3;
  std::memcpy(conv5 + 1, &conv5_layer, 4);
  std::memcpy(conv5 + 5, &conv5_kernel, 8);
  const std::size_t instr =
      find_unique(golden, std::string(conv5, sizeof(conv5)));
  ASSERT_NE(instr, std::string::npos) << "conv5 instruction not found";
  const std::size_t conv5_entry = weight_entry_kernel(golden, 4, 8, 72);
  ASSERT_NE(conv5_entry, std::string::npos) << "conv5 weight entry not found";
  mutant = golden;
  patch<std::int32_t>(mutant, instr + sizeof(conv5) + 3 * 8 + 4 + 4, 0, 2);
  patch<std::int32_t>(mutant, conv5_entry, 0, 2);
  write_bytes(path, reseal(mutant));
  expect_load_graph_rejects(path, "a conv recorded as kernel kind 2");

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

  // The fc weight entry keyed to conv5's layer index: the loader skips the
  // section's blobs, but each entry must still name its instruction's layer.
  // The entry is i32 layer, i64 rows, i64 cols, i32 shift, i32 kernel.
  const std::size_t fc_layer = fc_kernel - 4 - 8 - 8 - 4;
  mutant = golden;
  patch<std::int32_t>(mutant, fc_layer, 5, 4);
  write_bytes(path, reseal(mutant));
  expect_load_graph_rejects(path, "a weight entry keyed to the wrong layer",
                            "keys layer 4, program expects 5");

  // One nonzero byte in the alignment padding between the fc entry's header
  // (which ends with the u8 split flag) and its first 64-byte aligned blob.
  const std::size_t fc_padding = fc_kernel + 4 + 1;
  ASSERT_NE(fc_padding % 64, 0u) << "fc entry header ends aligned";
  mutant = golden;
  patch<std::uint8_t>(mutant, fc_padding, 0, 1);
  write_bytes(path, reseal(mutant));
  expect_load_graph_rejects(path, "a nonzero padding byte",
                            "nonzero alignment padding");
  std::remove(path.c_str());
}

// One entry header of the golden fixture's packed-weights section (i32
// layer, i64 rows, i64 cols, i32 shift, i32 kernel, u8 split) and where it
// starts in the payload.
struct WeightEntryHeader {
  std::size_t offset = 0;
  std::int32_t layer = 0;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int32_t kernel = 0;
  bool split = false;
};
constexpr std::size_t kEntryRows = 4;
constexpr std::size_t kEntryCols = 12;
constexpr std::size_t kEntryKernel = 24;
constexpr std::size_t kEntrySplit = 28;

// The golden fixture's weight entries in section order, which is the
// lowering order of its conv/linear instructions. The fields come from the
// loaded graph; each header is then located in `payload` by its unique
// (layer, rows, cols) prefix.
std::vector<WeightEntryHeader> golden_weight_entries(
    const std::string& payload) {
  runtime::CompiledGraph graph =
      runtime::load_graph(testing::golden_v5_path(), /*pooled=*/false);
  const auto& weights = graph.layer_weight_views();
  std::vector<WeightEntryHeader> entries;
  for (const runtime::ProgramInstr& instr : graph.program().instrs) {
    if (instr.kind != runtime::ProgramInstr::Kind::kConv &&
        instr.kind != runtime::ProgramInstr::Kind::kLinear) {
      continue;
    }
    const runtime::PackedIntWeights& w = *weights[entries.size()];
    WeightEntryHeader entry;
    entry.layer = instr.layer;
    entry.rows = w.rows();
    entry.cols = w.cols();
    entry.kernel = static_cast<std::int32_t>(w.kernel());
    entry.split = w.split();
    const std::size_t kernel_at =
        weight_entry_kernel(payload, entry.layer, entry.rows, entry.cols);
    if (kernel_at == std::string::npos) {
      ADD_FAILURE() << "weight entry of layer " << entry.layer
                    << " not found";
      return {};
    }
    entry.offset = kernel_at - kEntryKernel;
    entries.push_back(entry);
  }
  return entries;
}

TEST(CorruptionFuzz, GoldenV5ResealedWeightEntryCountMutantsAreRejected) {
  // The u32 entry count just before the first entry must equal the
  // program's conv/linear instruction count.
  const std::string golden = golden_v5_payload();
  const std::vector<WeightEntryHeader> entries = golden_weight_entries(golden);
  ASSERT_EQ(entries.size(), 6u);
  const std::size_t count_at = entries.front().offset - 4;
  const auto count = static_cast<std::uint32_t>(entries.size());
  const std::string path = temp_path("golden_entry_count");
  for (const std::uint32_t wrong :
       {0u, count - 1, count + 1, std::uint32_t{0xFFFFFFFFu}}) {
    std::string mutant = golden;
    patch<std::uint32_t>(mutant, count_at, count, wrong);
    write_bytes(path, reseal(mutant));
    expect_load_graph_rejects(
        path, "a weight section claiming " + std::to_string(wrong) + " entries",
        "weight section holds");
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GoldenV5ResealedWeightExtentMutantsAreRejected) {
  // Rows outside [1, 2^20] or cols outside [1, 32767], in every entry.
  const std::string golden = golden_v5_payload();
  const std::vector<WeightEntryHeader> entries = golden_weight_entries(golden);
  ASSERT_FALSE(entries.empty());
  const std::string path = temp_path("golden_extents");
  for (const WeightEntryHeader& entry : entries) {
    const std::string where = "layer " + std::to_string(entry.layer);
    for (const std::int64_t rows :
         {std::int64_t{0}, std::int64_t{-1}, (std::int64_t{1} << 20) + 1}) {
      std::string mutant = golden;
      patch<std::int64_t>(mutant, entry.offset + kEntryRows, entry.rows, rows);
      write_bytes(path, reseal(mutant));
      expect_load_graph_rejects(path, where + " rows " + std::to_string(rows),
                                "absurd weight extents");
    }
    for (const std::int64_t cols :
         {std::int64_t{0}, std::int64_t{-1}, std::int64_t{32768}}) {
      std::string mutant = golden;
      patch<std::int64_t>(mutant, entry.offset + kEntryCols, entry.cols, cols);
      write_bytes(path, reseal(mutant));
      expect_load_graph_rejects(path, where + " cols " + std::to_string(cols),
                                "absurd weight extents");
    }
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GoldenV5ResealedWeightBlobOverrunsAreRejected) {
  // In-range extents whose code blob alone is larger than the whole
  // payload: the bounds check must stop the skip before it leaves the image.
  const std::string golden = golden_v5_payload();
  const std::vector<WeightEntryHeader> entries = golden_weight_entries(golden);
  ASSERT_FALSE(entries.empty());
  const std::string path = temp_path("golden_overrun");
  for (const WeightEntryHeader& entry : entries) {
    const std::string where = "layer " + std::to_string(entry.layer);
    std::string mutant = golden;
    patch<std::int64_t>(mutant, entry.offset + kEntryRows, entry.rows,
                        std::int64_t{1} << 20);
    write_bytes(path, reseal(mutant));
    expect_load_graph_rejects(path, where + " with 2^20 rows",
                              "weight blob overruns the payload");

    mutant = golden;
    patch<std::int64_t>(mutant, entry.offset + kEntryCols, entry.cols,
                        std::int64_t{32767});
    ASSERT_GT(entry.rows * 32767, static_cast<std::int64_t>(golden.size()));
    write_bytes(path, reseal(mutant));
    expect_load_graph_rejects(path, where + " with 32767 cols",
                              "weight blob overruns the payload");
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GoldenV5ResealedSplitFlagMutantsAreRejected) {
  // The split flag is a strict boolean, and it sets how many blobs the
  // entry holds: flipping it misreads every later byte of the section.
  const std::string golden = golden_v5_payload();
  const std::vector<WeightEntryHeader> entries = golden_weight_entries(golden);
  ASSERT_FALSE(entries.empty());
  const std::string path = temp_path("golden_split");
  for (const WeightEntryHeader& entry : entries) {
    const std::string where = "layer " + std::to_string(entry.layer);
    const std::uint8_t flag = entry.split ? 1 : 0;
    std::string mutant = golden;
    patch<std::uint8_t>(mutant, entry.offset + kEntrySplit, flag, 2);
    write_bytes(path, reseal(mutant));
    expect_load_graph_rejects(path, where + " split flag 2",
                              "bad flag byte 2");

    mutant = golden;
    patch<std::uint8_t>(mutant, entry.offset + kEntrySplit, flag,
                        static_cast<std::uint8_t>(1 - flag));
    write_bytes(path, reseal(mutant));
    expect_load_graph_rejects(path, where + " split flag flipped");
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GoldenV5ResealedWeightEntriesMustMatchTheirInstructions) {
  // Every entry, not only the last, is keyed to its own instruction's
  // layer and packed for that instruction's kernel.
  const std::string golden = golden_v5_payload();
  const std::vector<WeightEntryHeader> entries = golden_weight_entries(golden);
  ASSERT_FALSE(entries.empty());
  const std::string path = temp_path("golden_entry_match");
  for (const WeightEntryHeader& entry : entries) {
    const std::string where = "layer " + std::to_string(entry.layer);
    std::string mutant = golden;
    patch<std::int32_t>(mutant, entry.offset, entry.layer, entry.layer + 1);
    write_bytes(path, reseal(mutant));
    expect_load_graph_rejects(path, where + " keyed one layer on",
                              "keys layer " + std::to_string(entry.layer + 1));

    // Kernel kinds the parse accepts (0 s8u8, 1 bitserial, 3 bitserial
    // w16), each relabelling an entry whose instruction selects another.
    for (const std::int32_t kernel : {0, 1, 3}) {
      if (kernel == entry.kernel) continue;
      mutant = golden;
      patch<std::int32_t>(mutant, entry.offset + kEntryKernel, entry.kernel,
                          kernel);
      write_bytes(path, reseal(mutant));
      expect_load_graph_rejects(
          path, where + " packed for kernel " + std::to_string(kernel),
          "packed for kernel " + std::to_string(kernel));
    }
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GoldenV5ResealedBitFlipsNeverCrash) {
  // Resealed flips pass the CRC, so they exercise every field validator
  // behind it. A flip may legitimately load (inside a weight code, a scale
  // or a panel byte); the guarantee is that EVERY outcome through
  // load_graph is either a load or a clean check_error — never a crash, an
  // out-of-bounds parse (the sanitize preset enforces that) or another
  // exception type.
  const std::string payload = golden_v5_payload();
  const std::string path = temp_path("golden_flip");
  const std::size_t total_bits = payload.size() * 8;
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < total_bits; bit += 49) {
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
  // deep inside code or panel payloads load.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
  std::remove(path.c_str());
}

// A small dense model for checkpoint-container fuzzing (mirrors
// model_io_test.cpp's fixture).
Model checkpoint_model(std::uint64_t seed) {
  Rng rng(seed);
  ModelConfig config;
  config.num_classes = 4;
  config.base_width = 4;
  return make_resnet_cifar(8, config, dense_weight_factory(), nullptr, rng);
}

TEST(CorruptionFuzz, CheckpointV2EverySampledTruncationFailsCleanly) {
  // The CSQC v2 arena checkpoint, truncated across the metadata table and
  // the flat f32 blob: every prefix must be rejected with a clean
  // check_error and must leave the destination model untouched enough to
  // keep loading further mutants (no partial-write crashes).
  Model model = checkpoint_model(61);
  const std::string path = temp_path("ckpt_trunc");
  ASSERT_TRUE(save_checkpoint(path, model));
  const std::string bytes = read_bytes(path);
  ASSERT_GT(bytes.size(), 64u);
  Model victim = checkpoint_model(62);
  const std::string cut_path = temp_path("ckpt_trunc_cut");
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 512);
  for (std::size_t cut = 0; cut < bytes.size(); cut += stride) {
    write_bytes(cut_path, bytes.substr(0, cut));
    EXPECT_THROW(load_checkpoint(cut_path, victim), check_error)
        << "cut at " << cut;
  }
  // The intact file still loads after the whole gauntlet.
  load_checkpoint(path, victim);
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(CorruptionFuzz, CheckpointV2BitFlipsNeverCrash) {
  // CSQC carries no integrity trailer, so a flip deep inside the f32 blob
  // may legitimately load (as different weights). The guarantee is the
  // weaker memory-safety one: every sampled flip either loads or throws a
  // clean check_error — never a crash or out-of-bounds parse.
  Model model = checkpoint_model(63);
  const std::string path = temp_path("ckpt_flip");
  ASSERT_TRUE(save_checkpoint(path, model));
  const std::string bytes = read_bytes(path);
  Model victim = checkpoint_model(64);
  const std::string mutant_path = temp_path("ckpt_flip_mut");
  const std::size_t total_bits = bytes.size() * 8;
  const std::size_t stride = std::max<std::size_t>(1, total_bits / 256);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < total_bits; bit += stride) {
    std::string mutant = bytes;
    mutant[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(mutant[bit / 8]) ^ (1u << (bit % 8)));
    write_bytes(mutant_path, mutant);
    try {
      load_checkpoint(mutant_path, victim);
      ++loaded;
    } catch (const check_error&) {
      ++rejected;
    }
  }
  // Both outcomes occur: header/metadata flips reject, blob flips load.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
  std::remove(path.c_str());
  std::remove(mutant_path.c_str());
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

TEST_F(ServeRobustnessTest, ShedOverloadFastRejectsAtTheFullRing) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  const auto shape = graph.io_shape();
  serve::ServerOptions options = parked_worker_options();
  options.shed_overload = true;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  fail::arm("serve.worker_batch", fail::Policy::kEveryN, 1);
  server.start();

  const serve::ModelHandle handle = server.handle("m");
  std::vector<float> sample(
      static_cast<std::size_t>(kChannels * kSide * kSide), 0.5f);
  std::vector<float> logits(static_cast<std::size_t>(shape.out_features));

  // Producer A fills the 1-slot ring and blocks (no deadline).
  serve::ServeStatus status_a = serve::ServeStatus::kOk;
  std::thread producer([&] {
    status_a = server.try_infer(handle, sample.data(), logits.data());
  });
  ASSERT_TRUE(poll([&] { return server.stats("m").requests >= 1; }));

  // Ring full + shed_overload: immediate typed rejection, no blocking.
  std::vector<float> logits_b(logits.size());
  EXPECT_EQ(server.try_infer(handle, sample.data(), logits_b.data()),
            serve::ServeStatus::kOverloaded);
  EXPECT_EQ(server.stats("m").shed, 1u);
  // The worker quarantines itself asynchronously after start() — poll
  // rather than assert, the gauge flips whenever it first hits the armed
  // batch-loop failpoint.
  EXPECT_TRUE(poll([&] { return server.stats("m").replicas_quarantined == 1; }));

  // stop() interrupts the parked restore and completes the queued request:
  // producer A returns with kShuttingDown instead of hanging forever.
  server.stop();
  producer.join();
  EXPECT_EQ(status_a, serve::ServeStatus::kShuttingDown);
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

TEST_F(ServeRobustnessTest, DrainDeadlineCompletesQueuedWorkOnStop) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  const auto shape = graph.io_shape();
  serve::ServerOptions options = parked_worker_options();
  options.drain_deadline_us = 20'000;
  serve::BatchingServer server(options);
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
      << "stop() waited past the drain deadline on a wedged worker";

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
         {serve::ServeStatus::kTimeout, serve::ServeStatus::kOverloaded,
          serve::ServeStatus::kShardFailed,
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
  options.queue_capacity = 2;  // fewer slots than producers: shedding occurs
  options.shed_overload = true;
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
  EXPECT_EQ(count(serve::ServeStatus::kOverloaded), stats.shed);
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
