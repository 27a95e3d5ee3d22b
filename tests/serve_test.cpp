// Serving-layer tests: persisted CompiledGraph artifacts and the
// request-batching server.
//
//  * artifact round trip: save -> load -> forward is BIT-identical to the
//    directly-lowered graph, and the layer section carries every quantized
//    layer of the source model;
//  * replicate(): in-memory program replay is bit-identical too;
//  * N-producer concurrency stress with per-request result verification
//    against precomputed single-sample forwards (serial and pooled
//    replicas);
//  * a fixed replica count per shard across start/stop cycles, and
//    registration errors raised by the registering call;
//  * flush-policy edge cases: batch of 1, exactly max-batch, timer-driven
//    flushes;
//  * zero steady-state heap allocations on the request path under 4
//    concurrent producers, using the global operator-new counter
//    (alloc_probe.h) shared with hotpath_test.cpp.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_probe.h"
#include "core/csq_weight.h"
#include "nn/models.h"
#include "runtime/compiled_graph.h"
#include "runtime/graph_artifact.h"
#include "serve/batching_server.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/rng.h"

namespace csq {
namespace {

using testing::alloc_count;
using testing::parked_worker_options;
using testing::random_tensor;

constexpr std::int64_t kSide = 12;
constexpr std::int64_t kChannels = 3;

// Unique temp path per test AND process, so parallel ctest and repeated
// concurrent invocations of the same test never collide on artifacts.
std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "csq_serve_" + tag + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".csqm";
}

// A small finalized 3-bit CSQ ResNet-20, lowered and calibrated — the
// serving substrate every test below starts from.
runtime::CompiledGraph make_calibrated_graph(Model* model_out = nullptr) {
  Rng rng(7001);
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
  Rng calib_rng(7002);
  Tensor calib = random_tensor({8, kChannels, kSide, kSide}, calib_rng);
  graph.calibrate(calib);
  if (model_out != nullptr) *model_out = std::move(model);
  return graph;
}

void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << ": logit " << i;
  }
}

// ------------------------------------------------------- graph artifact --

TEST(GraphArtifact, SaveLoadForwardIsBitIdenticalToDirectLowering) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  Rng rng(7003);
  Tensor images = random_tensor({5, kChannels, kSide, kSide}, rng);
  const Tensor direct = graph.forward(images);

  const std::string path = temp_path("roundtrip");
  ASSERT_TRUE(runtime::save_graph(path, graph));

  // The float model does not exist on this path: load_graph replays the
  // persisted program only.
  runtime::CompiledGraph serial = runtime::load_graph(path, /*pooled=*/false);
  const Tensor from_serial = serial.forward(images);
  expect_bit_identical(direct, from_serial, "loaded (serial)");

  runtime::CompiledGraph pooled = runtime::load_graph(path, /*pooled=*/true);
  const Tensor from_pooled = pooled.forward(images);
  expect_bit_identical(direct, from_pooled, "loaded (pooled)");

  // Introspection survives the round trip.
  EXPECT_EQ(serial.layers().size(), graph.layers().size());
  EXPECT_EQ(serial.weight_storage_bits(), graph.weight_storage_bits());
  const auto shape = serial.io_shape();
  EXPECT_EQ(shape.channels, kChannels);
  EXPECT_EQ(shape.height, kSide);
  EXPECT_EQ(shape.width, kSide);
  EXPECT_EQ(shape.out_features, 10);
  std::remove(path.c_str());
}

TEST(GraphArtifact, LayerSectionCarriesEveryQuantLayer) {
  Model model;
  runtime::CompiledGraph graph = make_calibrated_graph(&model);
  const std::string path = temp_path("layer_section");
  ASSERT_TRUE(runtime::save_graph(path, graph));

  // The layer section holds one record per quantized layer of the model,
  // in registry order.
  const runtime::CompiledGraph loaded = runtime::load_graph(path);
  const auto& layers = loaded.program().layers;
  ASSERT_EQ(layers.size(), model.quant_layers().size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    EXPECT_EQ(layers[l].name, model.quant_layers()[l].name);
    EXPECT_EQ(shape_numel(layers[l].shape),
              model.quant_layers()[l].source->weight_count());
  }
  std::remove(path.c_str());
}

TEST(GraphArtifact, RejectsUncalibratedGraphs) {
  // Saving before calibrate(): edge scales are unresolved.
  Rng rng(7004);
  std::vector<CsqWeightSource*> registry;
  ModelConfig model_config;
  model_config.base_width = 4;
  Model model = make_resnet20(model_config, csq_weight_factory(&registry),
                              nullptr, rng);
  for (CsqWeightSource* source : registry) source->finalize();
  runtime::LowerOptions options;
  options.in_height = kSide;
  options.in_width = kSide;
  runtime::CompiledGraph graph = runtime::lower(model, options);
  const std::string path = temp_path("uncalibrated");
  EXPECT_THROW(runtime::save_graph(path, graph), check_error);

  // The server rejects uncalibrated replicas at registration — not from a
  // worker thread mid-warmup.
  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  EXPECT_THROW(server.add_model("uncalibrated", std::move(replicas)),
               check_error);
}

TEST(GraphArtifact, ReplicateIsBitIdentical) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  runtime::CompiledGraph copy = runtime::replicate(graph);
  Rng rng(7005);
  Tensor images = random_tensor({3, kChannels, kSide, kSide}, rng);
  expect_bit_identical(graph.forward(images), copy.forward(images),
                       "replica");
}

TEST(GraphArtifact, LoadedGraphOwnsItsWeightsOnceTheFileIsGone) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::string path = temp_path("owned");
  ASSERT_TRUE(runtime::save_graph(path, graph));
  runtime::CompiledGraph loaded = runtime::load_graph(path, /*pooled=*/false);

  // load_graph copies the file and re-packs every layer from its codes, so
  // nothing refers back to the file: overwriting it in place, then removing
  // it, leaves the loaded graph and its later replicas serving unchanged.
  testing::write_bytes(path, std::string(64, '\x5a'));
  std::remove(path.c_str());
  runtime::CompiledGraph sibling = runtime::replicate(loaded);

  Rng rng(7006);
  Tensor images = random_tensor({3, kChannels, kSide, kSide}, rng);
  const Tensor direct = graph.forward(images);
  expect_bit_identical(direct, loaded.forward(images), "loaded");
  expect_bit_identical(direct, sibling.forward(images), "replica of loaded");
}

TEST(GraphArtifact, LoadedGraphResavesByteIdentically) {
  // The artifact stores each weight once, as its layer codes, and
  // load_graph packs the GEMM panels from them. Byte equality of the
  // re-save with the first save shows the load keeps every field the
  // writer wrote: program, codes, recorded kernels and edge scales.
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::string path = temp_path("resave_first");
  ASSERT_TRUE(runtime::save_graph(path, graph));
  const std::string first = testing::read_bytes(path);

  const std::string again = temp_path("resave_again");
  for (const bool pooled : {false, true}) {
    runtime::CompiledGraph loaded = runtime::load_graph(path, pooled);
    ASSERT_TRUE(runtime::save_graph(again, loaded));
    const std::string second = testing::read_bytes(again);
    EXPECT_EQ(second.size(), first.size()) << "pooled " << pooled;
    EXPECT_TRUE(second == first) << "pooled " << pooled;
  }
  std::remove(path.c_str());
  std::remove(again.c_str());
}

TEST(BatchingServer, ReplicaFootprintIsLivenessColored) {
  // Every worker pays one graph workspace; the liveness-colored plan (the
  // default) must keep each replica's footprint well under the
  // one-slot-per-edge policy every replica paid through PR 4.
  runtime::CompiledGraph graph = make_calibrated_graph();
  runtime::LowerOptions baseline_options = graph.options();
  baseline_options.plan_buffers = false;
  runtime::CompiledGraph baseline =
      runtime::build_graph(graph.program(), baseline_options);
  baseline.restore_edge_scales(graph.edge_scales());

  serve::ServerOptions options;
  options.max_batch = 8;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::replicate(graph));
  replicas.push_back(runtime::replicate(graph));
  server.add_model("model", std::move(replicas));
  server.start();

  // Warmup prepared every replica for max_batch; size the baseline the
  // same way before comparing.
  baseline.prepare(options.max_batch);
  const std::vector<std::int64_t> footprints =
      server.replica_workspace_bytes("model");
  ASSERT_EQ(footprints.size(), 2u);
  for (const std::int64_t bytes : footprints) {
    EXPECT_GT(bytes, 0);
    EXPECT_LT(bytes * 2, baseline.workspace_bytes())
        << "replica " << bytes << "B vs one-slot-per-edge baseline "
        << baseline.workspace_bytes() << "B";
  }
  server.stop();
}

// -------------------------------------------------------- batching server --

// Expected logits for `count` distinct samples, computed one sample at a
// time — the serial single-sample reference the batched server must match
// bit for bit.
struct ExpectedSet {
  Tensor samples;           // (count, C, H, W)
  std::vector<Tensor> logits;  // per sample
  std::int64_t sample_numel = 0;
  std::int64_t out_features = 0;
};

ExpectedSet make_expected(runtime::CompiledGraph& graph, int count,
                          std::uint64_t seed) {
  ExpectedSet expected;
  Rng rng(seed);
  expected.samples = random_tensor({count, kChannels, kSide, kSide}, rng);
  expected.sample_numel = kChannels * kSide * kSide;
  expected.out_features = graph.io_shape().out_features;
  for (int s = 0; s < count; ++s) {
    Tensor one({1, kChannels, kSide, kSide});
    std::memcpy(one.data(),
                expected.samples.data() + s * expected.sample_numel,
                static_cast<std::size_t>(expected.sample_numel) *
                    sizeof(float));
    expected.logits.push_back(graph.forward(one));
  }
  return expected;
}

// Drives `producers` threads of `iterations` requests each against the
// server, each request verified bit-for-bit against the expected set.
// Returns the number of mismatched requests.
std::uint64_t run_producers(serve::BatchingServer& server,
                            const std::string& model_id,
                            const ExpectedSet& expected, int producers,
                            int iterations) {
  const serve::ModelHandle handle = server.handle(model_id);
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      std::vector<float> logits(
          static_cast<std::size_t>(expected.out_features));
      const int count = static_cast<int>(expected.logits.size());
      for (int i = 0; i < iterations; ++i) {
        const int s = (p * 31 + i * 7) % count;
        server.infer(handle,
                     expected.samples.data() + s * expected.sample_numel,
                     logits.data());
        if (std::memcmp(logits.data(), expected.logits
                            [static_cast<std::size_t>(s)].data(),
                        logits.size() * sizeof(float)) != 0) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return mismatches.load();
}

TEST(BatchingServer, ConcurrentProducersGetBitIdenticalResults) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  ExpectedSet expected = make_expected(graph, 16, 7100);
  const std::string path = temp_path("stress");
  ASSERT_TRUE(runtime::save_graph(path, graph));

  serve::ServerOptions options;
  options.max_batch = 8;
  serve::BatchingServer server(options);
  // Artifact-loaded replicas: the serving process path.
  server.add_model_from_artifact("resnet20", path, /*replicas=*/2);
  server.start();

  EXPECT_EQ(run_producers(server, "resnet20", expected, /*producers=*/6,
                          /*iterations=*/40),
            0u);
  const auto stats = server.stats("resnet20");
  EXPECT_EQ(stats.requests, 6u * 40u);
  EXPECT_GE(stats.batches, stats.requests / 8);
  EXPECT_LE(stats.max_batch_observed, 8);
  server.stop();
  std::remove(path.c_str());
}

TEST(BatchingServer, PooledReplicasShareTheThreadPoolSafely) {
  // Replicas with in-graph pooled execution: concurrent top-level
  // parallel_for submissions from the shard workers must queue on the
  // shared pool, not throw or race. At max_batch = 1 every forward is a
  // batch-1 forward, whose column-split GEMMs run inside a shard worker.
  runtime::CompiledGraph graph = make_calibrated_graph();
  ExpectedSet expected = make_expected(graph, 8, 7200);

  for (const std::int64_t max_batch : {4, 1}) {
    SCOPED_TRACE(max_batch);
    std::vector<runtime::CompiledGraph> replicas;
    replicas.push_back(runtime::replicate(graph));
    replicas.push_back(runtime::replicate(graph));
    for (auto& replica : replicas) replica.set_pooled(true);

    serve::ServerOptions options;
    options.max_batch = max_batch;
    serve::BatchingServer server(options);
    server.add_model("pooled", std::move(replicas));
    server.start();
    EXPECT_EQ(run_producers(server, "pooled", expected, /*producers=*/4,
                            /*iterations=*/15),
              0u);
    server.stop();
  }
}

TEST(BatchingServer, RoutesRequestsAcrossModels) {
  // Two models with different weights behind one server: responses must
  // come from the addressed model.
  runtime::CompiledGraph graph_a = make_calibrated_graph();
  ExpectedSet expected_a = make_expected(graph_a, 4, 7300);

  Rng rng(7301);
  std::vector<CsqWeightSource*> registry;
  ModelConfig model_config;
  model_config.base_width = 8;  // different widths -> different logits
  CsqWeightOptions weight_options;
  weight_options.fixed_precision = 3;
  Model model_b = make_resnet20(
      model_config, csq_weight_factory(&registry, weight_options), nullptr,
      rng);
  for (CsqWeightSource* source : registry) source->finalize();
  runtime::LowerOptions lower_options;
  lower_options.in_height = kSide;
  lower_options.in_width = kSide;
  runtime::CompiledGraph graph_b = runtime::lower(model_b, lower_options);
  Rng calib_rng(7302);
  Tensor calib = random_tensor({8, kChannels, kSide, kSide}, calib_rng);
  graph_b.calibrate(calib);
  ExpectedSet expected_b = make_expected(graph_b, 4, 7300);  // same samples

  serve::ServerOptions options;
  options.max_batch = 4;
  serve::BatchingServer server(options);
  {
    std::vector<runtime::CompiledGraph> replicas_a;
    replicas_a.push_back(std::move(graph_a));
    server.add_model("model_a", std::move(replicas_a));
    std::vector<runtime::CompiledGraph> replicas_b;
    replicas_b.push_back(std::move(graph_b));
    server.add_model("model_b", std::move(replicas_b));
  }
  server.start();
  EXPECT_EQ(run_producers(server, "model_a", expected_a, 2, 10), 0u);
  EXPECT_EQ(run_producers(server, "model_b", expected_b, 2, 10), 0u);
  EXPECT_EQ(server.stats("model_a").requests, 20u);
  EXPECT_EQ(server.stats("model_b").requests, 20u);
  EXPECT_THROW(server.handle("model_c"), check_error);
  server.stop();
}

TEST(BatchingServer, ReplicaCountIsFixedAtRegistration) {
  // A shard runs exactly the replicas add_model registered: no workers
  // before start() or after stop(), and the full count on every start.
  runtime::CompiledGraph graph = make_calibrated_graph();
  ExpectedSet expected = make_expected(graph, 6, 7350);

  serve::ServerOptions options;
  options.max_batch = 2;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  for (int r = 0; r < 3; ++r) replicas.push_back(runtime::replicate(graph));
  server.add_model("m", std::move(replicas));
  EXPECT_EQ(server.stats("m").replicas_active, 0);
  EXPECT_EQ(server.replica_workspace_bytes("m").size(), 3u);

  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    server.start();
    EXPECT_EQ(server.stats("m").replicas_active, 3);
    EXPECT_EQ(run_producers(server, "m", expected, /*producers=*/4,
                            /*iterations=*/6),
              0u);
    EXPECT_EQ(server.stats("m").replicas_active, 3);
    server.stop();
    EXPECT_EQ(server.stats("m").replicas_active, 0);
    server.stop();  // idempotent
  }
  EXPECT_EQ(server.replica_workspace_bytes("m").size(), 3u);
}

TEST(BatchingServer, RegistrationRejectsInvalidModels) {
  // Caller errors surface from the registering call, never from a worker.
  runtime::CompiledGraph graph = make_calibrated_graph();
  const std::string path = temp_path("registration");
  ASSERT_TRUE(runtime::save_graph(path, graph));

  serve::BatchingServer server;
  EXPECT_THROW(server.start(), check_error);  // nothing registered
  EXPECT_THROW(server.add_model("empty", {}), check_error);
  EXPECT_THROW(server.add_model_from_artifact("none", path, /*replicas=*/0),
               check_error);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::replicate(graph));
  server.add_model("m", std::move(replicas));
  std::vector<runtime::CompiledGraph> duplicate;
  duplicate.push_back(runtime::replicate(graph));
  EXPECT_THROW(server.add_model("m", std::move(duplicate)), check_error);
  EXPECT_THROW(server.stats("ghost"), check_error);
  EXPECT_THROW(server.handle("ghost"), check_error);
  EXPECT_THROW(server.replica_workspace_bytes("ghost"), check_error);

  server.start();
  EXPECT_THROW(server.start(), check_error);
  std::vector<runtime::CompiledGraph> late;
  late.push_back(runtime::replicate(graph));
  EXPECT_THROW(server.add_model("late", std::move(late)), check_error);
  // The rejected calls left the registered shard as it was.
  EXPECT_EQ(server.stats("m").replicas_active, 1);
  server.stop();
  std::remove(path.c_str());
}

TEST(BatchingServer, ArtifactRegistrationRejectsCorruptFiles) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  const ExpectedSet expected = make_expected(graph, 4, 7150);
  const std::string path = temp_path("artifact_registration");
  ASSERT_TRUE(runtime::save_graph(path, graph));
  const std::string bytes = testing::read_bytes(path);
  const std::string mutant = temp_path("artifact_registration_mutant");

  // A flipped byte (CRC mismatch), a torn tail and a missing file each fail
  // the registering call, before any replica or worker exists.
  serve::BatchingServer server;
  std::string flipped = bytes;
  flipped[flipped.size() / 2] =
      static_cast<char>(static_cast<unsigned char>(flipped[flipped.size() / 2]) ^
                        0x10u);
  testing::write_bytes(mutant, flipped);
  EXPECT_THROW(server.add_model_from_artifact("m", mutant, /*replicas=*/2),
               check_error);
  testing::write_bytes(mutant, bytes.substr(0, bytes.size() - 1));
  EXPECT_THROW(server.add_model_from_artifact("m", mutant, /*replicas=*/2),
               check_error);
  std::remove(mutant.c_str());
  EXPECT_THROW(server.add_model_from_artifact("m", mutant, /*replicas=*/2),
               check_error);

  // Nothing was registered under the id, so it is still free for the intact
  // artifact, which then serves bit-identically to the lowered graph.
  EXPECT_THROW(server.stats("m"), check_error);
  EXPECT_THROW(server.start(), check_error);
  server.add_model_from_artifact("m", path, /*replicas=*/2);
  server.start();
  EXPECT_EQ(server.stats("m").replicas_active, 2);
  EXPECT_EQ(run_producers(server, "m", expected, /*producers=*/2,
                          /*iterations=*/8),
            0u);
  server.stop();
  std::remove(path.c_str());
}

// ------------------------------------------------------- flush policy ----

TEST(BatchingServer, LoneRequestFlushesAsBatchOfOne) {
  // Work-conserving batching: a free worker serves a lone request at once,
  // as a batch of one, instead of holding it back for company.
  runtime::CompiledGraph graph = make_calibrated_graph();
  ExpectedSet expected = make_expected(graph, 1, 7400);

  serve::ServerOptions options;
  options.max_batch = 8;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();

  std::vector<float> logits(
      static_cast<std::size_t>(expected.out_features));
  server.infer("m", expected.samples.data(), logits.data());
  EXPECT_EQ(std::memcmp(logits.data(), expected.logits[0].data(),
                        logits.size() * sizeof(float)),
            0);
  const auto stats = server.stats("m");
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.timer_flushes, 0u);
  EXPECT_EQ(stats.full_flushes, 0u);
  EXPECT_EQ(stats.max_batch_observed, 1);
  server.stop();
}

#if CSQ_FAILPOINTS_ENABLED

TEST(BatchingServer, DeadlineSemanticsArePinned) {
  // The {-1, 0, >0} deadline contract is load-bearing for the wire
  // protocol (serve/transport.h encodes -1 as THE no-deadline value), so
  // pin each case against a replica parked for ~300 ms (see
  // parked_worker_options): requests queue behind it, making expiry
  // deterministic.
  runtime::CompiledGraph graph = make_calibrated_graph();
  ExpectedSet expected = make_expected(graph, 1, 7450);

  serve::BatchingServer server(
      parked_worker_options(/*max_batch=*/16, /*restore_backoff_us=*/300'000));
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  fail::arm("serve.worker_batch", fail::Policy::kOnce);
  server.start();
  const serve::ModelHandle handle = server.handle("m");

  std::vector<float> logits(
      static_cast<std::size_t>(expected.out_features));
  // deadline_us == 0: already expired on entry — admitted, then cancelled
  // with kTimeout (it is NOT "no deadline"; the parked replica never gets
  // to it).
  EXPECT_EQ(server.try_infer(handle, expected.samples.data(), logits.data(),
                             /*deadline_us=*/0),
            serve::ServeStatus::kTimeout);
  // A short positive deadline expires while queued, same outcome.
  EXPECT_EQ(server.try_infer(handle, expected.samples.data(), logits.data(),
                             /*deadline_us=*/1),
            serve::ServeStatus::kTimeout);
  // No deadline: -1, and INT64_MAX, which lies beyond the clock's range.
  // Both wait out the parked replica's restore, succeed, and return
  // bit-identical logits.
  std::vector<float> logits_max(logits.size());
  serve::ServeStatus status_max = serve::ServeStatus::kShuttingDown;
  std::thread waiter([&] {
    status_max = server.try_infer(handle, expected.samples.data(),
                                  logits_max.data(), INT64_MAX);
  });
  EXPECT_EQ(server.try_infer(handle, expected.samples.data(), logits.data(),
                             /*deadline_us=*/-1),
            serve::ServeStatus::kOk);
  waiter.join();
  EXPECT_EQ(status_max, serve::ServeStatus::kOk);
  for (const std::vector<float>* out : {&logits, &logits_max}) {
    EXPECT_EQ(std::memcmp(out->data(), expected.logits[0].data(),
                          out->size() * sizeof(float)),
              0);
  }
  const auto stats = server.stats("m");
  EXPECT_EQ(stats.timed_out, 2u);
  EXPECT_EQ(stats.restores, 1u);
  server.stop();
  // The spent kOnce point stays registered, which keeps every failpoint
  // site on its slow, allocating path: disarm it for the tests that follow.
  fail::disarm_all();
}

TEST(BatchingServer, ExactlyMaxBatchFlushesFull) {
  // Batching still forms under load: while the only replica is parked,
  // max_batch producers of one request each queue up, and the restored
  // replica takes them all as exactly one full batch.
  runtime::CompiledGraph graph = make_calibrated_graph();
  constexpr int kBatch = 4;
  ExpectedSet expected = make_expected(graph, kBatch, 7500);

  serve::BatchingServer server(
      parked_worker_options(kBatch, /*restore_backoff_us=*/300'000));
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  fail::arm("serve.worker_batch", fail::Policy::kOnce);
  server.start();

  EXPECT_EQ(run_producers(server, "m", expected, kBatch, 1), 0u);
  const auto stats = server.stats("m");
  EXPECT_EQ(stats.restores, 1u);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kBatch));
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.full_flushes, 1u);
  EXPECT_EQ(stats.timer_flushes, 0u);
  EXPECT_EQ(stats.max_batch_observed, kBatch);
  server.stop();
  // The spent kOnce point stays registered, which keeps every failpoint
  // site on its slow, allocating path: disarm it for the tests that follow.
  fail::disarm_all();
}

#endif  // CSQ_FAILPOINTS_ENABLED

TEST(BatchingServer, PartialBatchesFlushWithoutWaiting) {
  // Nothing can fill a batch of 64 here, and nothing waits for it to: each
  // producer has one request in flight, so no batch exceeds the producer
  // count.
  runtime::CompiledGraph graph = make_calibrated_graph();
  constexpr int kProducers = 3;
  ExpectedSet expected = make_expected(graph, 3, 7600);

  serve::ServerOptions options;
  options.max_batch = 64;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();

  EXPECT_EQ(run_producers(server, "m", expected, kProducers, 5), 0u);
  const auto stats = server.stats("m");
  EXPECT_EQ(stats.requests, 15u);
  EXPECT_EQ(stats.timer_flushes, 0u);
  EXPECT_EQ(stats.full_flushes, 0u);
  EXPECT_LE(stats.max_batch_observed, kProducers);
  server.stop();
}

// --------------------------------------------- zero-allocation steady state

// Reusable two-phase rendezvous (mutex + cv only, so waiting producers add
// no heap traffic inside the measured window).
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != generation; });
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  const int parties_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

TEST(BatchingServer, SteadyStateRequestPathIsAllocationFree) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  ExpectedSet expected = make_expected(graph, 8, 7700);

  serve::ServerOptions options;
  options.max_batch = 4;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::replicate(graph));
  replicas.push_back(runtime::replicate(graph));
  for (auto& replica : replicas) replica.set_pooled(false);
  server.add_model("m", std::move(replicas));
  server.start();

  constexpr int kProducers = 4;
  constexpr int kWarmup = 10;
  constexpr int kMeasured = 30;
  Rendezvous warm(kProducers + 1), measured(kProducers + 1);
  std::atomic<std::uint64_t> mismatches{0};
  const serve::ModelHandle handle = server.handle("m");

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<float> logits(
          static_cast<std::size_t>(expected.out_features));
      const auto run = [&](int iterations) {
        const int count = static_cast<int>(expected.logits.size());
        for (int i = 0; i < iterations; ++i) {
          const int s = (p * 13 + i * 5) % count;
          server.infer(handle,
                       expected.samples.data() + s * expected.sample_numel,
                       logits.data());
          if (std::memcmp(logits.data(),
                          expected.logits[static_cast<std::size_t>(s)].data(),
                          logits.size() * sizeof(float)) != 0) {
            ++mismatches;
          }
        }
      };
      run(kWarmup);
      warm.arrive_and_wait();      // main samples the counter here
      run(kMeasured);
      measured.arrive_and_wait();  // ... and here, before thread teardown
    });
  }

  warm.arrive_and_wait();
  const std::uint64_t before = alloc_count();
  measured.arrive_and_wait();
  const std::uint64_t delta = alloc_count() - before;
  for (std::thread& producer : producers) producer.join();

  EXPECT_EQ(delta, 0u)
      << "steady-state serving window hit the heap " << delta << " times";
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(server.stats("m").requests,
            static_cast<std::uint64_t>(kProducers * (kWarmup + kMeasured)));
  server.stop();
}

// -------------------------------------------- stats-path concurrency ----

TEST(BatchingServer, StatsSnapshotsRaceProducersSafely) {
  // Regression pin for the stats-path audit: stats() reads the flush-wait
  // ring, the counter struct and the liveness gauges while workers mutate
  // all three on every flush. Both sides hold the shard mutex, so a
  // snapshot must never be torn — this hammers the pair under the tsan
  // preset (serve_runtime label), where any unlocked access in either
  // direction is a hard failure, not a flake.
  runtime::CompiledGraph graph = make_calibrated_graph();
  ExpectedSet expected = make_expected(graph, 8, 7800);

  serve::ServerOptions options;
  options.max_batch = 4;
  serve::BatchingServer server(options);
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::replicate(graph));
  replicas.push_back(runtime::replicate(graph));
  server.add_model("m", std::move(replicas));
  server.start();

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      const auto stats = server.stats("m");
      // Internally consistent even mid-flood: gauges stay in range and the
      // p99 always comes from real (non-negative) wait samples.
      ASSERT_GE(stats.flush_wait_p99_us, 0);
      ASSERT_GE(stats.replicas_active, 0);
      ASSERT_LE(stats.max_batch_observed, 4);
    }
  });
  EXPECT_EQ(run_producers(server, "m", expected, /*producers=*/4,
                          /*iterations=*/50),
            0u);
  done.store(true);
  reader.join();

  const auto stats = server.stats("m");
  EXPECT_EQ(stats.requests, 4u * 50u);
  EXPECT_GE(stats.batches, stats.requests / 4);
  server.stop();
}

#if CSQ_FAILPOINTS_ENABLED

// The lifecycle lines in captured stderr, without the logger's prefix.
std::vector<std::string> lifecycle_lines(const std::string& captured) {
  const std::string prefix = "[csq WARN ] ";
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < captured.size()) {
    std::size_t end = captured.find('\n', begin);
    if (end == std::string::npos) end = captured.size();
    const std::string line = captured.substr(begin, end - begin);
    if (line.rfind(prefix + "event=", 0) == 0) {
      lines.push_back(line.substr(prefix.size()));
    }
    begin = end + 1;
  }
  return lines;
}

// The worker=<index> value of a lifecycle line, or "" without one.
std::string worker_of(const std::string& line) {
  const std::size_t at = line.find(" worker=");
  if (at == std::string::npos) return "";
  const std::size_t begin = at + 8;
  return line.substr(begin, line.find(' ', begin) - begin);
}

// Quarantine, restore and replica death each log exactly one key=value
// warn line naming the model and worker (quarantine also the fault);
// successful requests log nothing.
TEST(BatchingServer, LifecycleEventsLogOneKeyValueLineEach) {
  fail::disarm_all();
  struct RestoreLevel {
    LogLevel level;
    ~RestoreLevel() { set_log_level(level); }
  } restore_level{log_level()};
  set_log_level(LogLevel::warn);
  runtime::CompiledGraph graph = make_calibrated_graph();
  const auto shape = graph.io_shape();
  Rng rng(7301);
  const Tensor sample = random_tensor({1, kChannels, kSide, kSide}, rng);
  std::vector<float> logits(static_cast<std::size_t>(shape.out_features));
  const std::string fault =
      "reason=\"injected fault at failpoint 'serve.replica_forward'\"";
  const auto wait_for = [](auto&& predicate) {
    for (int i = 0; i < 2000 && !predicate(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
  };

  {  // One forward fails: quarantine, then restore; siblings keep serving.
    serve::ServerOptions options;
    options.max_batch = 1;
    options.restore_backoff_us = 100;
    serve::BatchingServer server(options);
    std::vector<runtime::CompiledGraph> replicas;
    replicas.push_back(runtime::replicate(graph));
    replicas.push_back(runtime::replicate(graph));
    server.add_model("m", std::move(replicas));
    ::testing::internal::CaptureStderr();
    fail::arm("serve.replica_forward", fail::Policy::kOnce);
    server.start();
    const serve::ModelHandle handle = server.handle("m");
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(server.try_infer(handle, sample.data(), logits.data()),
                serve::ServeStatus::kOk);
    }
    EXPECT_TRUE(wait_for([&] { return server.stats("m").restores >= 1; }));
    server.stop();
    fail::disarm_all();
    const auto lines =
        lifecycle_lines(::testing::internal::GetCapturedStderr());
    ASSERT_EQ(lines.size(), 2u);
    const std::string worker = worker_of(lines[0]);
    ASSERT_FALSE(worker.empty()) << lines[0];
    EXPECT_EQ(lines[0],
              "event=quarantine model=m worker=" + worker + " " + fault);
    EXPECT_EQ(lines[1], "event=restore model=m worker=" + worker);
  }

  {  // The lone replica's forward and every rebuild fail: it dies.
    serve::ServerOptions options;
    options.max_batch = 1;
    options.restore_backoff_us = 100;
    options.restore_max_attempts = 2;
    serve::BatchingServer server(options);
    std::vector<runtime::CompiledGraph> replicas;
    replicas.push_back(runtime::replicate(graph));
    server.add_model("solo model", std::move(replicas));
    ::testing::internal::CaptureStderr();
    fail::arm("serve.replica_forward", fail::Policy::kOnce);
    fail::arm("serve.restore", fail::Policy::kEveryN, 1);
    server.start();
    EXPECT_EQ(server.try_infer(server.handle("solo model"), sample.data(),
                               logits.data()),
              serve::ServeStatus::kShardFailed);
    EXPECT_TRUE(
        wait_for([&] { return server.stats("solo model").replicas_dead; }));
    server.stop();
    fail::disarm_all();
    const auto lines =
        lifecycle_lines(::testing::internal::GetCapturedStderr());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "event=quarantine model=\"solo model\" worker=0 " +
                            fault);
    EXPECT_EQ(lines[1],
              "event=replica_death model=\"solo model\" worker=0 "
              "restore_attempts=2");
  }
}

#endif  // CSQ_FAILPOINTS_ENABLED

}  // namespace
}  // namespace csq
