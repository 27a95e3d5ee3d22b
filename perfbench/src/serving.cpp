// Workloads `serve` and `batch`: one seeded CSQ-like scheme on ResNet-20,
// width 16 (conv1 and fc at 8 bits, interior layers at 2, 3 or 4 bits with
// mean 3), finalized, lowered, calibrated and saved as a v5 artifact before
// anything is timed. Every response is compared bit for bit with a
// single-sample CompiledGraph::forward oracle on the same artifact, computed
// before timing.
//
// `serve` — the artifact loaded into 2 serial replicas behind a
// BatchingServer with default ServerOptions and a ServeTransport with
// default TransportOptions, driven by 2 closed-loop TransportClient
// connections (callers that each wait for their reply, then pause a seeded
// think time) that start at seeded offsets. A run sends a fixed number of
// requests.
// Why: it is the per-request path — frame decode, dispatch, ring admission,
// flush-timer batching and batch-1/2 forwards on every int kernel family
// (bitserial, bitserial-w16, s8u8, the split 8-bit planes). The flush
// policy dominates it today, so batching and transport changes show here.
//
// `batch` — the same artifact served offline: CompiledGraph::forward at
// batch 32, pooled over 2 threads, no server and no wire. A run takes a
// fixed number of batches.
// Why: the same runtime layer used differently — large-N int GEMMs with the
// pool's row split and no queueing. A serving-path change that costs batched
// throughput shows here, and so does a kernel gain that the wire overhead
// would hide in `serve`.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "core/csq_weight.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "runtime/compiled_graph.h"
#include "runtime/graph_artifact.h"
#include "runtime/packed_weights.h"
#include "serve/batching_server.h"
#include "serve/transport.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace csq;

constexpr std::int64_t kSide = 16;
constexpr std::int64_t kWidth = 16;
constexpr std::int64_t kChannels = 3;
constexpr int kSamplePool = 128;
constexpr char kModelId[] = "csq";
constexpr int kReplicas = 2;
constexpr int kClients = 2;
constexpr std::int64_t kBatchRows = 32;
constexpr int kInputBatches = 4;
constexpr int kSetupRepeats = 11;
constexpr int kReplayRepeats = 9;
// Work per --seconds, sized so the timed region runs about that long on a
// 4-vCPU x86-64 host. Counts depend only on --seconds, so every run of one
// configuration does the same work.
constexpr double kRequestsPerSecond = 550.0;  // all clients together
// Think times are uniform in [0, kMaxThinkUs) (see ClientPlan).
constexpr std::uint32_t kMaxThinkUs = 3000;
constexpr double kBatchesPerSecond = 55.0;

// ------------------------------------------------------------- artifact ---

struct Artifact {
  std::string path;
  std::int64_t sample_numel = kChannels * kSide * kSide;
  std::int64_t classes = 0;
  std::vector<float> samples;  // kSamplePool x sample_numel
  std::vector<float> oracle;   // kSamplePool x classes
  std::vector<LayerShape> shapes;

  const float* sample(int i) const {
    return samples.data() + static_cast<std::int64_t>(i) * sample_numel;
  }
  const float* expected(int i) const {
    return oracle.data() + static_cast<std::int64_t>(i) * classes;
  }
  bool matches(int i, const float* logits) const {
    return std::memcmp(expected(i), logits,
                       static_cast<std::size_t>(classes) * sizeof(float)) == 0;
  }
};

// The seeded CSQ-like scheme. conv1 and fc keep 8 bits, as CSQ's grown
// schemes do. Each stage's six 3x3 convs take a seeded shuffle of
// {2,2,3,3,4,4}: the seed moves precision between layers while every seed
// keeps the same kernel mix and close to the same cost, so seed-to-seed
// spread stays small. The two 1x1 downsample convs take a seeded shuffle
// of {2,4}, so one of them always lowers to bitserial-w16 (only 1x1 convs
// are shallow enough for int16 accumulators).
WeightSourceFactory scheme_factory(std::vector<CsqWeightSource*>* registry,
                                   std::uint64_t seed,
                                   std::vector<std::string>* scheme) {
  // Pools 0-2: the 3x3 convs of each stage; pool 3: the downsample convs.
  auto pools = std::make_shared<std::vector<std::vector<int>>>();
  Rng rng(seed);
  for (int pool = 0; pool < 4; ++pool) {
    std::vector<int> bits = pool < 3 ? std::vector<int>{2, 2, 3, 3, 4, 4}
                                     : std::vector<int>{2, 4};
    rng.shuffle(bits);
    pools->push_back(bits);
  }
  return [registry, pools, scheme](
             const std::string& name, std::vector<std::int64_t> shape,
             std::int64_t fan_in, Rng& init_rng) -> WeightSourcePtr {
    int bits = 8;
    if (name != "conv1" && shape.size() == 4) {
      const std::int64_t ratio = shape[0] / kWidth;  // 1, 2 or 4
      const int pool_index =
          shape[2] == 1 ? 3 : ratio == 1 ? 0 : ratio == 2 ? 1 : 2;
      std::vector<int>& pool = (*pools)[static_cast<std::size_t>(pool_index)];
      if (pool.empty()) {
        throw std::runtime_error("scheme: more layers than bits");
      }
      bits = pool.back();
      pool.pop_back();
    }
    scheme->push_back(name + ":" + std::to_string(bits));
    CsqWeightOptions options;
    options.fixed_precision = bits;
    auto source = std::make_unique<CsqWeightSource>(name, std::move(shape),
                                                    fan_in, options, init_rng);
    registry->push_back(source.get());
    return source;
  };
}

// Kernel family of a lowered layer; full-span 8-bit layers run the split
// hi/lo planes on the s8u8 path and are counted apart.
std::string kernel_label(const runtime::CompiledGraph::LayerInfo& layer) {
  return layer.split ? "s8u8-split" : layer.kernel;
}

// The kernel families every seeded scheme lowers to (checked per run), so
// each run reports the same per-layer metric names.
const std::vector<std::string>& kernel_families() {
  static const std::vector<std::string> families = {
      "s8u8-split", "s8u8", "bitserial", "bitserial-w16"};
  return families;
}

// Builds the inputs: dataset, scheme, lowered + calibrated artifact and the
// oracle. Benchmark work, never timed.
Artifact build_artifact(const Options& options, const std::string& name,
                        Report& report) {
  SyntheticConfig data_config = SyntheticConfig::cifar_like();
  data_config.seed = options.seed * 7919 + 11;
  data_config.train_samples = 64;  // calibration
  data_config.test_samples = kSamplePool;
  const SyntheticDataset data = make_synthetic(data_config);

  std::vector<CsqWeightSource*> registry;
  std::vector<std::string> scheme;
  Rng init_rng(options.seed * 7919 + 12);
  ModelConfig model_config;
  model_config.base_width = kWidth;
  Model model = make_resnet20(
      model_config,
      scheme_factory(&registry, options.seed * 7919 + 13, &scheme), nullptr,
      init_rng);
  for (CsqWeightSource* source : registry) source->finalize();

  runtime::LowerOptions lower_options;
  lower_options.in_channels = kChannels;
  lower_options.in_height = kSide;
  lower_options.in_width = kSide;
  runtime::CompiledGraph graph = runtime::lower(model, lower_options);
  graph.calibrate(data.train.images());

  Artifact artifact;
  artifact.path = options.work_dir + "/" + name + "-" +
                  std::to_string(options.seed) + ".csqm";
  if (!runtime::save_graph(artifact.path, graph)) {
    throw std::runtime_error("could not write " + artifact.path);
  }
  artifact.shapes = resnet_layer_shapes(model, kSide, kWidth);

  std::ostringstream line;
  line << "scheme";
  for (const std::string& entry : scheme) line << " " << entry;
  line << "\nkernels";
  std::map<std::string, int> histogram;
  for (const auto& layer : graph.layers()) {
    line << " " << layer.name << ":" << kernel_label(layer);
    ++histogram[kernel_label(layer)];
  }
  report.note(line.str());
  for (const std::string& family : kernel_families()) {
    if (histogram[family] == 0) {
      throw std::runtime_error("scheme lowered without a " + family +
                               " layer");
    }
  }

  // Oracle: single-sample forwards of a graph loaded from the artifact.
  runtime::CompiledGraph oracle = runtime::load_graph(artifact.path, false);
  artifact.classes = oracle.io_shape().out_features;
  const Tensor& images = data.test.images();
  artifact.samples.assign(images.data(),
                          images.data() + kSamplePool * artifact.sample_numel);
  for (int i = 0; i < kSamplePool; ++i) {
    Tensor input({1, kChannels, kSide, kSide});
    std::memcpy(input.data(), artifact.sample(i),
                static_cast<std::size_t>(artifact.sample_numel) *
                    sizeof(float));
    const Tensor logits = oracle.forward(input);
    artifact.oracle.insert(artifact.oracle.end(), logits.data(),
                           logits.data() + artifact.classes);
  }
  return artifact;
}

// ------------------------------------------------------ runtime replays ---

struct LayerReplay {
  std::map<std::string, double> gemm_us;  // per kernel family
  std::map<std::string, int> layers;      // kernel histogram
  double im2col_us = 0.0;
  double ops = 0.0;
};

// PackedIntWeights::gemm and im2col_u8 replayed per layer on the shapes a
// `batch`-row forward runs, parallelized as CompiledGraph does it: batches
// above kParallelForSerialThreshold split samples over the pool, smaller
// ones run each sample's GEMM pooled (when the graph is).
LayerReplay replay_layers(runtime::CompiledGraph& graph,
                          const std::vector<LayerShape>& shapes,
                          std::int64_t batch, bool pooled, Rng& rng) {
  std::map<std::string, const LayerShape*> by_name;
  for (const LayerShape& shape : shapes) by_name[shape.name] = &shape;
  const bool sample_parallel = pooled && batch > kParallelForSerialThreshold;
  const bool gemm_pooled = pooled && !sample_parallel;
  const auto for_samples = [&](const auto& body) {
    if (sample_parallel) {
      parallel_for(0, batch, body);
    } else {
      for (std::int64_t b = 0; b < batch; ++b) body(b);
    }
  };
  const auto random_bytes = [&rng](std::int64_t n) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n));
    for (std::uint8_t& x : bytes) {
      x = static_cast<std::uint8_t>(rng.uniform_int(256));
    }
    return bytes;
  };

  LayerReplay replay;
  const auto& infos = graph.layers();
  const auto& weights = graph.layer_weight_views();
  const std::int64_t slots = pool_slot_count();
  for (std::size_t i = 0; i < infos.size(); ++i) {
    const auto found = by_name.find(infos[i].name);
    if (found == by_name.end()) {
      throw std::runtime_error("no shape for layer " + infos[i].name);
    }
    const LayerShape& shape = *found->second;
    const runtime::PackedIntWeights& w = *weights[i];
    const std::string label = kernel_label(infos[i]);
    ++replay.layers[label];
    double gemm_us = 0.0;
    if (shape.conv) {
      const ConvGeometry& geom = shape.geometry;
      const std::int64_t k = geom.col_rows(), p = geom.col_cols();
      const std::vector<std::uint8_t> col = random_bytes(k * p);
      std::vector<std::int32_t> acc(
          static_cast<std::size_t>(slots * w.rows() * p));
      gemm_us = 1e3 * median_ms(kReplayRepeats, [&] {
        for_samples([&](std::int64_t) {
          w.gemm(Trans::no, p, col.data(), p,
                 acc.data() + pool_slot() * w.rows() * p, p, gemm_pooled);
        });
      });
      replay.ops += 2.0 * static_cast<double>(w.rows() * k * p * batch);
      const bool direct = geom.kernel_h == 1 && geom.kernel_w == 1 &&
                          geom.stride == 1 && geom.pad == 0;
      if (!direct) {
        const std::vector<std::uint8_t> image =
            random_bytes(geom.channels * geom.height * geom.width);
        std::vector<std::uint8_t> stripes(
            static_cast<std::size_t>(slots * k * p));
        replay.im2col_us += 1e3 * median_ms(kReplayRepeats, [&] {
          for_samples([&](std::int64_t) {
            im2col_u8(geom, image.data(),
                      stripes.data() + pool_slot() * k * p, 0);
          });
        });
      }
    } else {
      const std::int64_t in = shape.in_features;
      const std::vector<std::uint8_t> x = random_bytes(batch * in);
      std::vector<std::int32_t> acc(static_cast<std::size_t>(w.rows() * batch));
      gemm_us = 1e3 * median_ms(kReplayRepeats, [&] {
        w.gemm(Trans::yes, batch, x.data(), in, acc.data(), batch, pooled);
      });
      replay.ops += 2.0 * static_cast<double>(w.rows() * in * batch);
    }
    replay.gemm_us[label] += gemm_us;
  }
  return replay;
}

Tensor gather_batch(const Artifact& artifact, const std::vector<int>& rows) {
  Tensor batch({static_cast<std::int64_t>(rows.size()), kChannels, kSide,
                kSide});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::memcpy(batch.data() + static_cast<std::int64_t>(r) *
                                   artifact.sample_numel,
                artifact.sample(rows[r]),
                static_cast<std::size_t>(artifact.sample_numel) *
                    sizeof(float));
  }
  return batch;
}

// Median forward time (µs) at `batch` rows.
double forward_us(runtime::CompiledGraph& graph, const Artifact& artifact,
                  std::int64_t batch) {
  std::vector<int> rows;
  for (int r = 0; r < batch; ++r) rows.push_back(r);
  const Tensor input = gather_batch(artifact, rows);
  return 1e3 * median_ms(kReplayRepeats, [&] { graph.forward(input); });
}

void report_layers(Report& report, const LayerReplay& replay,
                   const std::string& suffix) {
  for (const std::string& family : kernel_families()) {
    report.add("runtime.gemm_us." + family + "." + suffix,
               replay.gemm_us.at(family), "us");
  }
}

void report_histogram(Report& report, const LayerReplay& replay) {
  for (const std::string& family : kernel_families()) {
    report.add("runtime.layers." + family, replay.layers.at(family), "count");
  }
}

// ---------------------------------------------------------------- serve ---

// What each closed-loop client sends: a seeded start offset, a seeded
// sequence of sample indices and a seeded think time after each reply,
// different for every client. Without think times two closed-loop clients
// lock into one of two self-sustaining phases (both requests in one
// flush-timer batch, or each alone on its own replica) and a run's latency
// depends on which phase noise left it in; random think times keep the
// clients' phases independent, so every run sees the same mix.
struct ClientPlan {
  std::int64_t offset_us = 0;
  std::vector<int> samples;
  std::vector<std::int64_t> think_us;
};

struct ClientResult {
  std::vector<double> latency_us;
  std::int64_t failed = 0;
  std::string first_failure;
};

struct PhaseResult {
  std::vector<double> latency_us;
  double wall_s = 0.0;
  std::int64_t ok = 0;
};

// Runs every client on its own thread; `call` performs one request and
// returns an empty string on success or the reason it failed.
template <typename Call>
PhaseResult run_clients(const std::vector<ClientPlan>& plans,
                        const Call& call, Report& report,
                        std::int64_t trace_base) {
  std::mutex mutex;
  std::condition_variable cv;
  int ready = 0;
  bool go = false;
  std::vector<ClientResult> results(plans.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < plans.size(); ++c) {
    threads.emplace_back([&, c] {
      auto session = call.connect();
      {
        std::unique_lock<std::mutex> lock(mutex);
        ++ready;
        cv.notify_all();
        cv.wait(lock, [&] { return go; });
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(plans[c].offset_us));
      ClientResult& result = results[c];
      result.latency_us.reserve(plans[c].samples.size());
      std::int64_t request =
          trace_base + static_cast<std::int64_t>(c) * 1000000;
      for (std::size_t i = 0; i < plans[c].samples.size(); ++i) {
        {
          ScopedSpan span("serve.request", request++);
          const auto start = Clock::now();
          const std::string failure = call.infer(session, plans[c].samples[i]);
          result.latency_us.push_back(seconds_since(start) * 1e6);
          if (!failure.empty()) {
            if (result.failed++ == 0) result.first_failure = failure;
          }
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(plans[c].think_us[i]));
      }
    });
  }
  Clock::time_point start;
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return ready == static_cast<int>(plans.size()); });
    start = Clock::now();
    go = true;
  }
  cv.notify_all();
  for (std::thread& thread : threads) thread.join();

  PhaseResult phase;
  phase.wall_s = seconds_since(start);
  for (const ClientResult& result : results) {
    phase.latency_us.insert(phase.latency_us.end(), result.latency_us.begin(),
                            result.latency_us.end());
    const auto attempted = static_cast<std::int64_t>(result.latency_us.size());
    report.attempt(attempted);
    phase.ok += attempted - result.failed;
    if (result.failed > 0) report.fail(result.first_failure, result.failed);
  }
  return phase;
}

// One wire request per call: kOk and logits bit-identical to the oracle.
struct WireCall {
  const Artifact& artifact;
  std::uint16_t port;

  std::unique_ptr<serve::TransportClient> connect() const {
    return std::make_unique<serve::TransportClient>(port);
  }
  std::string infer(std::unique_ptr<serve::TransportClient>& client,
                    int sample) const {
    if (!client->connected()) return "client could not connect";
    thread_local std::vector<float> logits;
    serve::WireStatus status;
    {
      ScopedSpan span("transport.infer");
      status = client->infer(kModelId, artifact.sample(sample),
                             static_cast<std::size_t>(artifact.sample_numel),
                             logits);
    }
    ScopedSpan span("client.check");
    if (status != serve::WireStatus::kOk) {
      return std::string("wire status ") + serve::wire_status_name(status);
    }
    if (static_cast<std::int64_t>(logits.size()) != artifact.classes ||
        !artifact.matches(sample, logits.data())) {
      return "wire logits differ from the single-sample oracle";
    }
    return {};
  }
};

// The same closed loop without the wire: BatchingServer::try_infer.
struct InProcessCall {
  const Artifact& artifact;
  serve::BatchingServer& server;
  serve::ModelHandle handle;

  int connect() const { return 0; }
  std::string infer(int&, int sample) const {
    thread_local std::vector<float> logits;
    logits.resize(static_cast<std::size_t>(artifact.classes));
    const serve::ServeStatus status =
        server.try_infer(handle, artifact.sample(sample), logits.data());
    if (status != serve::ServeStatus::kOk) {
      return std::string("serve status ") + serve::serve_status_name(status);
    }
    if (!artifact.matches(sample, logits.data())) {
      return "in-process logits differ from the single-sample oracle";
    }
    return {};
  }
};

std::vector<ClientPlan> make_plans(std::uint64_t seed, int per_client) {
  Rng rng(seed * 7919 + 21);
  std::vector<ClientPlan> plans(kClients);
  for (ClientPlan& plan : plans) {
    // Offsets within one forward's worth of time keep the clients off a
    // shared schedule without idling the server.
    plan.offset_us = static_cast<std::int64_t>(rng.uniform_int(1000));
    plan.samples.resize(static_cast<std::size_t>(per_client));
    for (int& sample : plan.samples) {
      sample = static_cast<int>(rng.uniform_int(kSamplePool));
    }
    plan.think_us.resize(static_cast<std::size_t>(per_client));
    for (std::int64_t& think : plan.think_us) {
      think = static_cast<std::int64_t>(rng.uniform_int(kMaxThinkUs));
    }
  }
  return plans;
}

void note_latency(Report& report, const char* label,
                  const PhaseResult& phase) {
  std::ostringstream line;
  line << label << " requests " << phase.latency_us.size() << " ok "
       << phase.ok << " wall_s " << phase.wall_s << " p10_us "
       << percentile(phase.latency_us, 10) << " p25_us "
       << percentile(phase.latency_us, 25) << " p50_us "
       << percentile(phase.latency_us, 50) << " p90_us "
       << percentile(phase.latency_us, 90) << " p99_us "
       << percentile(phase.latency_us, 99);
  report.note(line.str());
}

}  // namespace

void run_serve(const Options& options, Report& report) {
  const Artifact artifact = build_artifact(options, "serve", report);
  const int per_client = std::max(
      50, static_cast<int>(std::lround(options.seconds * kRequestsPerSecond /
                                       kClients)));
  const std::vector<ClientPlan> plans = make_plans(options.seed, per_client);

  // Set-up: artifact load into the replicas, start() warm-up and the
  // transport listen. Repeated; the median is reported.
  std::vector<double> setup_s;
  std::unique_ptr<serve::BatchingServer> server;
  std::unique_ptr<serve::ServeTransport> transport;
  const int setup_repeats = options.layers_only ? 1 : kSetupRepeats;
  for (int r = 0; r < setup_repeats; ++r) {
    transport.reset();
    server.reset();
    const auto start = Clock::now();
    server = std::make_unique<serve::BatchingServer>(serve::ServerOptions{});
    server->add_model_from_artifact(kModelId, artifact.path, kReplicas);
    server->start();
    transport = std::make_unique<serve::ServeTransport>(
        *server, serve::TransportOptions{});
    transport->start();
    setup_s.push_back(seconds_since(start));
  }

  const WireCall wire{artifact, transport->port()};
  const serve::BatchingServer::ShardStats before = server->stats(kModelId);
  report.begin_timed();
  const PhaseResult timed = run_clients(plans, wire, report, 0);
  report.end_timed();
  const serve::BatchingServer::ShardStats after = server->stats(kModelId);
  const double rss_mib = peak_rss_mib();
  note_latency(report, "serve wire", timed);
  const double p25_us = percentile(timed.latency_us, 25);
  const double p50_us = percentile(timed.latency_us, 50);
  const double rps = static_cast<double>(timed.ok) / timed.wall_s;
  {
    std::ostringstream line;
    line << "serve_p50_us " << p50_us << " serve_rps " << rps;
    report.note(line.str());
  }

  // The gated operation time is the lower quartile of the requests' round
  // trips. On a shared VM, hypervisor steal stalls a varying share of
  // requests at every wake-up along the path (flush timer, dispatch, socket
  // reads), which moved the median by up to 35% between runs of identical
  // code while the lower quartile moved by under 10%. The median and
  // throughput stay reported as traced-run diagnostics.
  if (!options.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mib", rss_mib, "MiB");
    report.add("op_p25_us", p25_us, "us");
    return;
  }
  report.add("serve_p50_us", p50_us, "us");
  report.add("serve_rps", rps, "1/s");

  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);
  const PhaseResult traced = run_clients(plans, wire, report, 1 << 30);
  tracer.set_enabled(false);
  note_latency(report, "serve wire traced", traced);
  if (!options.layers_only) {
    report.add("trace.overhead_pct",
               100.0 * (percentile(traced.latency_us, 25) / p25_us - 1.0),
               "%");
  }

  const InProcessCall in_process{artifact, *server, server->handle(kModelId)};
  const PhaseResult local = run_clients(plans, in_process, report, 0);
  note_latency(report, "serve in-process", local);
  const double inproc_p50_us = percentile(local.latency_us, 50);
  const serve::ServeTransport::Stats wire_stats = transport->stats();
  transport->stop();
  server->stop();

  const double requests = static_cast<double>(after.requests - before.requests);
  const double batches = static_cast<double>(after.batches - before.batches);
  report.add("serve.inproc_p50_us", inproc_p50_us, "us");
  report.add("serve.mean_batch", requests / batches, "requests");
  report.add("serve.timer_flush_share",
             static_cast<double>(after.timer_flushes - before.timer_flushes) /
                 batches,
             "ratio");
  report.add("serve.flush_wait_p99_us",
             static_cast<double>(after.flush_wait_p99_us), "us");
  report.add("transport.overhead_us", p50_us - inproc_p50_us, "us");
  report.add("transport.transport_errors",
             static_cast<double>(wire_stats.transport_errors), "count");
  report.add("transport.bad_requests",
             static_cast<double>(wire_stats.bad_requests), "count");

  // Replica forwards and per-layer GEMMs as the serial replicas run them.
  runtime::CompiledGraph graph = runtime::load_graph(artifact.path, false);
  graph.prepare(2);
  const double b1_us = forward_us(graph, artifact, 1);
  const double b2_us = forward_us(graph, artifact, 2);
  report.add("runtime.forward_us.b1", b1_us, "us");
  report.add("runtime.forward_us.b2", b2_us, "us");
  // Two closed-loop clients flush batches of 1 or 2, so the batch-size
  // split follows from the request and batch counts.
  if (after.max_batch_observed > 2) {
    report.incorrect("a batch larger than the client count was flushed");
  }
  const double pairs = requests - batches;
  const double singles = batches - pairs;
  report.add("serve.replica_busy_share",
             (singles * b1_us + pairs * b2_us) * 1e-6 /
                 (timed.wall_s * kReplicas),
             "ratio");
  Rng rng(options.seed * 7919 + 22);
  const LayerReplay layers = replay_layers(graph, artifact.shapes, 1,
                                           /*pooled=*/false, rng);
  report_layers(report, layers, "b1");
  report_histogram(report, layers);
}

// ---------------------------------------------------------------- batch ---

void run_batch(const Options& options, Report& report) {
  const Artifact artifact = build_artifact(options, "batch", report);
  const int batches = std::max(
      8, static_cast<int>(std::lround(options.seconds * kBatchesPerSecond)));

  Rng rng(options.seed * 7919 + 31);
  std::vector<std::vector<int>> rows(kInputBatches);
  std::vector<Tensor> inputs;
  for (std::vector<int>& batch_rows : rows) {
    for (std::int64_t r = 0; r < kBatchRows; ++r) {
      batch_rows.push_back(static_cast<int>(rng.uniform_int(kSamplePool)));
    }
    inputs.push_back(gather_batch(artifact, batch_rows));
  }
  const auto check = [&](const Tensor& logits, int input) {
    report.attempt();
    for (std::int64_t r = 0; r < kBatchRows; ++r) {
      if (!artifact.matches(rows[static_cast<std::size_t>(input)]
                                [static_cast<std::size_t>(r)],
                            logits.data() + r * artifact.classes)) {
        report.fail("batched logits differ from the single-sample oracle");
        return;
      }
    }
  };

  // Set-up: load, prepare(32) and one forward. Repeated; median reported.
  std::vector<double> setup_s;
  std::unique_ptr<runtime::CompiledGraph> graph;
  const int setup_repeats = options.layers_only ? 1 : kSetupRepeats;
  for (int r = 0; r < setup_repeats; ++r) {
    graph.reset();
    const auto start = Clock::now();
    graph = std::make_unique<runtime::CompiledGraph>(
        runtime::load_graph(artifact.path, /*pooled=*/true));
    graph->prepare(kBatchRows);
    const Tensor logits = graph->forward(inputs[0]);
    setup_s.push_back(seconds_since(start));
    check(logits, 0);
  }

  const auto run_phase = [&](std::vector<double>& forward_ms) {
    for (int i = 0; i < batches; ++i) {
      const int input = i % kInputBatches;
      const auto start = Clock::now();
      Tensor logits;
      {
        ScopedSpan span("runtime.forward", i);
        logits = graph->forward(inputs[static_cast<std::size_t>(input)]);
      }
      forward_ms.push_back(seconds_since(start) * 1e3);
      check(logits, input);
    }
  };
  std::vector<double> forward_ms;
  report.begin_timed();
  const auto timed_start = Clock::now();
  run_phase(forward_ms);
  const double wall_s = seconds_since(timed_start);
  report.end_timed();
  const double rss_mib = peak_rss_mib();
  // The gated operation time is the lower quartile of the forward times,
  // as on `serve`: on a shared host a varying share of forwards waits on a
  // pool thread that the hypervisor has descheduled, which moves the median
  // between runs of identical code far more than the lower quartile.
  const double images_per_s = kBatchRows / (median(forward_ms) * 1e-3);
  {
    std::ostringstream line;
    line << "infer_images_per_s " << images_per_s << "\nbatch forwards "
         << batches << " wall_s " << wall_s
         << " mean_images_per_s " << kBatchRows * batches / wall_s
         << " forward_ms p10 " << percentile(forward_ms, 10) << " p25 "
         << percentile(forward_ms, 25) << " p50 "
         << percentile(forward_ms, 50) << " p90 "
         << percentile(forward_ms, 90);
    report.note(line.str());
  }

  if (!options.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mib", rss_mib, "MiB");
    report.add("op_p25_us", percentile(forward_ms, 25) * 1e3, "us");
    return;
  }

  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);
  std::vector<double> traced_ms;
  run_phase(traced_ms);
  tracer.set_enabled(false);
  if (!options.layers_only) {
    report.add("trace.overhead_pct",
               100.0 * (median(traced_ms) / median(forward_ms) - 1.0), "%");
  }
  const double b32_us = 1e3 * median(tracer.durations_ms("runtime.forward"));
  report.add("runtime.forward_us.b32", b32_us, "us");

  runtime::CompiledGraph serial = runtime::load_graph(artifact.path, false);
  serial.prepare(kBatchRows);
  report.add("runtime.pool_speedup.b32",
             forward_us(serial, artifact, kBatchRows) /
                 forward_us(*graph, artifact, kBatchRows),
             "ratio");

  const LayerReplay layers =
      replay_layers(*graph, artifact.shapes, kBatchRows, /*pooled=*/true, rng);
  report_layers(report, layers, "b32");
  double gemm_us = 0.0;
  for (const auto& [family, us] : layers.gemm_us) gemm_us += us;
  report.add("runtime.int_gops.b32", layers.ops / (gemm_us * 1e3), "GOP/s");
  report.add("tensor.im2col_u8_ms", layers.im2col_us * 1e-3, "ms");
  report.add("runtime.op_residual_share",
             (b32_us - gemm_us - layers.im2col_us) / b32_us, "ratio");
  // The kernel histogram is the artifact's, so `serve` reports it.
}

}  // namespace perfbench
