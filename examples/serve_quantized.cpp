// Serving path: Model -> lower() -> persisted artifact ->
// serve::BatchingServer.
//
// Builds a finalized CSQ ResNet-20, lowers and calibrates it, persists the
// compiled graph to a v3 "CSQM" artifact (runtime/graph_artifact.h) and
// then DESTROYS the float model — everything from here on is the serving
// process: artifact-loaded int8 replicas behind a request-batching server,
// driven by concurrent producer threads. Prints the artifact size, the
// bit-identity of loaded-vs-direct forwards, the integer kernel ISA
// ("amx", "avx2" or "portable"), per-request correctness under
// concurrency and the throughput/batching statistics.
//
// The second half re-serves the artifact CROSS-PROCESS: the parent loads
// it again (load_graph), exposes it over the loopback transport
// (serve/transport.h) and forks two client processes
// (`--client <port> <fixture>`) that each drive it over TCP, checking
// every response bit-for-bit against the in-process forwards the parent
// wrote into the fixture file.
//
//   $ ./examples/serve_quantized            # parent: server + forked clients
//   $ ./examples/serve_quantized --client <port> <fixture>   # internal
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "core/csq_weight.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "runtime/compiled_graph.h"
#include "runtime/graph_artifact.h"
#include "serve/batching_server.h"
#include "serve/transport.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"

namespace {

// Fixture the parent hands each client process: the request samples plus
// the parent's own in-process forwards as the bit-identity oracle.
//   u32 n_samples | u32 sample_numel | u32 out_features
//   f32 samples[n * sample_numel] | f32 expected[n * out_features]
bool write_client_fixture(const std::string& path, const csq::Tensor& samples,
                          const std::vector<csq::Tensor>& expected,
                          std::int64_t sample_numel,
                          std::int64_t out_features) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::uint32_t header[3] = {
      static_cast<std::uint32_t>(expected.size()),
      static_cast<std::uint32_t>(sample_numel),
      static_cast<std::uint32_t>(out_features)};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(samples.data()),
            static_cast<std::streamsize>(samples.numel() * sizeof(float)));
  for (const csq::Tensor& logits : expected) {
    out.write(reinterpret_cast<const char*>(logits.data()),
              static_cast<std::streamsize>(logits.numel() * sizeof(float)));
  }
  return out.good();
}

// Client-process mode: drive the parent's loopback transport and verify
// every response against the fixture oracle. Exit 0 = all bit-identical.
int run_client(std::uint16_t port, const std::string& fixture_path) {
  std::ifstream in(fixture_path, std::ios::binary);
  if (!in) return 2;
  std::uint32_t header[3] = {0, 0, 0};
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  const std::uint32_t n = header[0], sample_numel = header[1],
                      out_features = header[2];
  std::vector<float> samples(static_cast<std::size_t>(n) * sample_numel);
  std::vector<float> expected(static_cast<std::size_t>(n) * out_features);
  in.read(reinterpret_cast<char*>(samples.data()),
          static_cast<std::streamsize>(samples.size() * sizeof(float)));
  in.read(reinterpret_cast<char*>(expected.data()),
          static_cast<std::streamsize>(expected.size() * sizeof(float)));
  if (!in.good()) return 2;

  csq::serve::TransportClient client(port);
  if (!client.connected()) return 3;
  std::vector<float> logits;
  for (std::uint32_t round = 0; round < 4; ++round) {
    for (std::uint32_t s = 0; s < n; ++s) {
      const csq::serve::WireStatus status =
          client.infer("resnet20", samples.data() + s * sample_numel,
                       sample_numel, logits);
      if (status != csq::serve::WireStatus::kOk) return 4;
      if (logits.size() != out_features ||
          std::memcmp(logits.data(), expected.data() + s * out_features,
                      out_features * sizeof(float)) != 0) {
        return 5;
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csq;
  set_log_level(LogLevel::warn);

  if (argc == 4 && std::strcmp(argv[1], "--client") == 0) {
    return run_client(static_cast<std::uint16_t>(std::atoi(argv[2])),
                      argv[3]);
  }

  const std::int64_t side = 16;
  const std::string artifact_path = "resnet20_int8.csqm";

  // ---- build + lower + persist (the "training process") ------------------
  Tensor probe;        // one batch kept around to verify bit-identity
  Tensor direct_logits;
  {
    Rng rng(7);
    std::vector<CsqWeightSource*> sources;
    ModelConfig model_config;
    model_config.base_width = 16;
    CsqWeightOptions weight_options;
    weight_options.fixed_precision = 3;  // the paper's deployment regime
    Model model = make_resnet20(
        model_config, csq_weight_factory(&sources, weight_options), nullptr,
        rng);
    for (CsqWeightSource* source : sources) source->finalize();

    runtime::LowerOptions options;
    options.in_height = side;
    options.in_width = side;
    runtime::CompiledGraph graph = runtime::lower(model, options);

    Rng data_rng(21);
    Tensor calib = Tensor::uninitialized({16, 3, side, side});
    for (std::int64_t i = 0; i < calib.numel(); ++i) {
      calib[i] = data_rng.uniform(-1.0f, 1.0f);
    }
    graph.calibrate(calib);

    probe = Tensor::uninitialized({4, 3, side, side});
    for (std::int64_t i = 0; i < probe.numel(); ++i) {
      probe[i] = data_rng.uniform(-1.0f, 1.0f);
    }
    direct_logits = graph.forward(probe);

    if (!runtime::save_graph(artifact_path, graph)) {
      std::cerr << "could not write " << artifact_path << "\n";
      return 1;
    }
    std::ifstream artifact(artifact_path,
                           std::ios::binary | std::ios::ate);
    std::cout << "saved " << artifact_path << " ("
              << artifact.tellg() / 1024.0 << " KiB, float weights would be "
              << model.total_weight_count() * 4 / 1024.0 << " KiB)\n";
  }  // <- model and original graph destroyed: serving starts cold

  // ---- serve from the artifact (the "serving process") -------------------
  runtime::CompiledGraph loaded = runtime::load_graph(artifact_path);
  const Tensor loaded_logits = loaded.forward(probe);
  bool identical = loaded_logits.same_shape(direct_logits);
  for (std::int64_t i = 0; identical && i < loaded_logits.numel(); ++i) {
    identical = loaded_logits[i] == direct_logits[i];
  }
  std::cout << "loaded graph forward vs direct lowering: "
            << (identical ? "bit-identical" : "MISMATCH!") << "\n";
  std::cout << "integer GEMM kernels: " << gemm_int_isa_summary() << "\n\n";

  serve::ServerOptions server_options;
  server_options.max_batch = 16;
  serve::BatchingServer server(server_options);
  server.add_model_from_artifact("resnet20", artifact_path, /*replicas=*/2);
  server.start();

  const auto shape = server.model_shape("resnet20");
  const std::int64_t sample_numel = shape.channels * shape.height * shape.width;

  // Distinct samples with precomputed single-sample reference logits.
  constexpr int kSamples = 8;
  Rng sample_rng(33);
  Tensor samples = Tensor::uninitialized(
      {kSamples, shape.channels, shape.height, shape.width});
  for (std::int64_t i = 0; i < samples.numel(); ++i) {
    samples[i] = sample_rng.uniform(-1.0f, 1.0f);
  }
  std::vector<Tensor> expected;
  for (int s = 0; s < kSamples; ++s) {
    Tensor one =
        Tensor::uninitialized({1, shape.channels, shape.height, shape.width});
    std::memcpy(one.data(), samples.data() + s * sample_numel,
                static_cast<std::size_t>(sample_numel) * sizeof(float));
    expected.push_back(loaded.forward(one));
  }

  constexpr int kProducers = 4;
  constexpr int kRequestsEach = 200;
  std::atomic<std::uint64_t> mismatches{0};
  const serve::ModelHandle handle = server.handle("resnet20");
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<float> logits(
          static_cast<std::size_t>(shape.out_features));
      for (int i = 0; i < kRequestsEach; ++i) {
        const int s = (p * 13 + i) % kSamples;
        server.infer(handle, samples.data() + s * sample_numel,
                     logits.data());
        if (std::memcmp(logits.data(),
                        expected[static_cast<std::size_t>(s)].data(),
                        logits.size() * sizeof(float)) != 0) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto stats = server.stats("resnet20");
  std::cout << "served " << stats.requests << " requests from " << kProducers
            << " producers in " << seconds << " s ("
            << static_cast<double>(stats.requests) / seconds << " req/s)\n";
  std::cout << "batches: " << stats.batches << " (mean batch "
            << static_cast<double>(stats.requests) /
                   static_cast<double>(stats.batches)
            << ", max " << stats.max_batch_observed << ", full flushes "
            << stats.full_flushes << ")\n";
  std::cout << "per-request bit-identity vs single-sample forwards: "
            << (mismatches.load() == 0 ? "all identical" : "MISMATCHES!")
            << "\n\n";

  // ---- failure semantics --------------------------------------------------
  // The typed request path: try_infer never throws — deadlines, shard
  // failure and shutdown come back as ServeStatus values
  // (see the README "Failure semantics" section). A generous deadline on a
  // healthy server completes normally...
  std::vector<float> logits(static_cast<std::size_t>(shape.out_features));
  const serve::ServeStatus deadline_status = server.try_infer(
      handle, samples.data(), logits.data(), /*deadline_us=*/100'000);
  std::cout << "try_infer with a 100 ms deadline: "
            << serve::serve_status_name(deadline_status) << "\n";

  // ... and after stop() the same handle degrades to a typed rejection
  // instead of blocking (a handle outliving the server itself would too).
  server.stop();
  const serve::ServeStatus late_status =
      server.try_infer(handle, samples.data(), logits.data());
  std::cout << "try_infer after stop(): "
            << serve::serve_status_name(late_status) << "\n";
  const auto final_stats = server.stats("resnet20");
  std::cout << "failure counters: rejected " << final_stats.rejected
            << ", timed out " << final_stats.timed_out << ", quarantines "
            << final_stats.quarantines << ", restores "
            << final_stats.restores << "\n";

  // ---- cross-process serving ---------------------------------------------
  // Re-serve the SAME artifact over the loopback transport, with two
  // replicas loaded from it (the second shares the first's program). Two
  // forked client processes each drive the server over TCP and verify
  // every response bit-for-bit against the parent's in-process forwards
  // (shipped to them in a fixture file).
  serve::BatchingServer wire_server;
  {
    std::vector<runtime::CompiledGraph> wire_replicas;
    wire_replicas.push_back(
        runtime::load_graph(artifact_path, /*pooled=*/false));
    wire_replicas.push_back(runtime::replicate(wire_replicas.front()));
    wire_server.add_model("resnet20", std::move(wire_replicas));
  }
  wire_server.start();
  serve::ServeTransport transport(wire_server);
  transport.start();

  const std::string fixture_path = "serve_client_fixture.bin";
  bool clients_ok =
      write_client_fixture(fixture_path, samples, expected, sample_numel,
                           shape.out_features);
  int client_failures = 0;
  if (clients_ok) {
    const std::string port_arg = std::to_string(transport.port());
    std::vector<pid_t> children;
    for (int c = 0; c < 2; ++c) {
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::execl("/proc/self/exe", "serve_quantized", "--client",
                port_arg.c_str(), fixture_path.c_str(),
                static_cast<char*>(nullptr));
        ::_exit(127);  // exec failed
      }
      if (pid > 0) children.push_back(pid);
    }
    clients_ok = children.size() == 2;
    for (const pid_t pid : children) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++client_failures;
    }
  }
  clients_ok = clients_ok && client_failures == 0;
  const auto wire_stats = transport.stats();
  std::cout << "\ncross-process: 2 forked clients drove "
            << wire_stats.responses
            << " requests over loopback against artifact-loaded replicas: "
            << (clients_ok ? "all bit-identical" : "FAILURES!") << "\n";
  transport.stop();
  wire_server.stop();
  std::remove(fixture_path.c_str());

  std::remove(artifact_path.c_str());
  return mismatches.load() == 0 && identical && clients_ok &&
                 deadline_status == serve::ServeStatus::kOk &&
                 late_status == serve::ServeStatus::kShuttingDown
             ? 0
             : 1;
}
