// Cross-process serving tests (`ctest -L serve_transport`, also swept by
// the sanitize/tsan presets):
//
//  * Transport.*    — the loopback TCP front of the batching server: wire
//    round trips bit-identical to in-process infer, concurrent clients,
//    malformed/oversized/bad-deadline frames, the client's status-byte
//    check, listener-first graceful drain, and the
//    transport.{accept,read,write} failpoints.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include <gtest/gtest.h>

#include "core/csq_weight.h"
#include "nn/models.h"
#include "runtime/compiled_graph.h"
#include "serve/batching_server.h"
#include "serve/transport.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/net.h"
#include "util/rng.h"

namespace csq {
namespace {

using testing::parked_worker_options;
using testing::random_tensor;

constexpr std::int64_t kSide = 12;
constexpr std::int64_t kChannels = 3;
constexpr std::int64_t kSampleNumel = kChannels * kSide * kSide;

// A small finalized 3-bit CSQ ResNet-20, lowered and calibrated (same
// substrate as serve_test.cpp).
runtime::CompiledGraph make_calibrated_graph() {
  Rng rng(9001);
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
  Rng calib_rng(9002);
  Tensor calib = random_tensor({8, kChannels, kSide, kSide}, calib_rng);
  graph.calibrate(calib);
  return graph;
}

void expect_bit_identical(const Tensor& expected, const float* actual,
                          const char* what) {
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << what << ": logit " << i;
  }
}

// Precomputed single-sample forwards: the oracle every wire response is
// compared against bit-for-bit.
std::vector<Tensor> single_sample_oracle(runtime::CompiledGraph& graph,
                                         const Tensor& samples) {
  const std::int64_t n = samples.shape()[0];
  std::vector<Tensor> expected;
  expected.reserve(static_cast<std::size_t>(n));
  for (std::int64_t s = 0; s < n; ++s) {
    Tensor one({1, kChannels, kSide, kSide});
    std::memcpy(one.data(), samples.data() + s * kSampleNumel,
                static_cast<std::size_t>(kSampleNumel) * sizeof(float));
    expected.push_back(graph.forward(one));
  }
  return expected;
}

// Polls a predicate for up to ~10 s (loaded-CI headroom).
template <typename Predicate>
bool poll(Predicate&& predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

// ---------------------------------------------------------- wire transport --

TEST(Transport, RoundTripIsBitIdenticalToInProcessInfer) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  Rng rng(9100);
  Tensor samples = random_tensor({6, kChannels, kSide, kSide}, rng);
  const std::vector<Tensor> expected = single_sample_oracle(graph, samples);

  serve::BatchingServer server;
  server.add_model("m", [&] {
    std::vector<runtime::CompiledGraph> replicas;
    replicas.push_back(runtime::replicate(graph));
    return replicas;
  }());
  server.start();
  serve::ServeTransport transport(server);
  transport.start();
  ASSERT_GT(transport.port(), 0);

  serve::TransportClient client(transport.port());
  ASSERT_TRUE(client.connected());
  std::vector<float> logits;
  for (int s = 0; s < 6; ++s) {
    const serve::WireStatus status =
        client.infer("m", samples.data() + s * kSampleNumel,
                     static_cast<std::size_t>(kSampleNumel), logits);
    ASSERT_EQ(status, serve::WireStatus::kOk) << "sample " << s;
    ASSERT_EQ(logits.size(), 10u);
    expect_bit_identical(expected[static_cast<std::size_t>(s)],
                         logits.data(), "wire round trip");
  }

  // The response counter is bumped after the write lands, so the client
  // can observe its frame a beat before the stat: poll.
  EXPECT_TRUE(poll([&] { return transport.stats().responses == 6; }));
  const auto stats = transport.stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.bad_requests, 0u);

  transport.stop();
  server.stop();
}

TEST(Transport, ConcurrentClientsGetBitIdenticalResults) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  Rng rng(9110);
  Tensor samples = random_tensor({8, kChannels, kSide, kSide}, rng);
  const std::vector<Tensor> expected = single_sample_oracle(graph, samples);

  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(runtime::replicate(graph));
  replicas.push_back(runtime::replicate(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::ServeTransport transport(server);
  transport.start();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      serve::TransportClient client(transport.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      std::vector<float> logits;
      for (int round = 0; round < 8; ++round) {
        const int s = (c + round) % 8;
        if (client.infer("m", samples.data() + s * kSampleNumel,
                         static_cast<std::size_t>(kSampleNumel),
                         logits) != serve::WireStatus::kOk) {
          ++failures;
          return;
        }
        const Tensor& want = expected[static_cast<std::size_t>(s)];
        for (std::int64_t i = 0; i < want.numel(); ++i) {
          if (want[i] != logits[static_cast<std::size_t>(i)]) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);

  EXPECT_TRUE(poll([&] { return transport.stats().responses == 32; }));
  const auto stats = transport.stats();
  EXPECT_EQ(stats.connections, 4u);
  EXPECT_EQ(stats.requests, 32u);

  transport.stop();
  server.stop();
}

TEST(Transport, BadRequestsAreRejectedWithoutKillingTheConnection) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::ServeTransport transport(server);
  transport.start();

  serve::TransportClient client(transport.port());
  ASSERT_TRUE(client.connected());
  std::vector<float> logits;
  std::vector<float> sample(static_cast<std::size_t>(kSampleNumel), 0.0f);

  // Unknown model id.
  EXPECT_EQ(client.infer("nope", sample.data(), sample.size(), logits),
            serve::WireStatus::kBadRequest);
  // Wrong sample count for a known model.
  EXPECT_EQ(client.infer("m", sample.data(), sample.size() - 1, logits),
            serve::WireStatus::kBadRequest);
  // deadline_us < -1 has no wire meaning (-1 is THE no-deadline encoding).
  EXPECT_EQ(client.infer("m", sample.data(), sample.size(), logits,
                         /*deadline_us=*/-5),
            serve::WireStatus::kBadRequest);
  // The frame boundary stayed intact throughout: the same connection still
  // serves a well-formed request.
  EXPECT_EQ(client.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kOk);

  EXPECT_TRUE(poll([&] { return transport.stats().responses == 4; }));
  EXPECT_EQ(transport.stats().bad_requests, 3u);

  transport.stop();
  server.stop();
}

#if CSQ_FAILPOINTS_ENABLED

TEST(Transport, WireDeadlinesFollowThePinnedSemantics) {
  // The only replica is parked for ~300 ms (see parked_worker_options): a
  // queued request sits waiting, so expired deadlines deterministically
  // cancel while no-deadline requests wait out the restore.
  runtime::CompiledGraph graph = make_calibrated_graph();
  Tensor samples({1, kChannels, kSide, kSide});
  std::fill(samples.data(), samples.data() + kSampleNumel, 0.25f);
  const std::vector<Tensor> expected = single_sample_oracle(graph, samples);
  serve::BatchingServer server(
      parked_worker_options(/*max_batch=*/16, /*restore_backoff_us=*/300'000));
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  fail::arm("serve.worker_batch", fail::Policy::kOnce);
  server.start();
  serve::ServeTransport transport(server);
  transport.start();

  serve::TransportClient client(transport.port());
  serve::TransportClient client_max(transport.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client_max.connected());
  std::vector<float> logits;
  const std::vector<float> sample(samples.data(),
                                  samples.data() + kSampleNumel);

  // deadline 0: already expired on entry -> kTimeout (the request never
  // waits out the parked replica).
  EXPECT_EQ(client.infer("m", sample.data(), sample.size(), logits,
                         /*deadline_us=*/0),
            serve::WireStatus::kTimeout);
  // A short positive deadline expires the same way.
  EXPECT_EQ(client.infer("m", sample.data(), sample.size(), logits,
                         /*deadline_us=*/1),
            serve::WireStatus::kTimeout);
  // No deadline: -1, and INT64_MAX, which lies beyond the clock's range.
  // Both wait for the restore and succeed with bit-identical logits.
  std::vector<float> logits_max;
  serve::WireStatus status_max = serve::WireStatus::kTransportError;
  std::thread waiter([&] {
    status_max = client_max.infer("m", sample.data(), sample.size(),
                                  logits_max, INT64_MAX);
  });
  EXPECT_EQ(client.infer("m", sample.data(), sample.size(), logits,
                         /*deadline_us=*/-1),
            serve::WireStatus::kOk);
  waiter.join();
  EXPECT_EQ(status_max, serve::WireStatus::kOk);
  ASSERT_EQ(logits.size(), static_cast<std::size_t>(expected[0].numel()));
  ASSERT_EQ(logits_max.size(), logits.size());
  expect_bit_identical(expected[0], logits.data(), "deadline -1");
  expect_bit_identical(expected[0], logits_max.data(), "deadline INT64_MAX");

  transport.stop();
  server.stop();
  // The spent kOnce point stays registered, which keeps every failpoint
  // site on its slow, allocating path: disarm it for the tests that follow.
  fail::disarm_all();
}

#endif  // CSQ_FAILPOINTS_ENABLED

TEST(Transport, OversizedAndRunawayFramesDropTheConnection) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::ServeTransport transport(server);
  transport.start();

  // A declared body length beyond the 1 MiB frame limit is a protocol
  // violation: no response, connection closed.
  net::UniqueFd raw = net::connect_loopback(transport.port());
  ASSERT_TRUE(raw.valid());
  const std::uint32_t huge = (1u << 20) + 1;
  ASSERT_TRUE(net::write_full(raw.get(), &huge, sizeof(huge)));
  char probe = 0;
  EXPECT_FALSE(net::read_full(raw.get(), &probe, 1)) << "expected EOF";

  // A malformed-but-small body gets a kBadRequest response instead.
  net::UniqueFd raw2 = net::connect_loopback(transport.port());
  ASSERT_TRUE(raw2.valid());
  const std::uint32_t tiny_len = 4;
  const std::uint32_t garbage = 0xffffffffu;
  ASSERT_TRUE(net::write_full(raw2.get(), &tiny_len, sizeof(tiny_len)));
  ASSERT_TRUE(net::write_full(raw2.get(), &garbage, sizeof(garbage)));
  std::uint32_t response_len = 0;
  ASSERT_TRUE(
      net::read_full(raw2.get(), &response_len, sizeof(response_len)));
  std::vector<std::uint8_t> body(response_len);
  ASSERT_TRUE(net::read_full(raw2.get(), body.data(), body.size()));
  EXPECT_EQ(body[0],
            static_cast<std::uint8_t>(serve::WireStatus::kBadRequest));

  EXPECT_TRUE(poll([&] { return transport.stats().transport_errors >= 1; }));
  transport.stop();
  server.stop();
}

// A raw loopback peer standing in for a server: answers every request
// frame on one accepted connection with status byte `code` and no logits,
// until the client hangs up.
void answer_with_status(int listener, std::uint8_t code) {
  net::UniqueFd conn(::accept(listener, nullptr, nullptr));
  if (!conn.valid()) return;
  std::uint32_t body_len = 0;
  while (net::read_full(conn.get(), &body_len, sizeof(body_len))) {
    std::vector<std::uint8_t> body(body_len);
    if (!net::read_full(conn.get(), body.data(), body.size())) return;
    const std::uint32_t response_len = 1 + 4;
    const std::uint32_t logit_count = 0;
    std::uint8_t frame[4 + 1 + 4];
    std::memcpy(frame, &response_len, 4);
    frame[4] = code;
    std::memcpy(frame + 5, &logit_count, 4);
    if (!net::write_full(conn.get(), frame, sizeof(frame))) return;
  }
}

TEST(Transport, ClientAcceptsOnlyStatusCodesAServerSends) {
  std::uint16_t port = 0;
  const net::UniqueFd listener =
      net::listen_loopback(/*port=*/0, /*backlog=*/4, &port);
  const std::vector<float> sample(static_cast<std::size_t>(kSampleNumel),
                                  0.0f);
  std::vector<float> logits;
  // The codes a server sends come back as-is, and the connection survives.
  for (const int code : {0, 1, 3, 4, 5}) {
    SCOPED_TRACE(code);
    auto client = std::make_unique<serve::TransportClient>(port);
    ASSERT_TRUE(client->connected());
    std::thread peer([&] {
      answer_with_status(listener.get(), static_cast<std::uint8_t>(code));
    });
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(client->infer("m", sample.data(), sample.size(), logits),
                static_cast<serve::WireStatus>(code));
    }
    EXPECT_TRUE(client->connected());
    client.reset();  // hang up: the peer sees EOF
    peer.join();
  }
  // The retired code 2, the client-only kTransportError and unknown bytes
  // are a peer that does not speak the protocol: kTransportError, and the
  // connection is dropped.
  for (const int code : {2, 6, 255}) {
    SCOPED_TRACE(code);
    auto client = std::make_unique<serve::TransportClient>(port);
    ASSERT_TRUE(client->connected());
    std::thread peer([&] {
      answer_with_status(listener.get(), static_cast<std::uint8_t>(code));
    });
    EXPECT_EQ(client->infer("m", sample.data(), sample.size(), logits),
              serve::WireStatus::kTransportError);
    EXPECT_FALSE(client->connected());
    client.reset();
    peer.join();
  }
}

TEST(Transport, StopClosesTheListenerFirstAndDrains) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::ServeTransport transport(server);
  transport.start();
  const std::uint16_t port = transport.port();

  serve::TransportClient client(port);
  ASSERT_TRUE(client.connected());
  std::vector<float> logits;
  std::vector<float> sample(static_cast<std::size_t>(kSampleNumel), 0.5f);
  ASSERT_EQ(client.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kOk);

  transport.stop();
  // Every dispatched frame got its response before the teardown.
  const auto stats = transport.stats();
  EXPECT_EQ(stats.responses, stats.requests);
  // The listener is gone: fresh connections are refused.
  serve::TransportClient late(port);
  EXPECT_FALSE(late.connected());
  // stop() is idempotent.
  transport.stop();
  server.stop();
}

#if CSQ_FAILPOINTS_ENABLED

class TransportFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::disarm_all(); }
};

TEST_F(TransportFailpointTest, InjectedFaultsDropOnlyTheAffectedConnection) {
  runtime::CompiledGraph graph = make_calibrated_graph();
  serve::BatchingServer server;
  std::vector<runtime::CompiledGraph> replicas;
  replicas.push_back(std::move(graph));
  server.add_model("m", std::move(replicas));
  server.start();
  serve::ServeTransport transport(server);
  transport.start();

  std::vector<float> logits;
  std::vector<float> sample(static_cast<std::size_t>(kSampleNumel), 1.0f);

  // accept fault: the connection is closed immediately after accept. The
  // TCP handshake itself succeeds (backlog), so the failure surfaces on
  // the first round trip.
  fail::arm("transport.accept", fail::Policy::kOnce);
  serve::TransportClient refused(transport.port());
  EXPECT_EQ(refused.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kTransportError);

  // read fault: mid-connection read failure drops that client only.
  serve::TransportClient victim(transport.port());
  ASSERT_TRUE(victim.connected());
  fail::arm("transport.read", fail::Policy::kOnce);
  EXPECT_EQ(victim.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kTransportError);

  // write fault: the response write fails, the connection dies, and the
  // client observes EOF instead of a frame.
  serve::TransportClient write_victim(transport.port());
  ASSERT_TRUE(write_victim.connected());
  fail::arm("transport.write", fail::Policy::kOnce);
  EXPECT_EQ(write_victim.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kTransportError);

  // The transport as a whole survived every injected fault.
  serve::TransportClient healthy(transport.port());
  ASSERT_TRUE(healthy.connected());
  EXPECT_EQ(healthy.infer("m", sample.data(), sample.size(), logits),
            serve::WireStatus::kOk);
  EXPECT_GE(transport.stats().transport_errors, 3u);

  transport.stop();
  server.stop();
}

#endif  // CSQ_FAILPOINTS_ENABLED

}  // namespace
}  // namespace csq
