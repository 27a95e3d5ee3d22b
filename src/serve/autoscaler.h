// serve::ReplicaAutoscaler — queue-driven replica scaling for one
// BatchingServer shard.
//
// A background policy thread samples the shard's stats every interval and
// drives BatchingServer::set_replicas():
//
//   scale UP (one replica at a time) after `up_ticks` consecutive samples
//   with pressure — queue depth above up_queue_depth per active replica
//   (the server batches without a timer, so a queue builds only while
//   every replica is busy);
//
//   scale DOWN (one replica at a time) after `down_idle_ticks` consecutive
//   idle samples — empty queue and no new requests since the last sample;
//
//   after any action, hold for `cooldown_ticks` samples so the policy
//   observes the effect before acting again (no flapping on transients).
//
// Targets are clamped to [min_replicas, max_replicas]; max_replicas must
// fit within the shard's slot headroom (ServerOptions::max_replicas).
// Scale-ups bootstrap replicas off-thread, so the policy loop never blocks
// the request path. Purely reactive and deliberately simple — the point is
// that replica count follows offered load at runtime, not a predictive
// controller.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "serve/batching_server.h"

namespace csq {
namespace serve {

struct AutoscalerOptions {
  // Sampling period of the policy loop.
  std::int64_t interval_us = 20'000;
  int min_replicas = 1;
  int max_replicas = 4;
  // Pressure: queued requests per ACTIVE replica above which a sample
  // counts toward scaling up.
  std::int64_t up_queue_depth = 8;
  // Consecutive pressured samples before a scale-up.
  int up_ticks = 2;
  // Consecutive idle samples (empty queue, no request arrivals) before a
  // scale-down.
  int down_idle_ticks = 10;
  // Samples to hold after any scaling action.
  int cooldown_ticks = 3;
};

class ReplicaAutoscaler {
 public:
  // `server` must be started and outlive the autoscaler; `model_id` must be
  // registered (validated at start()).
  ReplicaAutoscaler(BatchingServer& server, std::string model_id,
                    AutoscalerOptions options = {});
  ~ReplicaAutoscaler();  // stops and joins

  ReplicaAutoscaler(const ReplicaAutoscaler&) = delete;
  ReplicaAutoscaler& operator=(const ReplicaAutoscaler&) = delete;

  // Spawns the policy thread; immediately enforces min_replicas.
  void start();
  // Joins the policy thread. The replica count stays wherever the policy
  // left it. Idempotent.
  void stop();

  // Policy decision counters (reads are racy-snapshot, test/metrics only).
  struct Stats {
    std::uint64_t ticks = 0;
    std::uint64_t scale_ups = 0;
    std::uint64_t scale_downs = 0;
    int current_target = 0;
  };
  Stats stats() const;

 private:
  void policy_loop();

  BatchingServer& server_;
  std::string model_id_;
  AutoscalerOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable stop_cv_;
  std::thread thread_;
  bool running_ = false;
  bool stopping_ = false;
  Stats stats_;
};

}  // namespace serve
}  // namespace csq
