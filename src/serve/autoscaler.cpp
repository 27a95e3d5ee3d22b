#include "serve/autoscaler.h"

#include <algorithm>
#include <chrono>

#include "util/check.h"

namespace csq {
namespace serve {

ReplicaAutoscaler::ReplicaAutoscaler(BatchingServer& server,
                                     std::string model_id,
                                     AutoscalerOptions options)
    : server_(server), model_id_(std::move(model_id)), options_(options) {
  CSQ_CHECK(options_.interval_us >= 1)
      << "autoscaler: interval_us must be positive";
  CSQ_CHECK(options_.min_replicas >= 1)
      << "autoscaler: min_replicas must be at least 1";
  CSQ_CHECK(options_.max_replicas >= options_.min_replicas)
      << "autoscaler: max_replicas below min_replicas";
  CSQ_CHECK(options_.up_queue_depth >= 1)
      << "autoscaler: up_queue_depth must be at least 1";
  CSQ_CHECK(options_.up_ticks >= 1 && options_.down_idle_ticks >= 1)
      << "autoscaler: tick thresholds must be at least 1";
  CSQ_CHECK(options_.cooldown_ticks >= 0)
      << "autoscaler: negative cooldown_ticks";
}

ReplicaAutoscaler::~ReplicaAutoscaler() { stop(); }

void ReplicaAutoscaler::start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CSQ_CHECK(!running_) << "autoscaler: start called twice";
    running_ = true;
    stopping_ = false;
    stats_ = Stats{};
    stats_.current_target = options_.min_replicas;
  }
  // Validates the model id (throws for unknown ids) and pins the floor
  // before the policy thread exists.
  server_.set_replicas(model_id_, options_.min_replicas);
  thread_ = std::thread([this] { policy_loop(); });
}

void ReplicaAutoscaler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

ReplicaAutoscaler::Stats ReplicaAutoscaler::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ReplicaAutoscaler::policy_loop() {
  int target = options_.min_replicas;
  int pressure_ticks = 0;
  int idle_ticks = 0;
  int cooldown = 0;
  std::uint64_t last_requests = server_.stats(model_id_).requests;

  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (stop_cv_.wait_for(lock,
                            std::chrono::microseconds(options_.interval_us),
                            [&] { return stopping_; })) {
        return;
      }
      ++stats_.ticks;
    }

    const BatchingServer::ShardStats shard = server_.stats(model_id_);
    const std::uint64_t arrivals = shard.requests - last_requests;
    last_requests = shard.requests;
    const int active = std::max(shard.replicas_active, 1);

    const bool pressured =
        shard.queue_depth >
        options_.up_queue_depth * static_cast<std::int64_t>(active);
    const bool idle = shard.queue_depth == 0 && arrivals == 0;

    pressure_ticks = pressured ? pressure_ticks + 1 : 0;
    idle_ticks = idle ? idle_ticks + 1 : 0;
    if (cooldown > 0) {
      --cooldown;
      continue;
    }

    int next_target = target;
    if (pressure_ticks >= options_.up_ticks &&
        target < options_.max_replicas) {
      next_target = target + 1;
    } else if (idle_ticks >= options_.down_idle_ticks &&
               target > options_.min_replicas) {
      next_target = target - 1;
    }
    if (next_target == target) continue;

    // Either stop order is safe: a tick that races BatchingServer::stop()
    // (or fires after it) hits set_replicas' lifecycle no-op instead of a
    // CHECK -- a throw here would escape the policy thread and terminate
    // the process. Callers therefore need no autoscaler-before-server
    // shutdown discipline.
    server_.set_replicas(model_id_, next_target);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (next_target > target) {
        ++stats_.scale_ups;
      } else {
        ++stats_.scale_downs;
      }
      stats_.current_target = next_target;
    }
    target = next_target;
    pressure_ticks = 0;
    idle_ticks = 0;
    cooldown = options_.cooldown_ticks;
  }
}

}  // namespace serve
}  // namespace csq
