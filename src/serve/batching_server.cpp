#include "serve/batching_server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "runtime/graph_artifact.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace csq {
namespace serve {

namespace detail {

using Clock = std::chrono::steady_clock;

// Sets *deadline to `us` (>= 0) microseconds from now and returns true, or
// returns false when that instant lies beyond the clock's range: a deadline
// that distant is no deadline (and adding it to now() would overflow).
bool deadline_after(std::int64_t us, Clock::time_point* deadline) {
  const Clock::time_point now = Clock::now();
  const std::int64_t headroom_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::time_point::max() - now)
          .count();
  if (us >= headroom_us) return false;
  *deadline = now + std::chrono::microseconds(us);
  return true;
}

// One in-flight request. Lives on the producer's stack for the duration of
// its try_infer() call — the queue stores only the pointer, so the request
// path never allocates. Every admitted node is completed exactly once
// before its producer returns: normally by the worker that served it,
// force-completed with a failure status (quarantine overflow, shard death,
// stop() behind a quarantined worker), or cancelled by its own producer on
// deadline expiry (the only path that removes a node without setting done).
struct Request {
  const float* sample = nullptr;
  float* logits = nullptr;
  Clock::time_point enqueued;
  bool done = false;
  ServeStatus status = ServeStatus::kOk;
};

// Outcome of a quarantined replica's backoff-rebuild loop.
enum class RestoreOutcome {
  kRestored,   // fresh warmed replica installed in the slot
  kStopped,    // server stopping
  kExhausted,  // restore_max_attempts rebuilds all failed
};

// One model id: a request ring plus one worker thread (and graph replica)
// per registered replica. All queue state is guarded by `mutex`;
// `queue_cv` wakes serving workers (work arrived / stop), `restore_cv`
// interrupts restoring workers' backoff (stop), `done_cv` wakes producers
// (results ready, ring space freed) and start()'s warmup wait. The backoff
// has its own condition variable so that only serving workers wait on
// queue_cv: try_infer's notify_one must reach a worker that can serve, not
// a restoring one that would go back to sleep and leave the request
// waiting out its backoff.
struct Shard {
  std::string id;
  // One slot per replica registered by add_model; worker w serves slot w.
  // A slot is null once its replica died (restores exhausted) until the
  // next start() rebuilds it from the restore template.
  std::vector<std::unique_ptr<runtime::CompiledGraph>> replicas;
  runtime::CompiledGraph::IoShape shape;
  const ServerOptions* options = nullptr;

  // Restore template: every replica was built from this shared immutable
  // program; quarantine recovery rebuilds dead replicas from it (no deep
  // copy of the codes) and re-installs the same edge-scale snapshot, so a
  // restored replica is bit-identical to its siblings.
  std::shared_ptr<const runtime::GraphProgram> program;
  runtime::LowerOptions graph_options;
  std::vector<runtime::EdgeScaleRecord> edge_records;

  std::mutex mutex;
  std::condition_variable queue_cv;
  std::condition_variable restore_cv;
  std::condition_variable done_cv;
  std::vector<Request*> ring;  // preallocated; head/count index it
  std::size_t head = 0;
  std::size_t count = 0;
  bool accepting = false;  // start() opens, stop()/total failure closes —
                           // the only lifecycle state try_infer consults,
                           // so producers never race an unguarded flag
  bool stopping = false;
  bool failed = false;  // no live replica left (or warmup failed)
  std::exception_ptr worker_error;
  std::size_t workers_ready = 0;  // start()'s rendezvous: replicas.size()
  int quarantined_now = 0;
  int dead_now = 0;
  // Workers that will eventually serve or die trying — serving and
  // quarantine-restoring alike; the shard fails only when it hits zero.
  int live_workers = 0;
  // Per-batch flush wait (oldest popped request's queueing time, µs) over
  // the last kFlushWindow batches.
  // Concurrency audit: BOTH sides of this ring are under `mutex` — the
  // worker writes flush_waits/flush_wait_pos/flush_wait_count inside the
  // locked pop scope of run_worker, and stats() copies them under the same
  // lock — so there is no torn-read window (the TSan stats-hammer test
  // pins this against a producer flood).
  static constexpr std::size_t kFlushWindow = 256;
  std::vector<std::int64_t> flush_waits;
  std::size_t flush_wait_pos = 0;
  std::size_t flush_wait_count = 0;
  BatchingServer::ShardStats stats;

  std::vector<std::thread> workers;

  std::size_t capacity() const { return ring.size(); }

  void worker_loop(int worker_index);
  // Serves batches until stopping and drained; throws on a batch failure.
  void run_worker(int worker_index, std::vector<Request*>& taken,
                  std::size_t& n, Tensor& staging);
  std::vector<Tensor> warmup_replica(runtime::CompiledGraph& graph,
                                     Tensor& staging);
  bool quarantine_and_restore(int worker_index, const std::string& reason,
                              std::vector<Request*>& taken, std::size_t& n);
  RestoreOutcome restore_with_backoff(int worker_index);
  // Restores exhausted: empties the slot (freeing the replica's memory),
  // drops live_workers and — when the last live worker dies — fails the
  // shard. Takes `mutex`.
  void worker_died(int worker_index);
  // Completes every queued request with `status`. Caller holds `mutex` and
  // notifies done_cv afterwards.
  void complete_queued_locked(ServeStatus status);
};

void Shard::complete_queued_locked(ServeStatus status) {
  while (count > 0) {
    Request* request = ring[head];
    head = (head + 1) % capacity();
    --count;
    request->status = status;
    request->done = true;
    ++stats.rejected;
  }
}

// Warmup: grow the graph's activation workspace, this thread's GEMM packing
// scratch and the staging tensor to their steady-state extents so the
// request path never touches the heap. A worker takes whatever is queued,
// so a batch can have ANY size in [1, max_batch], and every worker can have
// one output tensor in flight at once — the returned outputs are HELD by
// the caller (across the start() rendezvous) to seed the tensor pool with
// the worst-case number of spans per size bucket.
std::vector<Tensor> Shard::warmup_replica(runtime::CompiledGraph& graph,
                                          Tensor& staging) {
  CSQ_FAILPOINT("serve.warmup");
  const std::int64_t max_batch = options->max_batch;
  graph.prepare(max_batch);
  std::vector<Tensor> warm_outputs;
  warm_outputs.reserve(static_cast<std::size_t>(max_batch));
  for (std::int64_t b = max_batch; b >= 1; --b) {
    staging.resize_unspecified({b, shape.channels, shape.height,
                                shape.width});
    warm_outputs.push_back(graph.forward(staging));
  }
  return warm_outputs;
}

void Shard::worker_loop(int worker_index) {
  // `taken` and `n` live here so the failure paths can account for the
  // requests this worker had already popped: a check_error escaping a
  // std::thread body would std::terminate the whole serving process, and a
  // producer must never be left waiting on (or a worker writing into) a
  // stack node whose batch died mid-flight.
  std::vector<Request*> taken(
      static_cast<std::size_t>(options->max_batch), nullptr);
  std::size_t n = 0;
  Tensor staging = Tensor::zeros(
      {options->max_batch, shape.channels, shape.height, shape.width});

  // Initial warmup. A failure here fails the whole shard and start()
  // rethrows it synchronously: a replica that cannot even warm up is a
  // configuration error, not a runtime fault worth a quarantine loop.
  std::vector<Tensor> warm_outputs;
  try {
    warm_outputs = warmup_replica(
        *replicas[static_cast<std::size_t>(worker_index)], staging);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex);
    failed = true;
    stopping = true;
    accepting = false;
    if (!worker_error) worker_error = std::current_exception();
    workers_ready = replicas.size();  // release start()'s warmup wait
    --live_workers;
    complete_queued_locked(ServeStatus::kShardFailed);
    queue_cv.notify_all();
    done_cv.notify_all();
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    ++workers_ready;
    done_cv.notify_all();
    done_cv.wait(lock, [&] {
      return workers_ready >= replicas.size() || stopping;
    });
  }
  warm_outputs.clear();

  // Serving loop with quarantine recovery: any exception escaping a batch
  // (replica forward, pool submission, injected fault) quarantines THIS
  // replica only — the popped batch is requeued for siblings, and a
  // backoff-restore loop rebuilds the replica before rejoining.
  while (true) {
    std::string reason;
    try {
      run_worker(worker_index, taken, n, staging);
      break;
    } catch (const std::exception& error) {
      reason = error.what();
    } catch (...) {
      reason = "non-standard exception";
    }
    if (!quarantine_and_restore(worker_index, reason, taken, n)) return;
  }
  std::lock_guard<std::mutex> lock(mutex);
  --live_workers;
}

void Shard::run_worker(int worker_index, std::vector<Request*>& taken,
                       std::size_t& n, Tensor& staging) {
  runtime::CompiledGraph& graph =
      *replicas[static_cast<std::size_t>(worker_index)];
  const std::int64_t sample_numel =
      shape.channels * shape.height * shape.width;
  const std::int64_t max_batch = options->max_batch;

  while (true) {
    CSQ_FAILPOINT("serve.worker_batch");
    n = 0;
    {
      std::unique_lock<std::mutex> lock(mutex);
      queue_cv.wait(lock, [&] { return stopping || count > 0; });
      if (count == 0) return;  // stopping, fully drained
      // Work-conserving flush: take everything queued (up to max_batch) at
      // once, recording how long the oldest of it sat queued.
      flush_waits[flush_wait_pos] =
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - ring[head]->enqueued)
              .count();
      flush_wait_pos = (flush_wait_pos + 1) % kFlushWindow;
      flush_wait_count = std::min(flush_wait_count + 1, kFlushWindow);
      n = std::min(count, static_cast<std::size_t>(max_batch));
      for (std::size_t i = 0; i < n; ++i) {
        taken[i] = ring[(head + i) % capacity()];
      }
      head = (head + n) % capacity();
      count -= n;
      ++stats.batches;
      if (n == static_cast<std::size_t>(max_batch)) {
        ++stats.full_flushes;
      } else if (stopping) {
        ++stats.drain_flushes;
      }
      stats.max_batch_observed =
          std::max(stats.max_batch_observed, static_cast<std::int64_t>(n));
    }
    // Ring space freed: unblock producers waiting on backpressure.
    done_cv.notify_all();

    // Gather -> one batched integer forward -> scatter. The integer path is
    // batch-invariant, so each row is bit-identical to a single-sample
    // forward of the same graph.
    staging.resize_unspecified({static_cast<std::int64_t>(n), shape.channels,
                                shape.height, shape.width});
    float* dst = staging.data();
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(dst + static_cast<std::int64_t>(i) * sample_numel,
                  taken[i]->sample,
                  static_cast<std::size_t>(sample_numel) * sizeof(float));
    }
    CSQ_FAILPOINT("serve.replica_forward");
    Tensor logits = graph.forward(staging);
    const float* out = logits.data();
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(taken[i]->logits,
                  out + static_cast<std::int64_t>(i) * shape.out_features,
                  static_cast<std::size_t>(shape.out_features) *
                      sizeof(float));
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t i = 0; i < n; ++i) taken[i]->done = true;
      n = 0;  // completed: the failure path must not touch these again
    }
    done_cv.notify_all();
  }
}

namespace {

// `value` as a logfmt value: bare when it is a plain word, else
// double-quoted with quotes, backslashes and line breaks escaped, so a
// lifecycle line stays one parseable line.
std::string logfmt_value(const std::string& value) {
  if (!value.empty() &&
      value.find_first_of(" \"=\\\n") == std::string::npos) {
    return value;
  }
  std::string out = "\"";
  for (const char ch : value) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out += ch;
    }
  }
  return out + '"';
}

}  // namespace

// Lifecycle events log one warn line each, `event=<name> model=<id>
// worker=<index>` and the event's own keys; the request path logs nothing.
bool Shard::quarantine_and_restore(int worker_index, const std::string& reason,
                                   std::vector<Request*>& taken,
                                   std::size_t& n) {
  log_warn() << "event=quarantine model=" << logfmt_value(id)
             << " worker=" << worker_index
             << " reason=" << logfmt_value(reason);
  {
    std::lock_guard<std::mutex> lock(mutex);
    ++stats.quarantines;
    ++quarantined_now;
    // Put the popped batch back at the FRONT of the ring — original
    // enqueue stamps intact, so flush-wait stats and FIFO order survive —
    // for the sibling workers (or this one, once restored) to serve. If
    // producers already refilled the freed space, fail the overflow
    // cleanly instead of overwriting live nodes.
    const std::size_t requeue = std::min(n, capacity() - count);
    if (requeue > 0) {
      head = (head + capacity() - requeue) % capacity();
      for (std::size_t i = 0; i < requeue; ++i) {
        ring[(head + i) % capacity()] = taken[i];
      }
      count += requeue;
    }
    for (std::size_t i = requeue; i < n; ++i) {
      taken[i]->status = ServeStatus::kShardFailed;
      taken[i]->done = true;
      ++stats.rejected;
    }
    n = 0;
  }
  queue_cv.notify_all();  // requeued work for the siblings
  done_cv.notify_all();   // overflow completions

  const RestoreOutcome outcome = restore_with_backoff(worker_index);
  if (outcome == RestoreOutcome::kRestored) {
    log_warn() << "event=restore model=" << logfmt_value(id)
               << " worker=" << worker_index;
  } else if (outcome == RestoreOutcome::kExhausted) {
    log_warn() << "event=replica_death model=" << logfmt_value(id)
               << " worker=" << worker_index
               << " restore_attempts=" << options->restore_max_attempts;
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    --quarantined_now;
    if (outcome == RestoreOutcome::kRestored) {
      ++stats.restores;
      return true;  // rejoin the serving loop
    }
    if (outcome == RestoreOutcome::kStopped) {
      --live_workers;  // stop() completes anything left queued
      return false;
    }
  }
  worker_died(worker_index);
  return false;
}

// Exponential-backoff rebuild from the shard's shared immutable program.
// Runs outside the shard mutex: siblings keep serving (graceful
// degradation) while this thread rebuilds.
RestoreOutcome Shard::restore_with_backoff(int worker_index) {
  constexpr std::int64_t kMaxBackoffUs = 1'000'000;
  std::int64_t backoff_us = std::max<std::int64_t>(
      options->restore_backoff_us, 1);
  for (int attempt = 0; attempt < options->restore_max_attempts; ++attempt) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      if (attempt > 0 || options->restore_backoff_us > 0) {
        restore_cv.wait_for(lock, std::chrono::microseconds(backoff_us),
                            [&] { return stopping; });
      }
      if (stopping) return RestoreOutcome::kStopped;
    }
    try {
      CSQ_FAILPOINT("serve.restore");
      runtime::CompiledGraph rebuilt =
          runtime::rebuild_replica(program, graph_options, edge_records);
      Tensor staging = Tensor::zeros(
          {options->max_batch, shape.channels, shape.height, shape.width});
      std::vector<Tensor> warm = warmup_replica(rebuilt, staging);
      std::lock_guard<std::mutex> lock(mutex);
      replicas[static_cast<std::size_t>(worker_index)] =
          std::make_unique<runtime::CompiledGraph>(std::move(rebuilt));
      return RestoreOutcome::kRestored;
    } catch (...) {
      backoff_us = std::min(backoff_us * 2, kMaxBackoffUs);
    }
  }
  return RestoreOutcome::kExhausted;
}

// The shard fails only when the LAST live worker dies — then queued and
// future requests get kShardFailed instead of waiting on capacity that will
// never return.
void Shard::worker_died(int worker_index) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    --live_workers;
    ++dead_now;
    replicas[static_cast<std::size_t>(worker_index)].reset();
    if (live_workers <= 0 && !stopping) {
      failed = true;
      accepting = false;
      complete_queued_locked(ServeStatus::kShardFailed);
    }
  }
  queue_cv.notify_all();
  done_cv.notify_all();
}

}  // namespace detail

using detail::Clock;
using detail::deadline_after;
using detail::Request;
using detail::Shard;

const char* serve_status_name(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kTimeout:
      return "timeout";
    case ServeStatus::kShardFailed:
      return "shard_failed";
    case ServeStatus::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

BatchingServer::BatchingServer(ServerOptions options)
    : options_(options) {
  CSQ_CHECK(options_.max_batch >= 1)
      << "batching server: max_batch must be at least 1";
  CSQ_CHECK(options_.queue_capacity >= 1)
      << "batching server: queue_capacity must be at least 1";
  CSQ_CHECK(options_.restore_backoff_us >= 0)
      << "batching server: negative restore_backoff_us";
  CSQ_CHECK(options_.restore_max_attempts >= 1)
      << "batching server: restore_max_attempts must be at least 1";
  options_.queue_capacity =
      std::max(options_.queue_capacity, options_.max_batch);
}

BatchingServer::~BatchingServer() { stop(); }

void BatchingServer::add_model(const std::string& model_id,
                               std::vector<runtime::CompiledGraph> replicas) {
  CSQ_CHECK(!started_)
      << "batching server: add_model after start is not supported";
  CSQ_CHECK(!replicas.empty())
      << "batching server: model " << model_id << " has no replicas";
  for (const auto& shard : shards_) {
    CSQ_CHECK(shard->id != model_id)
        << "batching server: duplicate model id " << model_id;
  }
  auto shard = std::make_shared<Shard>();
  shard->id = model_id;
  shard->shape = replicas.front().io_shape();
  CSQ_CHECK(shard->shape.out_features > 0)
      << "batching server: model " << model_id << " has no output head";
  for (auto& replica : replicas) {
    const auto shape = replica.io_shape();
    CSQ_CHECK(shape.channels == shard->shape.channels &&
              shape.height == shard->shape.height &&
              shape.width == shard->shape.width &&
              shape.out_features == shard->shape.out_features)
        << "batching server: replica shape mismatch for model " << model_id;
    // Resolve the requant constants NOW: an uncalibrated replica must fail
    // this registration call, not a worker thread's warmup forward.
    replica.edge_scales();
  }
  // Restore template for quarantine recovery and for refilling a dead
  // replica's slot on restart: the first replica's shared program +
  // options + edge-scale snapshot (replicas are required to be
  // bit-identical siblings, so any one of them defines the shard).
  shard->program = replicas.front().shared_program();
  shard->graph_options = replicas.front().options();
  shard->edge_records = replicas.front().edge_scales();
  for (auto& replica : replicas) {
    shard->replicas.push_back(
        std::make_unique<runtime::CompiledGraph>(std::move(replica)));
  }
  shard->flush_waits.assign(Shard::kFlushWindow, 0);
  shard->options = &options_;
  shard->ring.assign(static_cast<std::size_t>(options_.queue_capacity),
                     nullptr);
  shards_.push_back(std::move(shard));
}

void BatchingServer::add_model_from_artifact(const std::string& model_id,
                                             const std::string& artifact_path,
                                             int replicas) {
  CSQ_CHECK(replicas >= 1)
      << "batching server: model " << model_id << " needs >= 1 replicas";
  std::vector<runtime::CompiledGraph> graphs;
  graphs.reserve(static_cast<std::size_t>(replicas));
  // One disk read + parse, serial in-graph execution (the workers are the
  // parallelism); the remaining replicas are bit-identical in-memory
  // program replays with the same options.
  graphs.push_back(runtime::load_graph(artifact_path, /*pooled=*/false));
  for (int i = 1; i < replicas; ++i) {
    graphs.push_back(runtime::replicate(graphs.front()));
  }
  add_model(model_id, std::move(graphs));
}

void BatchingServer::start() {
  CSQ_CHECK(!started_) << "batching server: start called twice";
  CSQ_CHECK(!shards_.empty()) << "batching server: no models registered";
  // A replica that died in an earlier run left its slot empty: rebuild it
  // from the restore template, so every start runs the registered count.
  for (auto& shard : shards_) {
    for (auto& replica : shard->replicas) {
      if (replica != nullptr) continue;
      auto rebuilt = std::make_unique<runtime::CompiledGraph>(
          runtime::rebuild_replica(shard->program, shard->graph_options,
                                   shard->edge_records));
      std::lock_guard<std::mutex> lock(shard->mutex);
      replica = std::move(rebuilt);
    }
  }
  started_ = true;
  for (auto& shard : shards_) {
    const int workers = static_cast<int>(shard->replicas.size());
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->accepting = true;
      shard->live_workers = workers;
    }
    shard->workers.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      shard->workers.emplace_back(
          [shard = shard.get(), w] { shard->worker_loop(w); });
    }
  }
  // Block until every worker finished its warmup so callers can rely on
  // the zero-allocation steady state from the first request on. (>=, not
  // ==: a failing worker's catch block jumps workers_ready to the target,
  // and siblings still warming increment it past that afterwards.)
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    shard->done_cv.wait(lock, [&] {
      return shard->workers_ready >= shard->replicas.size();
    });
  }
  // Surface warmup failures synchronously instead of from a worker thread.
  std::exception_ptr error;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (shard->failed && !error) error = shard->worker_error;
  }
  if (error) {
    stop();
    std::rethrow_exception(error);
  }
}

void BatchingServer::stop() {
  if (!started_) return;
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->accepting = false;  // late try_infer calls get kShuttingDown
      shard->stopping = true;
    }
    shard->queue_cv.notify_all();
    shard->restore_cv.notify_all();
    shard->done_cv.notify_all();
  }
  for (auto& shard : shards_) {
    for (std::thread& worker : shard->workers) worker.join();
    shard->workers.clear();
    // Reset under the mutex: a producer rejected above may still hold it.
    // Quarantined workers exit their restore loops on `stopping` without
    // serving, so anything they left queued completes here — no request
    // ever hangs across stop().
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->complete_queued_locked(ServeStatus::kShuttingDown);
    shard->done_cv.notify_all();
    shard->stopping = false;
    shard->failed = false;
    shard->worker_error = nullptr;
    shard->workers_ready = 0;
    shard->quarantined_now = 0;
    shard->dead_now = 0;
    shard->live_workers = 0;
  }
  started_ = false;
}

const std::shared_ptr<Shard>& BatchingServer::shard_ptr_for(
    const std::string& model_id) const {
  for (const auto& shard : shards_) {
    if (shard->id == model_id) return shard;
  }
  CSQ_CHECK(false) << "batching server: unknown model id " << model_id;
  // Unreachable; CSQ_CHECK throws.
  return shards_.front();
}

Shard& BatchingServer::shard_for(const std::string& model_id) const {
  return *shard_ptr_for(model_id);
}

ModelHandle BatchingServer::handle(const std::string& model_id) const {
  return ModelHandle(shard_ptr_for(model_id));
}

ServeStatus BatchingServer::try_infer(const ModelHandle& handle,
                                      const float* sample, float* logits,
                                      std::int64_t deadline_us) {
  // Stale handles (server destroyed, or a default-constructed handle)
  // resolve here instead of dereferencing freed memory.
  const std::shared_ptr<Shard> shard_ref = handle.shard_.lock();
  if (!shard_ref) return ServeStatus::kShuttingDown;
  Shard& shard = *shard_ref;

  Clock::time_point deadline;
  const bool bounded =
      deadline_us >= 0 && deadline_after(deadline_us, &deadline);

  Request request;
  request.sample = sample;
  request.logits = logits;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (shard.failed) {
      ++shard.stats.rejected;
      return ServeStatus::kShardFailed;
    }
    if (!shard.accepting) {
      ++shard.stats.rejected;
      return ServeStatus::kShuttingDown;
    }
    if (shard.count >= shard.capacity()) {
      // Backpressure at the full ring, bounded by the caller's deadline.
      const auto has_space = [&] {
        return shard.count < shard.capacity() || !shard.accepting;
      };
      if (bounded) {
        if (!shard.done_cv.wait_until(lock, deadline, has_space)) {
          ++shard.stats.timed_out;
          return ServeStatus::kTimeout;
        }
      } else {
        shard.done_cv.wait(lock, has_space);
      }
      if (shard.failed) {
        ++shard.stats.rejected;
        return ServeStatus::kShardFailed;
      }
      if (!shard.accepting) {
        ++shard.stats.rejected;
        return ServeStatus::kShuttingDown;
      }
    }
    request.enqueued = Clock::now();
    shard.ring[(shard.head + shard.count) % shard.capacity()] = &request;
    ++shard.count;
    ++shard.stats.requests;
  }
  shard.queue_cv.notify_one();
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    const auto completed = [&] { return request.done; };
    if (bounded && !shard.done_cv.wait_until(lock, deadline, completed)) {
      // Deadline expired. If the node is still queued, cancel it in place
      // — compact the ring so workers never see the dead entry. If a
      // worker already popped it, the result is one bounded forward away:
      // wait it out (a stack node in a worker's batch cannot be
      // abandoned) and report the actual outcome.
      bool cancelled = false;
      for (std::size_t i = 0; i < shard.count; ++i) {
        const std::size_t pos = (shard.head + i) % shard.capacity();
        if (shard.ring[pos] != &request) continue;
        for (std::size_t j = i; j + 1 < shard.count; ++j) {
          shard.ring[(shard.head + j) % shard.capacity()] =
              shard.ring[(shard.head + j + 1) % shard.capacity()];
        }
        --shard.count;
        cancelled = true;
        break;
      }
      if (cancelled) {
        ++shard.stats.timed_out;
        shard.done_cv.notify_all();  // ring space freed
        return ServeStatus::kTimeout;
      }
      shard.done_cv.wait(lock, completed);
    } else if (!bounded) {
      shard.done_cv.wait(lock, completed);
    }
  }
  return request.status;
}

void BatchingServer::infer(const ModelHandle& handle, const float* sample,
                           float* logits) {
  CSQ_CHECK(handle.valid()) << "batching server: invalid model handle";
  const ServeStatus status = try_infer(handle, sample, logits);
  CSQ_CHECK(status == ServeStatus::kOk)
      << "batching server: infer failed with status "
      << serve_status_name(status);
}

void BatchingServer::infer(const std::string& model_id, const float* sample,
                           float* logits) {
  infer(handle(model_id), sample, logits);
}

runtime::CompiledGraph::IoShape BatchingServer::model_shape(
    const std::string& model_id) const {
  return shard_for(model_id).shape;
}

BatchingServer::ShardStats BatchingServer::stats(
    const std::string& model_id) const {
  Shard& shard = shard_for(model_id);
  // Concurrency audit (flush-wait window): both the worker-side writes and
  // this read of flush_waits/flush_wait_count happen under shard.mutex, so a
  // snapshot never sees a torn window. What used to live under the lock was
  // the p99 itself -- a heap allocation plus nth_element while producers and
  // flushers contend for the same mutex. Copy the fixed-size window out under
  // the lock, select outside it.
  ShardStats snapshot;
  std::array<std::int64_t, Shard::kFlushWindow> window;
  std::size_t wait_count = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    snapshot = shard.stats;
    snapshot.replicas_quarantined = shard.quarantined_now;
    snapshot.replicas_dead = shard.dead_now;
    snapshot.queue_depth = static_cast<std::int64_t>(shard.count);
    snapshot.replicas_active = shard.live_workers - shard.quarantined_now;
    wait_count = shard.flush_wait_count;
    std::copy(shard.flush_waits.begin(),
              shard.flush_waits.begin() +
                  static_cast<std::ptrdiff_t>(wait_count),
              window.begin());
  }
  if (wait_count > 0) {
    // p99 over the window: small (<= kFlushWindow entries) and read-only
    // callers, so an on-demand partial sort beats bookkeeping on the hot
    // path -- and it now runs lock-free on the caller's stack copy.
    const std::size_t rank = (wait_count - 1) * 99 / 100;
    std::nth_element(window.begin(),
                     window.begin() + static_cast<std::ptrdiff_t>(rank),
                     window.begin() + static_cast<std::ptrdiff_t>(wait_count));
    snapshot.flush_wait_p99_us = window[rank];
  }
  return snapshot;
}

std::vector<std::int64_t> BatchingServer::replica_workspace_bytes(
    const std::string& model_id) const {
  Shard& shard = shard_for(model_id);
  // The shard mutex orders this read against worker-side workspace growth
  // (start()'s warmup grows every replica's buffers off-thread).
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::vector<std::int64_t> bytes;
  bytes.reserve(shard.replicas.size());
  for (const auto& replica : shard.replicas) {
    if (replica != nullptr) bytes.push_back(replica->workspace_bytes());
  }
  return bytes;
}

}  // namespace serve
}  // namespace csq
