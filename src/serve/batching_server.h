// serve::BatchingServer — the request path on top of the integer runtime:
// a multi-model shard registry, per-worker CompiledGraph replicas and a
// work-conserving request-batching queue with production failure semantics.
//
// Request path: N producer threads call infer()/try_infer(handle, sample,
// logits). Each call links a stack-allocated request node into the target
// shard's preallocated ring and blocks. A free shard worker takes everything
// queued (up to max_batch) at once as ONE batched forward — it never waits
// for a batch to fill, so a lone request is served as a batch of one, and
// batches form only while every replica is busy, which is when batching
// pays (Clipper's adaptive batching, Crankshaw et al., NSDI 2017) — then
// scatters the per-request logits back and wakes the producers. Models are
// registered by id; each shard owns its queue and one worker thread (plus
// graph replica) per registered replica. The replica count is fixed by
// add_model for the life of the server: every start() runs that many
// workers, rebuilding any replica that died in an earlier run.
//
// Guarantees:
//  * Outputs are bit-identical to serial single-sample forwards of the
//    source graph: the integer path is batch-invariant, and replicas are
//    deterministic program replays (runtime::replicate / load_graph) —
//    including replicas rebuilt by quarantine recovery.
//  * Zero steady-state heap allocations on the fault-free request path with
//    serial in-graph execution (the default): the ring, per-worker request
//    arrays and staging batch tensors are grown during start()'s warmup;
//    request nodes live on the callers' stacks; the graph forward is
//    allocation-free after warmup (hotpath tests). Pooled replicas are
//    SAFE — concurrent top-level parallel_for submissions queue on the
//    shared pool (util/thread_pool.h). Pool chunk assignment is dynamic,
//    but the GEMM packing scratch of every pool slot is created together
//    by the first GEMM that runs on the pool, so a pool thread that slept
//    through warmup does not allocate it on an early request.
//  * Graceful degradation: a replica that throws mid-batch is QUARANTINED —
//    its popped requests go back to the front of the queue for siblings to
//    serve, and a backoff-restore loop rebuilds the replica from the
//    shard's shared immutable GraphProgram (runtime::rebuild_replica; the
//    rebuilt replica stays per-request bit-identical). The shard fails only
//    when every replica has exhausted its restore attempts; start()-warmup
//    failures still fail the shard synchronously (misconfiguration, not a
//    runtime fault).
//  * No request ever hangs: every admitted request is completed exactly once
//    — served, failed with a ServeStatus, or (with a deadline) cancelled —
//    and worker failures never abort the process.
//  * Typed failures: try_infer never throws on the request path; it reports
//    timeouts, shard failure and shutdown as ServeStatus codes, counted per
//    shard in ShardStats. The infer() convenience wrappers keep the
//    throwing contract.
//  * Graceful drain: stop() lets the workers finish queued work, completes
//    anything a quarantined worker left queued with kShuttingDown, and late
//    arrivals are rejected with kShuttingDown. Stale ModelHandles — held
//    across stop() or even across server destruction — resolve to
//    kShuttingDown instead of touching freed memory.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/compiled_graph.h"

namespace csq {
namespace serve {

namespace detail {
struct Shard;
}  // namespace detail

// Typed request-path outcome. The hot path reports failures as values, not
// exceptions: timeouts and shutdown are expected states of a loaded server,
// not programming errors. The values are the wire status codes
// (serve/transport.h); 2 is retired.
enum class ServeStatus {
  kOk = 0,
  kTimeout = 1,       // the caller's deadline expired before completion
  kShardFailed = 3,   // every replica of the shard is dead
  kShuttingDown = 4,  // server stopped/stopping/destroyed (or stale handle)
};

const char* serve_status_name(ServeStatus status);

struct ServerOptions {
  // Largest batch a free worker takes from the queue at once.
  std::int64_t max_batch = 16;
  // Ring capacity per shard; producers beyond it block (backpressure),
  // bounded by their deadline.
  std::int64_t queue_capacity = 1024;
  // Quarantine recovery: backoff before a failed replica's first rebuild
  // attempt, doubling per failed attempt (capped at 1 s).
  std::int64_t restore_backoff_us = 1000;
  // Rebuild attempts before a quarantined replica is declared dead. The
  // shard fails only when EVERY replica is dead.
  int restore_max_attempts = 8;
};

// Resolved routing target for one model id: lets the request hot path skip
// the registry lookup. Holds a weak reference, so a handle that outlives
// stop() or the server itself degrades to kShuttingDown instead of
// dereferencing freed memory.
class ModelHandle {
 public:
  ModelHandle() = default;
  // True while the owning server (and its shard) is still alive. A valid
  // handle can still be rejected (stopped shard); an invalid one is always
  // kShuttingDown.
  bool valid() const { return !shard_.expired(); }

 private:
  friend class BatchingServer;
  explicit ModelHandle(std::weak_ptr<detail::Shard> shard)
      : shard_(std::move(shard)) {}
  std::weak_ptr<detail::Shard> shard_;
};

class BatchingServer {
 public:
  explicit BatchingServer(ServerOptions options = {});
  ~BatchingServer();  // stops and joins all shard workers

  BatchingServer(const BatchingServer&) = delete;
  BatchingServer& operator=(const BatchingServer&) = delete;

  // Registers a model id with one worker thread per replica. Replicas must
  // be calibrated graphs with identical IO shapes (runtime::replicate or
  // load_graph produce them); an uncalibrated replica fails HERE, not in a
  // worker thread. Must precede start(). The first replica's program,
  // options and edge-scale snapshot become the shard's restore template,
  // from which quarantine recovery and start() rebuild replicas.
  void add_model(const std::string& model_id,
                 std::vector<runtime::CompiledGraph> replicas);

  // Convenience: loads `replicas` copies of a persisted graph artifact —
  // the float-model-free deployment path — with serial in-graph execution
  // (the workers are the parallelism; add_model takes pooled replicas).
  void add_model_from_artifact(const std::string& model_id,
                               const std::string& artifact_path,
                               int replicas);

  // Launches one worker per registered replica — first rebuilding, from
  // the restore template, any replica that died in an earlier run — and
  // runs their warmup forwards; after this the steady-state request path
  // performs zero heap allocations. Warmup failures rethrow here,
  // synchronously.
  void start();
  // Drains queued requests, then joins the workers; anything left behind by
  // quarantined workers completes with kShuttingDown. Idempotent.
  void stop();

  // Resolves a model id once; infer(handle, ...) routes without a registry
  // lookup. Throws for unknown ids.
  ModelHandle handle(const std::string& model_id) const;

  // Non-throwing single-sample inference. `sample` holds
  // channels*height*width floats; `logits` receives out_features floats
  // (written only on kOk). `deadline_us` bounds the WHOLE call — queueing
  // (including backpressure waits) and service. Deadline semantics are
  // PINNED (the wire protocol in serve/transport.h relies on them):
  //   * deadline_us < 0 (canonically -1): no deadline — wait indefinitely.
  //   * deadline_us == 0: the deadline is already expired on entry. The
  //     request is admitted, then cancelled with kTimeout unless it is
  //     completable without waiting (already done when first checked, or
  //     popped by a worker before the cancel — then the in-flight batch is
  //     waited out and its real outcome reported). It is NOT "no deadline".
  //   * deadline_us > 0: bounds the call; expiry while still queued cancels
  //     the request with kTimeout; once a worker has picked it up, the call
  //     waits out the in-flight batch (one bounded forward) and reports its
  //     outcome. A deadline beyond the clock's range (INT64_MAX, say) is no
  //     deadline.
  // Thread-safe; any number of producers may call concurrently.
  ServeStatus try_infer(const ModelHandle& handle, const float* sample,
                        float* logits, std::int64_t deadline_us = -1);

  // Blocking convenience wrappers: throw check_error on any non-kOk status.
  void infer(const ModelHandle& handle, const float* sample, float* logits);
  void infer(const std::string& model_id, const float* sample,
             float* logits);

  // Input/output extents of a registered model (for sizing request
  // buffers).
  runtime::CompiledGraph::IoShape model_shape(
      const std::string& model_id) const;

  struct ShardStats {
    std::uint64_t requests = 0;  // admitted into the ring
    std::uint64_t batches = 0;
    std::uint64_t full_flushes = 0;   // batch reached max_batch
    // Always 0: batching has no timer. Kept for existing stats readers.
    std::uint64_t timer_flushes = 0;
    std::uint64_t drain_flushes = 0;  // partial batch popped by stop()
    std::int64_t max_batch_observed = 0;
    // Failure semantics.
    std::uint64_t rejected = 0;   // kShuttingDown / kShardFailed outcomes
    std::uint64_t timed_out = 0;  // kTimeout outcomes (deadline expired)
    std::uint64_t quarantines = 0;  // replica failures entering quarantine
    std::uint64_t restores = 0;     // successful backoff rebuilds
    int replicas_quarantined = 0;   // gauge: currently restoring
    int replicas_dead = 0;          // replicas whose restores were exhausted
    // Load gauges.
    std::int64_t queue_depth = 0;   // gauge: requests queued right now
    int replicas_active = 0;        // gauge: serving-capable workers now
    // p99 of the per-batch flush wait (the oldest popped request's queueing
    // time, µs) over the last 256 batches: pure queue wait, since a free
    // worker never holds a request back. 0 until the first batch.
    std::int64_t flush_wait_p99_us = 0;
  };
  ShardStats stats(const std::string& model_id) const;

  // Activation/scratch workspace bytes retained by each replica of a model
  // — the per-worker serving footprint (liveness-colored by default; see
  // runtime::LowerOptions::plan_buffers). Steady after start()'s warmup
  // grows every buffer to max_batch.
  std::vector<std::int64_t> replica_workspace_bytes(
      const std::string& model_id) const;

  const ServerOptions& options() const { return options_; }

 private:
  detail::Shard& shard_for(const std::string& model_id) const;
  const std::shared_ptr<detail::Shard>& shard_ptr_for(
      const std::string& model_id) const;

  ServerOptions options_;
  std::vector<std::shared_ptr<detail::Shard>> shards_;
  bool started_ = false;
};

}  // namespace serve
}  // namespace csq
