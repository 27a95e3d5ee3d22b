// Work-sharing thread pool used to parallelize GEMM / convolution over the
// batch dimension and other embarrassingly parallel loops.
//
// Design notes:
//  * Static partitioning via `parallel_for` — the loops we run are regular
//    (same cost per index), so dynamic stealing would only add overhead.
//  * Exceptions thrown by workers are captured and rethrown on the caller
//    thread (first one wins), so CSQ_CHECK failures inside kernels surface.
//  * Top-level parallel_for calls from DIFFERENT threads are safe: they
//    queue on the pool and run one at a time (the serving layer's worker
//    threads each drive their own graph replica against the shared pool).
//    Nested calls from inside a region still run serially on the caller.
//  * A process-wide pool is exposed through `global_pool()`; thread count is
//    taken from the CSQ_THREADS environment variable, defaulting to the
//    hardware concurrency.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace csq {

class ThreadPool {
 public:
  // `assign_scratch_slots` gives each worker a stable pool_slot() stripe
  // index (used only by the global pool; private pools leave slots at 0).
  explicit ThreadPool(int num_threads, bool assign_scratch_slots = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(begin..end) partitioned across the pool plus the calling thread.
  // Blocks until every index is processed. fn receives a single index.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t)>& fn);

  // Chunked variant: fn receives [chunk_begin, chunk_end) so the body can
  // amortize per-call overhead across contiguous indices.
  void parallel_for_chunked(
      std::int64_t begin, std::int64_t end,
      const std::function<void(std::int64_t, std::int64_t)>& fn);

 private:
  struct Task {
    std::function<void(std::int64_t, std::int64_t)> body;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t chunk = 1;
  };

  void worker_loop();
  void run_task_share(const Task& task);

  std::vector<std::thread> workers_;
  const bool assign_scratch_slots_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const Task* active_task_ = nullptr;
  std::int64_t next_index_ = 0;
  int workers_running_ = 0;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

// Process-wide pool (created on first use).
ThreadPool& global_pool();

// True when called from inside a parallel region (worker or caller share);
// used to serialize nested parallel loops.
bool inside_parallel_region();

// Scoped opt-out of the global pool: while alive on a thread, every
// parallel_for wrapper on that thread runs serially (exactly the nested-
// region fallback). Data-parallel training workers hold one so the inner
// kernels of N concurrent forward/backward passes never contend for — or
// serialize on — the shared pool; parallelism comes from the shards alone,
// and the fixed-chunk-grid kernels make serial execution bit-identical to
// pooled anyway.
class SerialExecutionGuard {
 public:
  SerialExecutionGuard();
  ~SerialExecutionGuard();
  SerialExecutionGuard(const SerialExecutionGuard&) = delete;
  SerialExecutionGuard& operator=(const SerialExecutionGuard&) = delete;

 private:
  bool previous_;
};

// Stable scratch-stripe index of the calling thread: global-pool worker i
// answers i + 1, every other thread (including the caller participating in a
// parallel region) answers 0. Always < pool_slot_count(). Lets parallel
// bodies index pre-sized per-thread scratch stripes without locking.
int pool_slot();

// Number of distinct pool_slot() values: global_pool().num_threads().
int pool_slot_count();

// pool_slot() of a thread while it runs its share of a global-pool task
// (as a worker, or as the caller taking part), -1 otherwise — including
// under SerialExecutionGuard. The global pool runs one task at a time, so
// each value >= 0 belongs to at most one thread at any instant, unlike
// pool_slot()'s 0, which every non-worker thread answers.
int pool_share_slot();

// Default serial-fallback threshold for `parallel_for`: ranges of <= 2
// indices run on the caller. Audit note (kept current with the GEMM column
// split): this threshold gates BATCH-level loops only — a 1- or 2-sample
// batch deliberately stays on the caller because each sample's GEMM can fan
// out on its own (the pooled drivers' kCols/kGrid splits parallelize even
// m=1 wide-N problems, and their tile distribution goes through
// `parallel_for_chunked`, whose threshold is 1, so a profitable 2-task
// column split is never silently serialized by this constant). Call sites
// that want a different tradeoff pass an explicit threshold.
inline constexpr std::int64_t kParallelForSerialThreshold = 2;

// Convenience wrappers over the global pool. Falls back to a serial loop for
// tiny ranges where threading would cost more than it saves.
//
// Templates rather than std::function parameters so the serial paths (tiny
// range, nested region, SerialExecutionGuard) invoke the functor directly
// with no type erasure — a hot training step makes thousands of these calls
// and must not allocate. The pooled path wraps a reference to the caller's
// functor (parallel_for blocks until the region retires, so the reference
// cannot dangle); a reference_wrapper fits std::function's small-object
// buffer, keeping the submission heap-free as well.
template <typename Fn>
void parallel_for(std::int64_t begin, std::int64_t end, const Fn& fn,
                  std::int64_t serial_threshold = kParallelForSerialThreshold) {
  if (end - begin <= serial_threshold || inside_parallel_region()) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  global_pool().parallel_for(
      begin, end, std::function<void(std::int64_t)>(std::cref(fn)));
}

template <typename Fn>
void parallel_for_chunked(std::int64_t begin, std::int64_t end, const Fn& fn) {
  if (end - begin <= 1 || inside_parallel_region()) {
    if (begin < end) fn(begin, end);
    return;
  }
  global_pool().parallel_for_chunked(
      begin, end, std::function<void(std::int64_t, std::int64_t)>(std::cref(fn)));
}

}  // namespace csq
