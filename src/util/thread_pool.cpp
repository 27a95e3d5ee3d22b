#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/check.h"
#include "util/failpoint.h"

namespace csq {

namespace {
// Scratch-stripe index: worker i of the global pool holds i + 1, everything
// else 0 (see pool_slot() below).
thread_local int t_pool_slot = 0;
// pool_share_slot(): t_pool_slot while running a global-pool task share.
thread_local int t_share_slot = -1;
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  CSQ_CHECK(num_threads >= 1) << "thread pool needs at least one thread";
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this, i] {
      t_pool_slot = i + 1;
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  while (true) {
    const Task* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return shutdown_ || (active_task_ != nullptr &&
                             generation_ != seen_generation);
      });
      if (shutdown_) return;
      seen_generation = generation_;
      task = active_task_;
      ++workers_running_;
    }
    run_task_share(*task);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --workers_running_;
    }
    done_.notify_all();
  }
}

namespace {
// Set while a thread is executing a parallel region; nested parallel_for
// calls fall back to serial execution instead of deadlocking the pool.
thread_local bool t_inside_parallel_region = false;

class ParallelRegionGuard {
 public:
  explicit ParallelRegionGuard(int share_slot) {
    t_inside_parallel_region = true;
    t_share_slot = share_slot;
  }
  ~ParallelRegionGuard() {
    t_inside_parallel_region = false;
    t_share_slot = -1;
  }
};
}  // namespace

bool inside_parallel_region() { return t_inside_parallel_region; }

SerialExecutionGuard::SerialExecutionGuard()
    : previous_(t_inside_parallel_region) {
  t_inside_parallel_region = true;
}

SerialExecutionGuard::~SerialExecutionGuard() {
  t_inside_parallel_region = previous_;
}

void ThreadPool::run_task_share(const Task& task) {
  ParallelRegionGuard guard(t_pool_slot);
  while (true) {
    std::int64_t chunk_begin;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (next_index_ >= task.end) return;
      chunk_begin = next_index_;
      next_index_ += task.chunk;
    }
    const std::int64_t chunk_end = std::min(chunk_begin + task.chunk, task.end);
    try {
      task.body(chunk_begin, chunk_end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      // Drain the remaining range so other threads finish quickly.
      next_index_ = task.end;
      return;
    }
  }
}

void ThreadPool::parallel_for_chunked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (begin >= end) return;
  // Fault-injection site: a failed submission surfaces on the calling
  // thread exactly like a kernel exception (the serving layer quarantines
  // the replica whose forward it interrupted).
  CSQ_FAILPOINT("threadpool.submit");
  const std::int64_t count = end - begin;
  const int threads = num_threads();
  // Aim for ~4 chunks per thread so a straggler does not serialize the tail.
  const std::int64_t chunk =
      std::max<std::int64_t>(1, count / (static_cast<std::int64_t>(threads) * 4));

  Task task;
  task.body = fn;
  task.begin = begin;
  task.end = end;
  task.chunk = chunk;

  // A direct nested submission would deadlock the queueing wait below (the
  // caller is counted in workers_running_ of the task it is inside, so that
  // task could never retire) — keep the misuse loud. The free-function
  // wrappers never get here: they fall back to serial inside a region.
  CSQ_CHECK(!inside_parallel_region())
      << "nested parallel_for on the same pool is not supported";
  {
    // Top-level submissions from distinct threads (serving workers each
    // driving their own graph replica) queue here until the pool is free.
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return active_task_ == nullptr; });
    active_task_ = &task;
    next_index_ = begin;
    first_error_ = nullptr;
    ++generation_;
  }
  wake_.notify_all();
  run_task_share(task);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return workers_running_ == 0; });
    active_task_ = nullptr;
    error = first_error_;
    first_error_ = nullptr;
  }
  // Wake submitters queued on active_task_ == nullptr.
  done_.notify_all();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              const std::function<void(std::int64_t)>& fn) {
  parallel_for_chunked(begin, end,
                       [&fn](std::int64_t chunk_begin, std::int64_t chunk_end) {
                         for (std::int64_t i = chunk_begin; i < chunk_end; ++i) {
                           fn(i);
                         }
                       });
}

namespace {

int configured_thread_count() {
  if (const char* env = std::getenv("CSQ_THREADS")) {
    const int requested = std::atoi(env);
    if (requested >= 1) return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

}  // namespace

ThreadPool& global_pool() {
  static ThreadPool pool(configured_thread_count());
  return pool;
}

int pool_slot() { return t_pool_slot; }

int pool_slot_count() { return global_pool().num_threads(); }

int pool_share_slot() { return t_share_slot; }

}  // namespace csq
