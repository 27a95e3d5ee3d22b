// Shared plumbing of the perfbench program: run options, the metric report,
// the span tracer, host-drift diagnostics and small statistics helpers.
//
// Everything here is the benchmark's own code. It times calls into the
// library from the outside; the library itself is not instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/model.h"
#include "tensor/im2col.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Set on the other workloads a traced run also runs (see main.cpp): one
  // set-up instead of several, no gated metrics and no trace.overhead_pct,
  // only the layer metrics.
  bool layers_only = false;
  // Directory for the artifact and the span dump; inside the checkout.
  std::string work_dir = ".";
};

// ---------------------------------------------------------------- time ---

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// -------------------------------------------------------------- machine ---

// Cumulative CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  bool valid = false;
};
CpuTimes read_cpu_times();
// Steal share (percent of all machine time) between two samples; -1 when
// /proc/stat was unreadable.
double steal_pct(const CpuTimes& before, const CpuTimes& after);

// A fixed single-threaded scalar loop (ms). Timed before and after each
// workload so host drift can be told apart from a program change.
double reference_loop_ms();

// Prints nproc, CSQ_THREADS, pool width and the build flags.
void print_machine_block();

// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

// ------------------------------------------------------------- metrics ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: metrics with units, operations attempted and
// failed, and whether every output check passed. Human-readable
// diagnostics go to stdout as they are produced; the final line is JSON.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  // A diagnostic line that is printed but never part of the JSON.
  void note(const std::string& line);
  void attempt(std::int64_t count = 1) { attempted_ += count; }
  void fail(const std::string& why, std::int64_t count = 1);
  // An output check that failed without being an operation of its own
  // (a non-finite metric, a batch larger than the client count).
  void incorrect(const std::string& why);

  // Bracket the timed region; machine.steal_pct is taken over it.
  void begin_timed() { cpu_before_ = read_cpu_times(); }
  void end_timed() { cpu_after_ = read_cpu_times(); }
  double timed_steal_pct() const { return steal_pct(cpu_before_, cpu_after_); }

  bool correct() const { return correct_ && failed_ == 0; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  std::string json() const;

 private:
  std::vector<Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
  int failure_notes_ = 0;
  CpuTimes cpu_before_;
  CpuTimes cpu_after_;
};

// ---------------------------------------------------------------- spans ---

// A span recorded around one call into a layer: name, start, end, the span
// that was open on the same thread when it began (-1 for a root), and the
// id of the request or step it belongs to (-1 when none).
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t trace_id = -1;
  int thread = 0;
};

// In-memory span recorder. Off (the untraced run) it costs one relaxed
// load per span site. Each thread appends to its own buffer, so recording
// takes no lock after the thread's first span; buffers are merged and
// written once, when the run ends.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Opens a span on the calling thread; returns its id.
  std::int64_t open(const char* name, std::int64_t trace_id);
  void close(std::int64_t id);

  // Every closed span, all threads merged, in id order.
  std::vector<Span> spans() const;
  // Durations (ms) of every closed span with this name.
  std::vector<double> durations_ms(const char* name) const;

  // Prints count / total / self time per span name. Self time is a span's
  // duration minus the part of it its child spans cover.
  void print_self_times() const;
  // One JSON object per line; returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct ThreadLog {
    int thread = 0;
    std::vector<Span> closed;
    std::vector<Span> open;  // stack of spans still running
  };
  ThreadLog& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{0};
  mutable std::mutex mutex_;  // guards logs_ (registration, merge)
  // One log per thread that ever recorded a span; owned here so spans of a
  // finished client thread are still merged at the end of the run.
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t trace_id = -1)
      : id_(Tracer::instance().enabled()
                ? Tracer::instance().open(name, trace_id)
                : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::instance().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t id_;
};

// ---------------------------------------------------------------- stats ---

double median(std::vector<double> values);
// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

// Median of `repeats` timings (ms) of fn(), after one untimed call.
template <typename Fn>
double median_ms(int repeats, const Fn& fn) {
  fn();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    fn();
    samples.push_back(seconds_since(start) * 1e3);
  }
  return median(samples);
}

// --------------------------------------------------------------- shapes ---

// The GEMM layers of a model as the replays see them: per-sample conv
// geometry, or a Linear layer's extents (geometry left empty).
struct LayerShape {
  std::string name;
  bool conv = false;
  csq::ConvGeometry geometry;  // conv only
  std::int64_t out_features = 0;  // conv: output channels
  std::int64_t in_features = 0;   // linear only
};

// Shapes of every Conv2d/Linear in a CIFAR ResNet built with `base_width`
// on `side` x `side` inputs. Those nets halve the feature map exactly when
// they double the width, so a conv's output side is side * base_width /
// out_channels and its input side that times its stride; the geometry is
// checked against the conv's own configuration.
std::vector<LayerShape> resnet_layer_shapes(csq::Model& model,
                                            std::int64_t side,
                                            std::int64_t base_width);

// ------------------------------------------------------------ workloads ---

void run_train(const Options& options, Report& report);
void run_serve(const Options& options, Report& report);
void run_batch(const Options& options, Report& report);

}  // namespace perfbench
