#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "util/thread_pool.h"

namespace perfbench {

// -------------------------------------------------------------- Report ---

namespace {

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

}  // namespace

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    incorrect("metric " + name + " is not finite");
    value = -1.0;
  }
  metrics_.push_back({name, value, unit});
  std::cout << "metric " << name << " = " << format_number(value) << " "
            << unit << "\n";
}

void Report::note(const std::string& line) { std::cout << line << "\n"; }

void Report::fail(const std::string& why, std::int64_t count) {
  failed_ += count;
  // The first few reasons are enough to debug; a broken path would
  // otherwise print one line per request.
  if (failure_notes_++ < 8) std::cout << "FAILED: " << why << "\n";
}

void Report::incorrect(const std::string& why) {
  correct_ = false;
  std::cout << "INCORRECT: " << why << "\n";
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << metric.name << "\": {\"value\": "
        << format_number(metric.value) << ", \"unit\": \"" << metric.unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

// -------------------------------------------------------------- Tracer ---

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadLog& Tracer::local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread = static_cast<int>(logs_.size()) - 1;
    log->closed.reserve(1 << 14);
  }
  return *log;
}

std::int64_t Tracer::open(const char* name, std::int64_t trace_id) {
  ThreadLog& log = local();
  Span span;
  span.name = name;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = log.open.empty() ? -1 : log.open.back().id;
  // A child inherits its parent's request/step id unless it names its own.
  span.trace_id = trace_id >= 0 || log.open.empty() ? trace_id
                                                    : log.open.back().trace_id;
  span.thread = log.thread;
  span.start_ns = now_ns();
  log.open.push_back(span);
  return span.id;
}

void Tracer::close(std::int64_t id) {
  const std::int64_t end = now_ns();
  ThreadLog& log = local();
  // Spans are scoped, so the one closing is the innermost open span.
  if (log.open.empty() || log.open.back().id != id) return;
  Span span = log.open.back();
  log.open.pop_back();
  span.end_ns = end;
  log.closed.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& log : logs_) {
    all.insert(all.end(), log->closed.begin(), log->closed.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::vector<double> Tracer::durations_ms(const char* name) const {
  std::vector<double> out;
  const std::string wanted(name);
  for (const Span& span : spans()) {
    if (wanted == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  return out;
}

void Tracer::print_self_times() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::int64_t, std::int64_t> child_ns;
  for (const Span& span : all) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  struct Totals {
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (const Span& span : all) {
    const std::int64_t duration = span.end_ns - span.start_ns;
    const auto child = child_ns.find(span.id);
    const std::int64_t covered = child == child_ns.end() ? 0 : child->second;
    Totals& totals = by_name[span.name];
    ++totals.count;
    totals.total_ms += static_cast<double>(duration) * 1e-6;
    totals.self_ms += static_cast<double>(duration - covered) * 1e-6;
  }
  for (const auto& [name, totals] : by_name) {
    std::cout << "span " << name << " count " << totals.count << " total_ms "
              << format_number(totals.total_ms) << " self_ms "
              << format_number(totals.self_ms) << "\n";
  }
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans()) {
    out << "{\"name\": \"" << span.name << "\", \"id\": " << span.id
        << ", \"parent\": " << span.parent << ", \"trace\": " << span.trace_id
        << ", \"thread\": " << span.thread << ", \"start_ns\": "
        << span.start_ns << ", \"end_ns\": " << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------- machine ---

CpuTimes read_cpu_times() {
  CpuTimes times;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return times;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already counted in user, so only the first eight are summed.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) return times;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  times.valid = true;
  return times;
}

double steal_pct(const CpuTimes& before, const CpuTimes& after) {
  if (!before.valid || !after.valid || after.total <= before.total) {
    return -1.0;
  }
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double reference_loop_ms() {
  // xorshift plus a dependent float chain: no memory traffic and no calls,
  // so it measures only how fast this vCPU runs right now.
  const auto start = Clock::now();
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  float accumulator = 0.0f;
  for (int i = 0; i < 40'000'000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    accumulator = accumulator * 0.999f + static_cast<float>(state & 0xFF);
  }
  const double ms = seconds_since(start) * 1e3;
  volatile float sink = accumulator;
  (void)sink;
  return ms;
}

void print_machine_block() {
  const char* threads_env = std::getenv("CSQ_THREADS");
  std::cout << "machine nproc " << std::thread::hardware_concurrency()
            << " CSQ_THREADS " << (threads_env ? threads_env : "unset")
            << " pool_threads " << csq::global_pool().num_threads()
            << " portable_build "
#ifdef CSQ_PORTABLE_BUILD
            << 1
#else
            << 0
#endif
            << " failpoints " << CSQ_FAILPOINTS_ENABLED << "\n";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -------------------------------------------------------------- shapes ---

std::vector<LayerShape> resnet_layer_shapes(csq::Model& model,
                                            std::int64_t side,
                                            std::int64_t base_width) {
  std::vector<LayerShape> shapes;
  model.for_each_module([&](csq::Module& module) {
    LayerShape shape;
    shape.name = module.name();
    if (auto* conv = dynamic_cast<csq::Conv2d*>(&module)) {
      const csq::Conv2dConfig& config = conv->config();
      const std::int64_t out_side = side * base_width / config.out_channels;
      shape.conv = true;
      shape.out_features = config.out_channels;
      shape.geometry.channels = config.in_channels;
      shape.geometry.height = out_side * config.stride;
      shape.geometry.width = out_side * config.stride;
      shape.geometry.kernel_h = config.kernel;
      shape.geometry.kernel_w = config.kernel;
      shape.geometry.stride = config.stride;
      shape.geometry.pad = config.pad;
      shape.geometry.validate();
      if (shape.geometry.out_h() != out_side) {
        throw std::runtime_error("perfbench: unexpected geometry for " +
                                 shape.name);
      }
      shapes.push_back(shape);
    } else if (auto* linear = dynamic_cast<csq::Linear*>(&module)) {
      shape.out_features = linear->out_features();
      shape.in_features = linear->in_features();
      shapes.push_back(shape);
    }
  });
  return shapes;
}

// --------------------------------------------------------------- stats ---

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

}  // namespace perfbench
