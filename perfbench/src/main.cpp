// perfbench — the repo's benchmark program.
//
//   perfbench --workload <train|serve|batch> --seed <n> --seconds <s>
//             --trace <0|1> [--work-dir <dir>]
//
// Runs one seeded workload and prints, as its last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the gated end-to-end metrics, the same names on every workload; --trace 1
// is a separate run that records spans around the calls into each layer and
// reports the per-layer metrics plus machine diagnostics. Every traced run
// reports every per-layer metric: after the named workload, traced in full,
// it runs the other workloads' layer suites on a shortened schedule with the
// same seed. Every run prints a machine block and the reference-loop timings
// before and after the named workload, so host drift can be told apart from
// a program change.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "common.h"

namespace {

// The other workloads' layer suites in a traced run measure for this
// fraction of --seconds: their metrics are replay medians, which need
// fewer operations than the gated numbers.
constexpr int kLayersOnlyDivisor = 4;

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <train|serve|batch> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n";
  return 2;
}

bool parse_int(const std::string& text, long long min, long long max,
               long long& out) {
  try {
    std::size_t used = 0;
    out = std::stoll(text, &used);
    return used == text.size() && out >= min && out <= max;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    long long number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_int(value, 0, 1LL << 40, number)) return usage("bad --seed");
      options.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!parse_int(value, 1, 600, number)) return usage("bad --seconds");
      options.seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (!parse_int(value, 0, 1, number)) return usage("bad --trace");
      options.trace = number == 1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  using Run = void (*)(const perfbench::Options&, perfbench::Report&);
  const std::pair<const char*, Run> workloads[] = {
      {"train", perfbench::run_train},
      {"serve", perfbench::run_serve},
      {"batch", perfbench::run_batch}};
  Run run = nullptr;
  for (const auto& [name, fn] : workloads) {
    if (options.workload == name) run = fn;
  }
  if (run == nullptr) return usage("unknown workload");

  perfbench::Report report;
  try {
    perfbench::print_machine_block();
    const double ref_before = perfbench::reference_loop_ms();
    run(options, report);
    const double ref_after = perfbench::reference_loop_ms();
    const double steal = report.timed_steal_pct();
    std::ostringstream line;
    line << "machine ref_ms_before " << ref_before << " ref_ms_after "
         << ref_after << " steal_pct " << steal;
    report.note(line.str());
    if (options.trace) {
      report.add("machine.steal_pct", steal, "%");
      report.add("machine.ref_ms", 0.5 * (ref_before + ref_after), "ms");
      for (const auto& [name, fn] : workloads) {
        if (options.workload == name) continue;
        perfbench::Options other = options;
        other.workload = name;
        other.seconds = std::max(1, options.seconds / kLayersOnlyDivisor);
        other.layers_only = true;
        report.note(std::string("layer suite of ") + name);
        fn(other, report);
      }
      perfbench::Tracer& tracer = perfbench::Tracer::instance();
      tracer.print_self_times();
      const std::string path =
          options.work_dir + "/trace-" + options.workload + ".jsonl";
      if (!tracer.write(path)) {
        std::cerr << "perfbench: could not write " << path << "\n";
        return 1;
      }
      report.note("spans written to " + path);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload
              << " failed: " << error.what() << "\n";
    return 1;
  }
  std::cout << "failed " << report.failed() << " of " << report.attempted()
            << " operations\n"
            << report.json() << std::endl;
  return 0;
}
