// Deterministic fault injection for robustness tests.
//
// A failpoint is a named site in library code (CSQ_FAILPOINT("serve.warmup"))
// that normally costs one relaxed atomic load. Tests arm a site with a
// trigger policy — fail-once, fail-every-N, fail-after-N — and the next
// matching evaluation throws fail::injected_fault (or, for the stream
// variant, sets failbit, simulating a disk-full write). This is how the
// serving layer's quarantine/recovery paths and the artifact crash-safety
// guarantees are exercised without real hardware faults: the same site fires
// on the same evaluation every run.
//
// Planted sites (grep CSQ_FAILPOINT for the authoritative list):
//   serve.warmup          replica warmup forward (start() and restore)
//   serve.worker_batch    top of a shard worker's batch loop
//   serve.replica_forward the batched graph forward of a shard worker
//   serve.restore         a quarantined replica's rebuild attempt
//   threadpool.submit     top-level parallel_for submission
//   artifact.read         load_graph, after opening the file
//   artifact.write        save_graph, mid-payload (stream variant)
//   artifact.fsync        save_graph, temp-file fsync before rename (bool)
//   artifact.dirsync      save_graph, directory fsync after rename (bool)
//   transport.accept      ServeTransport, accepting a client connection
//   transport.read        ServeTransport, reading request bytes
//   transport.write       ServeTransport, writing response bytes
//
// Compiled out entirely with -DCSQ_FAILPOINTS=OFF (CSQ_FAILPOINTS_ENABLED=0):
// every macro expands to a no-op and release binaries carry no hooks.
#pragma once

#include <atomic>
#include <cstdint>
#include <ios>
#include <stdexcept>
#include <string>

#ifndef CSQ_FAILPOINTS_ENABLED
#define CSQ_FAILPOINTS_ENABLED 1
#endif

namespace csq {
namespace fail {

// Thrown by a triggered failpoint. Deliberately NOT a csq::check_error:
// tests (and recovery paths) can tell an injected fault from a genuine
// contract violation.
class injected_fault : public std::runtime_error {
 public:
  explicit injected_fault(const std::string& point)
      : std::runtime_error("injected fault at failpoint '" + point + "'"),
        point_(point) {}
  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

enum class Policy {
  kOff,      // armed entry exists but never triggers (counting only)
  kOnce,     // trigger on the first evaluation, then self-disarm
  kEveryN,   // trigger on every Nth evaluation (n, 2n, 3n, ...)
  kAfterN,   // trigger on every evaluation after the first n
};

// Arms `point` with `policy`. `n` is the N of kEveryN / kAfterN (ignored
// otherwise; must be >= 1 for kEveryN). Re-arming replaces the previous
// policy and resets the site's evaluation/trigger counters.
void arm(const std::string& point, Policy policy, std::uint64_t n = 1);

// Removes the armed entry (unarmed sites are free). No-op if not armed.
void disarm(const std::string& point);

// Disarms every failpoint — test teardown.
void disarm_all();

// Evaluations of `point` since it was armed (0 if never armed).
std::uint64_t evaluations(const std::string& point);

// Times `point` actually fired since it was armed.
std::uint64_t triggers(const std::string& point);

namespace detail {

// Count of currently armed points: the fast-path gate every site loads.
extern std::atomic<int> armed_count;

// Slow path: records the evaluation and decides whether the site fires.
bool should_trigger(const char* point);

}  // namespace detail
}  // namespace fail
}  // namespace csq

#if CSQ_FAILPOINTS_ENABLED

// Throws fail::injected_fault when `point` is armed and its policy elects
// this evaluation. One relaxed atomic load when nothing is armed.
#define CSQ_FAILPOINT(point)                                               \
  do {                                                                     \
    if (::csq::fail::detail::armed_count.load(std::memory_order_relaxed) > \
            0 &&                                                           \
        ::csq::fail::detail::should_trigger(point)) {                      \
      throw ::csq::fail::injected_fault(point);                            \
    }                                                                      \
  } while (0)

// Stream variant: instead of throwing, poisons `stream` with failbit — the
// exact observable of a mid-write I/O failure (disk full, yanked volume).
#define CSQ_FAILPOINT_STREAM(point, stream)                                \
  do {                                                                     \
    if (::csq::fail::detail::armed_count.load(std::memory_order_relaxed) > \
            0 &&                                                           \
        ::csq::fail::detail::should_trigger(point)) {                      \
      (stream).setstate(std::ios::failbit);                                \
    }                                                                      \
  } while (0)

// Expression variant: evaluates to true when `point` fires — for sites that
// report failure through a return value (fsync, accept) rather than an
// exception or stream state.
#define CSQ_FAILPOINT_FIRES(point)                                         \
  (::csq::fail::detail::armed_count.load(std::memory_order_relaxed) > 0 && \
   ::csq::fail::detail::should_trigger(point))

#else

#define CSQ_FAILPOINT(point) ((void)0)
#define CSQ_FAILPOINT_STREAM(point, stream) ((void)0)
#define CSQ_FAILPOINT_FIRES(point) (false)

#endif  // CSQ_FAILPOINTS_ENABLED
