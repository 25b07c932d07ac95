#ifndef PAFEAT_BENCH_E2E_E2E_TRACE_H_
#define PAFEAT_BENCH_E2E_E2E_TRACE_H_

// Helpers of the end-to-end benchmark (bench_e2e.cc): the percentile rule,
// the open-loop arrival schedule, and the in-memory span tracer with its
// self-time arithmetic. Kept apart from the benchmark's main so
// e2e_helpers_test.cc can check them without running a workload.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pafeat {
namespace e2e {

// A reported percentile must have at least this many samples ranked above
// it; one with fewer is flagged as resting on too thin a tail.
inline constexpr int kMinTailSamples = 10;

struct Percentile {
  double value = 0.0;
  int samples = 0;
  int beyond = 0;        // samples ranked strictly above the reported one
  bool flagged = false;  // beyond < kMinTailSamples
};

// Nearest-rank percentile: the ceil(q * n)-th smallest sample (1-based),
// so exactly n - ceil(q * n) samples lie beyond it. q in (0, 1]. An empty
// input yields a flagged zero.
Percentile NearestRank(std::vector<double> values, double q);

// The fewest samples for which NearestRank(·, q) is not flagged.
int SamplesForTail(double q);

// Open-loop Poisson arrivals: `count` due offsets in seconds from the start
// of the phase, with exponential gaps of mean 1 / rate_per_s drawn from a
// stream seeded by `seed`. Same (seed, rate, count) gives the same schedule.
std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    int count);

// One recorded span. Times are microseconds since the tracer was created.
// `group` is shared by every span of one request (0 = none); `parent` is
// the enclosing span on the same thread (0 = root).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t group = 0;
  int thread = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

// Self time of every span, index-aligned with `spans`: its duration minus
// the length of the union of its children's intervals, clipped to its own.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

// In-memory span recorder. Spans are appended under a mutex into a vector
// reserved up front and written out once, after the run (WriteChromeTrace).
// When disabled, ScopedSpan records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Snapshot of every span recorded so far.
  std::vector<Span> Spans() const;
  // Durations in seconds of the spans named `name`, in record order.
  std::vector<double> DurationsSeconds(const char* name) const;

  // Chrome trace-event JSON (chrome://tracing, Perfetto); each event's args
  // carry id, parent, group and self time. `metadata` is a JSON object
  // written as the file's "metadata" member. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata) const;

 private:
  friend class ScopedSpan;

  double NowUs() const;
  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// Records one span from construction to destruction, parented to the
// innermost live ScopedSpan on this thread. A zero `group` inherits the
// parent's group, so child spans of a request share its id.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t group = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;  // nullptr when tracing is off
  Span span_;
  const ScopedSpan* outer_ = nullptr;
};

}  // namespace e2e
}  // namespace pafeat

#endif  // PAFEAT_BENCH_E2E_E2E_TRACE_H_
