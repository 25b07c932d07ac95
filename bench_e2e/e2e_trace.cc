#include "e2e_trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>

#include "common/rng.h"

namespace pafeat {
namespace e2e {
namespace {

// The innermost live ScopedSpan of this thread and a small per-thread index
// for the trace's tid column.
thread_local const ScopedSpan* current_span = nullptr;
thread_local int thread_index = -1;
std::atomic<int> next_thread_index{0};

int ThisThreadIndex() {
  if (thread_index < 0) thread_index = next_thread_index.fetch_add(1);
  return thread_index;
}

// 1-based nearest rank ceil(q * n), guarded against q * n landing a hair
// above an integer in binary floating point.
int NearestRankIndex(double q, int n) {
  const int rank = static_cast<int>(std::ceil(q * n - 1e-9));
  return std::clamp(rank, 1, n);
}

}  // namespace

Percentile NearestRank(std::vector<double> values, double q) {
  Percentile result;
  result.samples = static_cast<int>(values.size());
  if (values.empty()) {
    result.flagged = true;
    return result;
  }
  const int rank = NearestRankIndex(q, result.samples);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  result.value = values[rank - 1];
  result.beyond = result.samples - rank;
  result.flagged = result.beyond < kMinTailSamples;
  return result;
}

int SamplesForTail(double q) {
  int n = 1;
  while (n - NearestRankIndex(q, n) < kMinTailSamples) ++n;
  return n;
}

std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    int count) {
  Rng rng(seed);
  std::vector<double> due(std::max(count, 0));
  double t = 0.0;
  for (double& at : due) {
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
    at = t;
  }
  return due;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  std::vector<std::pair<std::uint64_t, std::size_t>> by_id;
  by_id.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_id.emplace_back(spans[i].id, i);
  }
  std::sort(by_id.begin(), by_id.end());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const auto it = std::lower_bound(
        by_id.begin(), by_id.end(),
        std::make_pair(span.parent, std::size_t{0}));
    if (it == by_id.end() || it->first != span.parent) continue;
    children[it->second].emplace_back(span.start_us, span.end_us);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = lo;  // end of the union swept so far
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, hi);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::DurationsSeconds(const char* name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    if (std::string_view(span.name) == name) {
      out.push_back((span.end_us - span.start_us) * 1e-6);
    }
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& metadata) const {
  const std::vector<Span> spans = Spans();
  const std::vector<double> self = SelfTimesUs(spans);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"metadata\": " << metadata << ",\n\"traceEvents\": [\n";
  char line[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu, \"group\": %llu, \"self_us\": %.3f}}%s\n",
                  s.name, s.thread, s.start_us, s.end_us - s.start_us,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.group), self[i],
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out.flush());
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t group)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  outer_ = current_span;
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = outer_ != nullptr ? outer_->span_.id : 0;
  span_.group = group != 0 || outer_ == nullptr ? group : outer_->span_.group;
  span_.thread = ThisThreadIndex();
  current_span = this;
  span_.start_us = tracer_->NowUs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_us = tracer_->NowUs();
  current_span = outer_;
  tracer_->Record(span_);
}

}  // namespace e2e
}  // namespace pafeat
