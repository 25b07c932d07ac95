// End-to-end benchmark of PA-FEAT through its public API, on the paper's
// own metrics: setup time, training-iteration time (Table II "Iter"),
// zero-shot quality (mean downstream AUC on the unseen tasks), unseen-task
// execution time (Table II "Exec" / Fig 7), and label-to-subset serving
// through SelectionServer under open-loop and closed-loop load. See
// README.md in this directory for the workloads, the metric map and how to
// run it.
//
// One process runs one workload:
//   bench_e2e --workload train-wide --seed 1 --seconds 20 [--trace]
//             [--trace_out path.json]
// It prints a human-readable report (lines starting with '#') and, as its
// last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics. --trace runs record a span
// around every public call of every other operation, report the per-layer
// metrics with the tracing overhead, and write the spans to --trace_out. A
// failed output check makes the exit code 1.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/checkpoint.h"
#include "core/defaults.h"
#include "core/experiment.h"
#include "core/pafeat.h"
#include "core/problem.h"
#include "data/synthetic.h"
#include "e2e_trace.h"
#include "serve/selection_server.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace e2e {
namespace {

// One benchmark workload. Each exists to stress a different layer; the
// reasons are recorded in README.md.
struct Workload {
  const char* name;
  const char* shape;         // Table-I dataset whose shape is generated
  int train_iterations;      // fixed length of the training run
  double auc_target;         // mean unseen AUC that ends time-to-AUC
  // Per-task reward-cache and replay byte budgets, set through the config
  // fields (kMemoryBudgetUnlimited: unbounded, whatever the environment).
  long long cache_budget_bytes;
  long long replay_budget_bytes;
};

// Both workloads train on one thread. With two collection threads the
// iteration times followed the host's slow stretches: over ten seeds the
// spread was 0.24 to 0.30 on either shape, against 0.05 to 0.07 with one.
constexpr int kTrainThreads = 1;

constexpr Workload kWorkloads[] = {
    {.name = "train-wide",
     .shape = "Business",
     .train_iterations = 100,
     .auc_target = 0.72,
     .cache_budget_bytes = kMemoryBudgetUnlimited,
     .replay_budget_bytes = kMemoryBudgetUnlimited},
    {.name = "serve-open",
     .shape = "Entertainment",
     .train_iterations = 40,
     .auc_target = 0.60,
     // Binding: unbounded, each of the 7 tasks' caches peaks near 1.8 MB
     // and its replay buffer near 8.6 MB within the 40 iterations.
     .cache_budget_bytes = 512 << 10,
     .replay_budget_bytes = 2 << 20},
};

// Odd, so a traced run traces one more set-up than it leaves untraced.
constexpr int kSetupRepeats = 3;
constexpr int kRounds = 20;
// The training side of a workload is fixed: its dataset comes from the
// shape's own generator seed and its training seeds are constants, so
// setup and iteration figures differ between seeds only by host noise. The
// seed draws what arrives: the order of the dataset's kUnseenColumns unseen
// label columns, which execution and serving cycle through, and the
// open-loop arrival schedule. The AUC tasks are fixed too: the first
// unseen columns, as many as the shape has unseen tasks.
constexpr int kUnseenColumns = 16;
constexpr std::uint64_t kProblemSeed = 1;
constexpr std::uint64_t kTrainSeed = 13;
constexpr std::uint64_t kAucSeed = 101;
constexpr int kAucEvery = 10;  // AUC check interval, in iterations
// Open-loop rate as a share of the closed-loop rate measured so far. At
// half, about two requests in five overlapped another, the median sat
// between overlapped and lone requests, and serve-open's median spread
// 59 to 84 ms over seven seeds. At a quarter, about one in five overlap.
constexpr double kOpenLoopUtilization = 0.25;
constexpr std::chrono::microseconds kSpinBeforeDue{2000};

// Shares of --seconds given to the time-bounded phases, each split evenly
// over the rounds; setup and the fixed-length training run come on top.
constexpr double kExecShare = 0.2;
constexpr double kClosedLoopShare = 0.4;
constexpr double kOpenLoopShare = 0.4;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> failures;  // first few, for the report
};

void Fail(Outcome* out, const std::string& why) {
  ++out->failed;
  if (out->failures.size() < 8) out->failures.push_back(why);
}

std::string PercentileNote(const Percentile& p) {
  std::ostringstream note;
  note << "n=" << p.samples << " beyond=" << p.beyond;
  if (p.flagged) note << " FLAGGED(<" << kMinTailSamples << " beyond)";
  return note.str();
}

void AddPercentile(std::vector<Metric>* metrics, const std::string& name,
                   const std::vector<double>& values, double q, double scale,
                   const std::string& unit) {
  const Percentile p = NearestRank(values, q);
  metrics->push_back({name, p.value * scale, unit, PercentileNote(p)});
}

double Median(const std::vector<double>& values) {
  return NearestRank(values, 0.5).value;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double value : values) sum += value;
  return values.empty() ? 0.0 : sum / values.size();
}

// A timing as <name>_mean and <name>_p90. The centre is the mean, not the
// median: the host alternates between speed states seconds apart, and a
// median jumps between them with the share of the run spent in each, while
// a mean moves in proportion to it. The median goes into the report note.
void AddMeanAndTail(std::vector<Metric>* metrics, const std::string& name,
                    const std::vector<double>& values, double scale,
                    const std::string& unit) {
  const double mean = Mean(values);
  std::ostringstream centre;
  centre << "n=" << values.size() << " p50=" << Median(values) * scale;
  metrics->push_back({name + "_mean", mean * scale, unit, centre.str()});
  AddPercentile(metrics, name + "_p90", values, 0.9, scale, unit);
}

// Mask is the right width, non-empty and within the scan's feature cap.
bool MaskValid(const FeatureMask& mask, int m, double max_feature_ratio) {
  const int cap = std::max(1, static_cast<int>(max_feature_ratio * m));
  const int count = MaskCount(mask);
  return static_cast<int>(mask.size()) == m && count >= 1 && count <= cap;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool HostHasVnni() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

// The closed loop has one caller. With two or three, requests ran
// concurrently, and how fast concurrent work ran depended on the rest of the
// host: on a 4-vCPU VM, train-wide with two callers completed 42 to 95
// requests a second over ten runs, and with one caller 34 to 40.
constexpr int kClosedLoopCallers = 1;
// The open loop's callers mostly sleep until a request is due. With four,
// an arrival rarely waits for a free one. With two, the generator's p99
// lateness was 18 to 78 ms and the p90 followed that queue (spreads of 0.27
// to 0.31 over ten seeds).
constexpr int kOpenLoopCallers = 4;

// A traced run traces every other operation of each kind (set-up,
// iteration, execution, serve request) and runs the rest untraced, along
// the same calls in the same process. The tracing overhead is the traced
// half's mean minus the untraced half's, so host drift between two
// processes does not enter it.
bool TracedOp(const Tracer* tracer, long long op) {
  return tracer->enabled() && op % 2 == 0;
}

// Cost of one span, opened and closed on a scratch tracer: the direct
// price of tracing, beside the paired overhead figures, which carry the
// host's noise.
double SpanCostNs() {
  constexpr int kSpans = 20000;
  Tracer scratch(true);
  WallTimer timer;
  for (int i = 0; i < kSpans; ++i) ScopedSpan span(&scratch, "cost");
  return timer.ElapsedSeconds() * 1e9 / kSpans;
}

// Mean of the samples with traced[i] set minus the mean of the others.
double TracingOverhead(const std::vector<double>& values,
                       const std::vector<char>& traced) {
  std::vector<double> on, off;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (traced[i] ? on : off).push_back(values[i]);
  }
  return Mean(on) - Mean(off);
}

// Traced flags of `n` operations numbered from 0, as TracedOp sets them.
std::vector<char> EveryOther(std::size_t n) {
  std::vector<char> traced(n);
  for (std::size_t i = 0; i < n; ++i) traced[i] = i % 2 == 0;
  return traced;
}

std::string Budget(long long bytes) {
  return bytes == kMemoryBudgetUnlimited ? std::string("\"unlimited\"")
                                         : std::to_string(bytes);
}

std::string Fingerprint(const Workload& w, const SyntheticSpec& spec,
                        int seed, int seconds, bool trace) {
  std::ostringstream out;
  out << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
      << ", \"seconds\": " << seconds << ", \"trace\": " << (trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd\": \""
      << kernels::SimdCapabilityName(kernels::ActiveSimdCapability())
      << "\", \"vnni\": " << (HostHasVnni() ? "true" : "false")
      << ", \"num_threads\": " << kTrainThreads
      << ", \"closed_loop_callers\": " << kClosedLoopCallers
      << ", \"open_loop_callers\": " << kOpenLoopCallers
      << ", \"open_loop_utilization\": " << kOpenLoopUtilization
      << ", \"cache_budget_bytes\": " << Budget(w.cache_budget_bytes)
      << ", \"replay_budget_bytes\": " << Budget(w.replay_budget_bytes)
      << ", \"dataset\": {\"shape\": \"" << spec.name
      << "\", \"rows\": " << spec.num_instances
      << ", \"features\": " << spec.num_features
      << ", \"seen\": " << spec.num_seen_tasks
      << ", \"unseen\": " << spec.num_unseen_tasks
      << ", \"generator_seed\": " << spec.seed << "}"
      << ", \"train_iterations\": " << w.train_iterations << "}";
  return out.str();
}

// Mean downstream AUC of the zero-shot subsets of `tasks`; checks each
// mask. Evaluation only — never inside a timed interval.
double MeanUnseenAuc(FsProblem* problem, PaFeat* pafeat,
                     const std::vector<int>& tasks, std::uint64_t seed,
                     double max_feature_ratio, Outcome* out) {
  const std::vector<FeatureMask> masks = pafeat->SelectFeaturesForTasks(tasks);
  double sum = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ++out->attempted;
    if (!MaskValid(masks[i], problem->num_features(), max_feature_ratio)) {
      Fail(out, "invalid zero-shot mask for label " + std::to_string(tasks[i]));
    }
    sum += EvaluateSubsetDownstream(problem, tasks[i], masks[i],
                                    seed + 7919 * (i + 1))
               .auc;
  }
  return sum / static_cast<double>(tasks.size());
}

// Client-side view of one or more serving phases.
struct ServePhase {
  std::vector<double> latency_s;    // per completed request
  std::vector<char> traced;         // index-aligned with latency_s
  std::vector<double> late_s;       // open loop: generator lateness
  std::vector<double> queue_us;
  std::vector<double> compute_us;
  std::vector<double> compute_us_per_row;
  long long attempted = 0;
  long long rejected = 0;
  long long wrong = 0;
  double elapsed_s = 0.0;

  void Append(const ServePhase& other) {
    const auto append = [](std::vector<double>* to,
                           const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&latency_s, other.latency_s);
    traced.insert(traced.end(), other.traced.begin(), other.traced.end());
    append(&late_s, other.late_s);
    append(&queue_us, other.queue_us);
    append(&compute_us, other.compute_us);
    append(&compute_us_per_row, other.compute_us_per_row);
    attempted += other.attempted;
    rejected += other.rejected;
    wrong += other.wrong;
    elapsed_s += other.elapsed_s;
  }
};

// Span group ids of serve requests, unique across phases.
std::atomic<std::uint64_t> request_ids{0};

// Runs `callers` threads against the server. With an empty `due` the
// phase is closed-loop until `duration_s`; otherwise request i is due at
// start + due[i] (open loop) and its latency counts from that due time.
ServePhase RunServePhase(SelectionServer* server, FsProblem* problem,
                         const std::vector<int>& pool,
                         const std::vector<FeatureMask>& reference,
                         const std::vector<double>& due, double duration_s,
                         int callers, Tracer* tracer) {
  using Clock = std::chrono::steady_clock;
  ServePhase phase;
  std::mutex merge_mutex;
  std::atomic<long long> next{0};
  const bool open_loop = !due.empty();
  const Clock::time_point start = Clock::now();
  const auto since_start = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  const auto caller = [&] {
    ServePhase mine;
    while (true) {
      const long long i = next.fetch_add(1);
      Clock::time_point due_at;
      if (open_loop) {
        if (i >= static_cast<long long>(due.size())) break;
        due_at = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(due[i]));
        // Sleep to just before the due time, then spin: a sleeping thread
        // on a virtual machine can wake milliseconds late, and that delay
        // belongs to the generator, not to the server.
        std::this_thread::sleep_until(due_at - kSpinBeforeDue);
        while (Clock::now() < due_at) std::this_thread::yield();
        mine.late_s.push_back(
            std::max(0.0, since_start(Clock::now()) - due[i]));
      } else {
        if (since_start(Clock::now()) >= duration_s) break;
        due_at = Clock::now();
      }
      const std::size_t slot = static_cast<std::size_t>(i) % pool.size();
      ++mine.attempted;
      const bool traced = TracedOp(tracer, i);
      Tracer* const t = traced ? tracer : nullptr;
      ScopedSpan request_span(t, "serve.request",
                              request_ids.fetch_add(1) + 1);
      std::vector<float> repr;
      {
        ScopedSpan span(t, "serve.client_repr");
        repr = problem->ComputeTaskRepresentation(pool[slot]);
      }
      SelectionResponse response;
      {
        ScopedSpan span(t, "serve.select");
        response = server->Select(repr);
      }
      const Clock::time_point done = Clock::now();
      if (response.status != AdmissionStatus::kOk) {
        ++mine.rejected;
        continue;
      }
      if (response.mask != reference[slot]) ++mine.wrong;
      mine.latency_s.push_back(
          std::chrono::duration<double>(done - due_at).count());
      mine.traced.push_back(traced);
      mine.queue_us.push_back(response.stats.queue_us);
      mine.compute_us.push_back(response.stats.compute_us);
      mine.compute_us_per_row.push_back(
          response.stats.compute_us /
          std::max(1, response.stats.joined_batch_width));
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    phase.Append(mine);
  };
  std::vector<std::thread> threads;
  threads.reserve(callers);
  for (int c = 0; c < callers; ++c) threads.emplace_back(caller);
  for (std::thread& thread : threads) thread.join();
  phase.elapsed_s = since_start(Clock::now());
  return phase;
}

void AccountServePhase(const ServePhase& phase, const char* label,
                       Outcome* out) {
  out->attempted += phase.attempted;
  out->failed += phase.rejected + phase.wrong;
  if (phase.rejected > 0) {
    out->failures.push_back(std::string(label) + ": " +
                            std::to_string(phase.rejected) +
                            " requests not kOk");
  }
  if (phase.wrong > 0) {
    out->failures.push_back(std::string(label) + ": " +
                            std::to_string(phase.wrong) +
                            " masks differ from the standalone selector");
  }
}

// Inputs of one run: the workload's fixed dataset, its AUC tasks and the
// seed's arrival order of its unseen labels. Generation is input
// preparation, outside every metric.
struct Inputs {
  SyntheticDataset data;
  std::vector<int> auc_tasks;  // the shape's own unseen tasks
  std::vector<int> pool;       // unseen label columns, in seed-drawn order
};

Inputs MakeInputs(const Workload& w, int seed) {
  SyntheticSpec spec = *PaperSpecByName(w.shape);
  const int auc_tasks = spec.num_unseen_tasks;
  spec.num_unseen_tasks = kUnseenColumns;
  Inputs inputs;
  inputs.data = GenerateSynthetic(spec);
  inputs.pool = inputs.data.UnseenTaskIndices();
  inputs.auc_tasks.assign(inputs.pool.begin(),
                          inputs.pool.begin() + auc_tasks);
  Rng rng(0x5eed0000ULL + static_cast<std::uint64_t>(seed) * 7919);
  rng.Shuffle(&inputs.pool);
  return inputs;
}

Outcome RunWorkload(const Workload& w, const Inputs& inputs, int seed,
                    int seconds, Tracer* tracer) {
  Outcome out;
  const bool traced = tracer->enabled();

  const SyntheticDataset& data = inputs.data;
  const SyntheticSpec& spec = data.spec;
  const std::vector<int> seen = data.SeenTaskIndices();
  const std::vector<int>& unseen = inputs.pool;
  const std::vector<int>& auc_tasks = inputs.auc_tasks;

  // Budgets come from the workload, never from the environment.
  FsProblemConfig problem_config = DefaultProblemConfig();
  problem_config.reward_cache_budget_bytes = w.cache_budget_bytes;
  PaFeatConfig config;
  config.feat = DefaultFeatOptions(w.train_iterations, kTrainSeed).feat;
  config.feat.num_threads = kTrainThreads;
  config.feat.replay_budget_bytes = w.replay_budget_bytes;
  const double mfr = config.feat.max_feature_ratio;

  // --- Setup, repeated; the last instance is the one measured below. ---
  std::unique_ptr<FsProblem> problem;
  std::unique_ptr<PaFeat> pafeat;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    pafeat.reset();
    problem.reset();
    Tracer* const t = TracedOp(tracer, rep) ? tracer : nullptr;
    WallTimer timer;
    {
      ScopedSpan setup_span(t, "setup");
      {
        ScopedSpan span(t, "data.problem");
        problem = std::make_unique<FsProblem>(data.table, problem_config,
                                              kProblemSeed);
      }
      {
        ScopedSpan span(t, "ml.pretrain");
        for (int label : seen) problem->Task(label);
      }
      {
        ScopedSpan span(t, "core.pafeat_ctor");
        pafeat = std::make_unique<PaFeat>(problem.get(), seen, config);
      }
    }
    setup_s.push_back(timer.ElapsedSeconds());
    ++out.attempted;
  }

  // --- Training: a fixed-length run with AUC checks at fixed intervals. ---
  std::vector<double> iter_s;
  double train_s = 0.0;
  int iters_to_auc = -1;
  double time_to_auc_s = 0.0;
  double final_auc = 0.0;
  std::ostringstream auc_checks;  // "iteration:AUC" of every check
  long long hits = 0, misses = 0, cache_evictions = 0, replay_evictions = 0;
  long long episodes = 0;
  std::size_t cache_bytes_peak = 0, replay_bytes_peak = 0;
  // The mean unseen AUC after `it` iterations; never inside a timing.
  const auto check_auc = [&](int it) {
    ScopedSpan span(tracer, "eval.auc");
    final_auc = MeanUnseenAuc(problem.get(), pafeat.get(), auc_tasks,
                              kAucSeed, mfr, &out);
    auc_checks << " " << it << ":" << final_auc;
    if (iters_to_auc < 0 && final_auc >= w.auc_target) {
      iters_to_auc = it;
      time_to_auc_s = train_s;
    }
  };
  int next_iteration = 0;
  // Runs the iterations of training chunk `chunk` of kRounds.
  const auto train_chunk = [&](int chunk) {
    const int end = w.train_iterations * (chunk + 1) / kRounds;
    for (int& it = next_iteration; it < end; ++it) {
      if (it % kAucEvery == 0) check_auc(it);
      IterationStats stats;
      WallTimer timer;
      {
        ScopedSpan span(TracedOp(tracer, it) ? tracer : nullptr,
                        "core.iteration");
        stats = pafeat->RunIteration();
      }
      const double elapsed = timer.ElapsedSeconds();
      ++out.attempted;
      iter_s.push_back(elapsed);
      train_s += elapsed;
      episodes += stats.episodes;
      hits += stats.cache_hits;
      misses += stats.cache_misses;
      cache_evictions += stats.cache_evictions;
      replay_evictions += stats.replay_evictions;
      cache_bytes_peak = std::max(cache_bytes_peak, stats.cache_bytes);
      replay_bytes_peak = std::max(replay_bytes_peak, stats.replay_bytes);
    }
    if (end == w.train_iterations) check_auc(end);
  };
  train_chunk(0);

  // --- Serving: the checkpoint after the first training chunk. ---
  // Served masks must equal the standalone selector's masks of the same
  // checkpoint; the server keeps serving it while training goes on.
  AgentCheckpoint checkpoint;
  {
    ScopedSpan span(tracer, "serve.make_checkpoint");
    checkpoint = MakeCheckpoint(pafeat->feat());
  }
  std::vector<FeatureMask> reference;
  {
    const CheckpointedSelector standalone(checkpoint);
    for (int label : unseen) {
      reference.push_back(standalone.SelectForRepresentation(
          problem->ComputeTaskRepresentation(label)));
      ++out.attempted;
      if (!MaskValid(reference.back(), spec.num_features,
                     checkpoint.max_feature_ratio)) {
        Fail(&out, "standalone mask invalid for label " +
                       std::to_string(label));
      }
    }
  }
  std::unique_ptr<SelectionServer> server;
  {
    ScopedSpan span(tracer, "serve.server_start");
    server = std::make_unique<SelectionServer>(checkpoint);
  }

  // Host speed on a shared machine drifts on a scale of seconds, so the
  // timed phases alternate in kRounds short rounds and each metric samples
  // the whole run rather than one stretch of it. Round r: execution on the
  // live agent, closed loop, open loop, then training chunk r + 1.
  const int min_per_round = (SamplesForTail(0.9) + kRounds - 1) / kRounds;
  const double round_seconds = static_cast<double>(seconds) / kRounds;
  std::vector<double> exec_s;
  ServePhase closed, open;
  std::uint64_t width_steps = 0, width_rows = 0;
  double offered_sum = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    // Unseen-task execution: label column -> subset (Table II "Exec"),
    // checked against the batched masks of the same agent afterwards.
    std::vector<int> labels;
    std::vector<FeatureMask> masks;
    WallTimer exec_phase;
    while (static_cast<int>(labels.size()) < min_per_round ||
           exec_phase.ElapsedSeconds() < kExecShare * round_seconds) {
      const int label = unseen[exec_s.size() % unseen.size()];
      FeatureMask mask;
      WallTimer timer;
      if (traced) {
        // SelectFeatures is these two public calls. Made one by one here,
        // in traced and untraced calls alike, so the trace can split
        // representation from the greedy scan.
        Tracer* const t =
            TracedOp(tracer, static_cast<long long>(exec_s.size())) ? tracer
                                                                     : nullptr;
        ScopedSpan exec_span(t, "core.exec");
        std::vector<float> repr;
        {
          ScopedSpan span(t, "core.repr");
          repr = problem->ComputeTaskRepresentation(label);
        }
        ScopedSpan span(t, "core.scan");
        mask = pafeat->feat().SelectForRepresentation(repr);
      } else {
        mask = pafeat->SelectFeatures(label);
      }
      exec_s.push_back(timer.ElapsedSeconds());
      labels.push_back(label);
      masks.push_back(std::move(mask));
    }
    const std::vector<FeatureMask> batched =
        pafeat->SelectFeaturesForTasks(labels);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      ++out.attempted;
      if (masks[i] != batched[i] ||
          !MaskValid(masks[i], spec.num_features, mfr)) {
        Fail(&out, "exec mask for label " + std::to_string(labels[i]) +
                       " differs from SelectFeaturesForTasks or is invalid");
      }
    }

    // Closed loop: the caller sends its next request on each reply.
    closed.Append(RunServePhase(server.get(), problem.get(), unseen,
                                reference, {}, kClosedLoopShare * round_seconds,
                                kClosedLoopCallers, tracer));

    // Open loop at a fixed share of the closed-loop rate measured so far.
    // With nothing completed yet (every request refused) there is no rate
    // to offer; the refusals are already counted as failures. Requests that
    // overlap here may share the server's batched steps.
    const double offered_rps =
        kOpenLoopUtilization * closed.latency_s.size() / closed.elapsed_s;
    offered_sum += offered_rps;
    const int count = std::max(
        min_per_round,
        static_cast<int>(offered_rps * kOpenLoopShare * round_seconds));
    if (offered_rps > 0.0) {
      const ServerStats before = server->Stats();
      open.Append(RunServePhase(
          server.get(), problem.get(), unseen, reference,
          PoissonSchedule(static_cast<std::uint64_t>(seed) * 1000 + round,
                          offered_rps, count),
          0.0, kOpenLoopCallers, tracer));
      const ServerStats after = server->Stats();
      width_steps += after.steps - before.steps;
      width_rows += after.step_rows - before.step_rows;
    }

    if (round + 1 < kRounds) train_chunk(round + 1);
  }
  const bool auc_reached = iters_to_auc >= 0;
  if (!auc_reached) {
    iters_to_auc = w.train_iterations;
    time_to_auc_s = train_s;
  }
  server->Shutdown();
  AccountServePhase(closed, "closed loop", &out);
  AccountServePhase(open, "open loop", &out);

  // --- End-to-end metrics (timed with tracing off in untraced runs). ---
  auto& e2e = out.end_to_end;
  e2e.push_back({"setup_s", Median(setup_s), "s",
                 "median of " + std::to_string(kSetupRepeats)});
  // Table II reports the mean iteration time. The p90 is set by the few
  // cache-filling iterations at the start, which no round structure can
  // spread out, so it is a per-layer figure.
  e2e.push_back({"iter_ms_mean", Mean(iter_s) * 1e3, "ms",
                 "n=" + std::to_string(iter_s.size())});
  AddMeanAndTail(&e2e, "exec_ms", exec_s, 1e3, "ms");
  e2e.push_back({"serve_tps", closed.latency_s.size() / closed.elapsed_s,
                 "tasks/s",
                 std::to_string(closed.latency_s.size()) + " closed-loop"});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB", ""});

  // --- Per-layer metrics: spans around public calls, public stats. ---
  auto& layer = out.per_layer;
  const auto span_median = [&](const char* name, double scale) {
    return Median(tracer->DurationsSeconds(name)) * scale;
  };
  layer.push_back({"data.problem_s", span_median("data.problem", 1.0), "s",
                   "median over setups"});
  layer.push_back({"ml.pretrain_s", span_median("ml.pretrain", 1.0), "s",
                   "median over setups"});
  layer.push_back({"core.repr_ms_p50", span_median("core.repr", 1e3), "ms",
                   ""});
  layer.push_back({"core.scan_ms_p50", span_median("core.scan", 1e3), "ms",
                   ""});
  AddPercentile(&layer, "core.iter_ms_p90", iter_s, 0.9, 1e3, "ms");
  layer.push_back({"core.episodes_per_iter",
                   static_cast<double>(episodes) / w.train_iterations,
                   "count", ""});
  layer.push_back({"core.unseen_auc", final_auc, "AUC",
                   "after " + std::to_string(w.train_iterations) +
                       " iterations, " +
                       std::to_string(auc_tasks.size()) + " tasks"});
  std::ostringstream target;
  target << "target " << w.auc_target << (auc_reached ? "" : " not reached")
         << "; checks" << auc_checks.str();
  layer.push_back({"core.iters_to_auc", static_cast<double>(iters_to_auc),
                   "count", target.str()});
  layer.push_back({"core.time_to_auc_s", time_to_auc_s, "s",
                   auc_reached ? "" : "target not reached"});
  const long long lookups = hits + misses;
  layer.push_back({"memory.cache_hit_rate",
                   lookups > 0 ? static_cast<double>(hits) / lookups : 0.0,
                   "ratio", std::to_string(lookups) + " lookups"});
  layer.push_back({"memory.cache_misses_per_iter",
                   static_cast<double>(misses) / w.train_iterations, "count",
                   ""});
  layer.push_back({"memory.cache_evictions",
                   static_cast<double>(cache_evictions), "count", ""});
  layer.push_back({"memory.replay_evictions",
                   static_cast<double>(replay_evictions), "count", ""});
  layer.push_back({"memory.cache_bytes_peak",
                   static_cast<double>(cache_bytes_peak), "bytes", ""});
  layer.push_back({"memory.replay_bytes_peak",
                   static_cast<double>(replay_bytes_peak), "bytes", ""});
  // Open-loop latency is per-layer. Between its requests the serving loop
  // and the callers sleep, and how fast a sleeping thread resumes depends on
  // the rest of the host: over ten seeds serve-open's median read 48 to
  // 69 ms, following the host's steal time, while serve_tps held within
  // 0.12. Its p90 is set by the requests that overlap (91 to 161 ms in
  // three runs in a row). The centre is the median: queueing and coalescing
  // give the latency a heavy tail.
  std::ostringstream offered;
  offered << ", mean " << Mean(open.latency_s) * 1e3 << ", offered "
          << offered_sum / kRounds << " rps, " << kOpenLoopCallers
          << " callers";
  AddPercentile(&layer, "serve.ms_p50", open.latency_s, 0.5, 1e3, "ms");
  layer.back().note += offered.str();
  AddPercentile(&layer, "serve.ms_p90", open.latency_s, 0.9, 1e3, "ms");
  layer.push_back({"serve.client_repr_ms_p50",
                   span_median("serve.client_repr", 1e3), "ms", ""});
  AddPercentile(&layer, "serve.queue_us_p50", open.queue_us, 0.5, 1.0, "us");
  AddPercentile(&layer, "serve.queue_us_p99", open.queue_us, 0.99, 1.0, "us");
  AddPercentile(&layer, "serve.compute_us_p50", closed.compute_us, 0.5, 1.0,
                "us");
  AddPercentile(&layer, "serve.compute_us_per_row", open.compute_us_per_row,
                0.5, 1.0, "us");
  layer.push_back({"serve.mean_batch_width",
                   width_steps > 0 ? static_cast<double>(width_rows) /
                                         static_cast<double>(width_steps)
                                   : 0.0,
                   "count", "open loop"});
  AddPercentile(&layer, "serve.gen_late_ms_p99", open.late_s, 0.99, 1e3,
                "ms");
  layer.push_back({"serve.rejected",
                   static_cast<double>(closed.rejected + open.rejected),
                   "count", ""});
  const auto overhead = [&](const std::vector<double>& values,
                            const std::vector<char>& flags, double scale) {
    return traced ? TracingOverhead(values, flags) * scale : 0.0;
  };
  layer.push_back({"trace.overhead.setup_s",
                   overhead(setup_s, EveryOther(setup_s.size()), 1.0), "s",
                   "4 spans per set-up"});
  layer.push_back({"trace.overhead.iter_ms_mean",
                   overhead(iter_s, EveryOther(iter_s.size()), 1e3), "ms",
                   "1 span per iteration"});
  layer.push_back({"trace.overhead.exec_ms_mean",
                   overhead(exec_s, EveryOther(exec_s.size()), 1e3), "ms",
                   "3 spans per call"});
  layer.push_back({"trace.overhead.serve_ms_mean",
                   overhead(open.latency_s, open.traced, 1e3), "ms",
                   "3 spans per request, open loop"});
  layer.push_back({"trace.spans", static_cast<double>(tracer->Spans().size()),
                   "count", "every other operation traced"});
  layer.push_back({"trace.span_cost_ns", traced ? SpanCostNs() : 0.0, "ns",
                   "one span on a scratch tracer"});
  return out;
}

void PrintMetricLines(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("#   %-28s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

std::string ResultJson(const Outcome& out, const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i > 0 ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  return json.str();
}

int Main(int argc, char** argv) {
  std::string workload_name;
  int seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
  FlagSet flags;
  flags.AddString("workload", &workload_name,
                  "train-wide | serve-open");
  flags.AddInt("seed", &seed, "workload seed: datasets and schedules");
  flags.AddInt("seconds", &seconds, "budget of the time-bounded phases");
  flags.AddBool("trace", &trace,
                "record spans and report the per-layer metrics");
  flags.AddString("trace_out", &trace_out,
                  "traced runs: write the spans here (Chrome trace JSON)");
  if (!flags.Parse(argc, argv)) return 2;
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || seconds < 1) {
    std::fprintf(stderr, "bench_e2e: unknown --workload '%s' or bad "
                 "--seconds\n%s", workload_name.c_str(),
                 flags.Usage().c_str());
    return 2;
  }

  const Inputs inputs = MakeInputs(*workload, seed);
  const std::string fingerprint =
      Fingerprint(*workload, inputs.data.spec, seed, seconds, trace);
  std::printf("# fingerprint %s\n", fingerprint.c_str());
  Tracer tracer(trace);
  const Outcome out = RunWorkload(*workload, inputs, seed, seconds, &tracer);

  PrintMetricLines(trace ? "end-to-end (every other operation traced)"
                         : "end-to-end",
                   out.end_to_end);
  PrintMetricLines(
      trace ? "per-layer" : "per-layer (span timings need --trace)",
      out.per_layer);
  if (trace) {
    // Self time per span name, summed: what each layer spent outside the
    // layers it called.
    const std::vector<Span> spans = tracer.Spans();
    const std::vector<double> self = SelfTimesUs(spans);
    std::vector<std::pair<std::string, double>> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      auto it = std::find_if(totals.begin(), totals.end(), [&](const auto& t) {
        return t.first == spans[i].name;
      });
      if (it == totals.end()) {
        totals.emplace_back(spans[i].name, 0.0);
        it = totals.end() - 1;
      }
      it->second += self[i];
    }
    std::printf("# self time by span (ms)\n");
    for (const auto& [name, us] : totals) {
      std::printf("#   %-28s %14.3f\n", name.c_str(), us * 1e-3);
    }
    if (!trace_out.empty() &&
        !tracer.WriteChromeTrace(trace_out, fingerprint)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", trace_out.c_str());
      return 2;
    }
  }
  for (const std::string& failure : out.failures) {
    std::printf("# FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n",
              ResultJson(out, trace ? out.per_layer : out.end_to_end).c_str());
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace pafeat

int main(int argc, char** argv) { return pafeat::e2e::Main(argc, argv); }
