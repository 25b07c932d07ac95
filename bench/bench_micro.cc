// Micro-benchmarks (google-benchmark) for the kernels under the PA-FEAT
// harness: matrix multiply, MLP forward/backward, dueling-net inference,
// environment steps with a cold vs. warm reward cache, E-Tree operations,
// and the statistics primitives (AUC, Pearson task representation).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "common/rng.h"
#include "core/defaults.h"
#include "core/etree.h"
#include "core/feat.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "memory/reward_cache.h"
#include "ml/masked_dnn.h"
#include "ml/metrics.h"
#include "ml/subset_evaluator.h"
#include "nn/dueling_net.h"
#include "nn/quantized_net.h"
#include "nn/workspace.h"
#include "rl/dqn_agent.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "rl/fs_env.h"
#include "rl/replay_buffer.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::RandomNormal(n, n, 1.0f, &rng);
  const Matrix b = Matrix::RandomNormal(n, n, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_TransposedMatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::RandomNormal(n, n, 1.0f, &rng);
  const Matrix b = Matrix::RandomNormal(n, n, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.TransposedMatMul(b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_TransposedMatMul)->Arg(128);

void BM_MatMulTransposed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::RandomNormal(n, n, 1.0f, &rng);
  const Matrix b = Matrix::RandomNormal(n, n, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMulTransposed(b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMulTransposed)->Arg(128);

// The actual training hot-path shapes: tall-skinny products of a batch of
// 32 observations against a 64-unit layer, parameterized by observation
// dimension (2m + 3 for the paper datasets: Emotions=147, Water=35,
// Scene=597, Mediamill=243, and the synthetic 2043-wide extreme).

// Forward: batch[32 x d] * W[64 x d]^T (the Mlp::Forward layer product).
void BM_GemmForwardTallSkinny(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(14);
  const Matrix batch = Matrix::RandomNormal(32, d, 1.0f, &rng);
  const Matrix weight = Matrix::RandomNormal(64, d, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch.MatMulTransposed(weight));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 32 * 64 * d);
}
BENCHMARK(BM_GemmForwardTallSkinny)->Arg(35)->Arg(147)->Arg(209)->Arg(2043);

// Backward, weight gradient: grad[32 x 64]^T * input[32 x d].
void BM_GemmBackwardWeightGrad(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(15);
  const Matrix grad = Matrix::RandomNormal(32, 64, 1.0f, &rng);
  const Matrix input = Matrix::RandomNormal(32, d, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(grad.TransposedMatMul(input));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 64 * 32 * d);
}
BENCHMARK(BM_GemmBackwardWeightGrad)->Arg(35)->Arg(147)->Arg(209)->Arg(2043);

// Backward, input gradient: grad[32 x 64] * W[64 x d].
void BM_GemmBackwardInputGrad(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(16);
  const Matrix grad = Matrix::RandomNormal(32, 64, 1.0f, &rng);
  const Matrix weight = Matrix::RandomNormal(64, d, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(grad.MatMul(weight));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 32 * 64 * d);
}
BENCHMARK(BM_GemmBackwardInputGrad)->Arg(35)->Arg(147)->Arg(209)->Arg(2043);

void BM_MlpForward(benchmark::State& state) {
  const int input_dim = static_cast<int>(state.range(0));
  Rng rng(2);
  MlpConfig config;
  config.input_dim = input_dim;
  config.hidden_dims = {64, 64};
  config.output_dim = 2;
  Mlp net(config, &rng);
  const Matrix batch = Matrix::RandomNormal(32, input_dim, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Predict(batch));
  }
}
BENCHMARK(BM_MlpForward)->Arg(35)->Arg(147)->Arg(2043);

void BM_MlpForwardBackward(benchmark::State& state) {
  Rng rng(3);
  MlpConfig config;
  config.input_dim = 147;  // 2 * 72 + 3: the Emotions observation size
  config.hidden_dims = {64, 64};
  config.output_dim = 2;
  Mlp net(config, &rng);
  AdamOptimizer adam(1e-3f);
  const Matrix batch = Matrix::RandomNormal(32, 147, 1.0f, &rng);
  Matrix grad(32, 2, 0.01f);
  for (auto _ : state) {
    net.Forward(batch);
    net.ZeroGrad();
    net.Backward(grad);
    adam.Step(net.Params(), net.Grads());
  }
}
BENCHMARK(BM_MlpForwardBackward);

void BM_DuelingPredictSingle(benchmark::State& state) {
  Rng rng(4);
  DuelingNetConfig config;
  config.input_dim = static_cast<int>(state.range(0));
  DuelingNet net(config, &rng);
  const Matrix obs = Matrix::RandomNormal(1, config.input_dim, 1.0f, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Predict(obs));
  }
}
BENCHMARK(BM_DuelingPredictSingle)->Arg(35)->Arg(209)->Arg(2043);

// One full environment episode with an empty reward cache (every step pays
// a classifier evaluation) vs. a pre-warmed cache. The gap is the reason
// the SubsetEvaluator memoization exists.
struct EnvFixture {
  EnvFixture() {
    SyntheticSpec spec;
    spec.num_instances = 400;
    spec.num_features = 32;
    spec.num_seen_tasks = 1;
    spec.num_unseen_tasks = 1;
    spec.seed = 5;
    dataset = GenerateSynthetic(spec);
    rows.resize(400);
    for (int i = 0; i < 400; ++i) rows[i] = i;
    labels = dataset.table.LabelColumn(0);
    Rng rng(6);
    MaskedDnnConfig config;
    config.epochs = 4;
    classifier.Fit(dataset.table.features(), labels, rows, &rng);
    evaluator = std::make_unique<SubsetEvaluator>(&dataset.table.features(),
                                                  labels, rows, &classifier);
    repr = TaskRepresentation(dataset.table.features(), labels, rows);
  }
  SyntheticDataset dataset;
  std::vector<int> rows;
  std::vector<float> labels;
  MaskedDnnClassifier classifier;
  std::unique_ptr<SubsetEvaluator> evaluator;
  std::vector<float> repr;
};

void BM_EnvEpisodeColdCache(benchmark::State& state) {
  EnvFixture fixture;
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh evaluator: empty cache.
    SubsetEvaluator cold(&fixture.dataset.table.features(), fixture.labels,
                         fixture.rows, &fixture.classifier);
    FeatureSelectionEnv env(fixture.repr, &cold, 0.5);
    state.ResumeTiming();
    env.Reset();
    while (!env.Done()) {
      env.Step(rng.Bernoulli(0.3) ? kActionSelect : kActionDeselect);
    }
  }
}
BENCHMARK(BM_EnvEpisodeColdCache);

void BM_EnvEpisodeWarmCache(benchmark::State& state) {
  EnvFixture fixture;
  FeatureSelectionEnv env(fixture.repr, fixture.evaluator.get(), 0.5);
  // Warm the cache with the exact policy replayed below.
  Rng warm_rng(8);
  env.Reset();
  while (!env.Done()) {
    env.Step(warm_rng.Bernoulli(0.3) ? kActionSelect : kActionDeselect);
  }
  for (auto _ : state) {
    Rng rng(8);  // same stream -> same masks -> all cache hits
    env.Reset();
    while (!env.Done()) {
      env.Step(rng.Bernoulli(0.3) ? kActionSelect : kActionDeselect);
    }
  }
}
BENCHMARK(BM_EnvEpisodeWarmCache);

void BM_ETreeAddTrajectory(benchmark::State& state) {
  Rng rng(9);
  const int m = 64;
  std::vector<std::vector<int>> paths;
  for (int i = 0; i < 256; ++i) {
    std::vector<int> path(m);
    for (int& a : path) a = rng.UniformInt(2);
    paths.push_back(std::move(path));
  }
  int i = 0;
  ETree tree(m);
  for (auto _ : state) {
    tree.AddTrajectory(paths[i++ & 255], 0.5);
  }
}
BENCHMARK(BM_ETreeAddTrajectory);

void BM_ETreeSelectPrefix(benchmark::State& state) {
  Rng rng(10);
  const int m = 64;
  ETree tree(m);
  for (int i = 0; i < 2000; ++i) {
    std::vector<int> path(m);
    for (int& a : path) a = rng.UniformInt(2);
    tree.AddTrajectory(path, rng.Uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.SelectPrefix(2.0, m - 1));
  }
}
BENCHMARK(BM_ETreeSelectPrefix);

void BM_AucScore(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  std::vector<float> scores(n);
  std::vector<float> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = static_cast<float>(rng.Uniform());
    labels[i] = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(AucScore(scores, labels));
  }
}
BENCHMARK(BM_AucScore)->Arg(128)->Arg(1024)->Arg(8192);

// Reward-path fixture at a width where masked-subset inference cost is
// visible (m = 256, 512 eval rows; the paper datasets reach m = 1020). The
// classifier quality is irrelevant here — only the inference shapes matter —
// so the fit is kept to two epochs.
struct RewardFixture {
  RewardFixture() : classifier(MaskedDnnConfig{.epochs = 2}) {
    Rng rng(40);
    features = Matrix::RandomNormal(640, 256, 1.0f, &rng);
    labels.resize(640);
    for (int i = 0; i < 640; ++i) {
      labels[i] = features.At(i, 3) + features.At(i, 17) > 0.0f ? 1.0f : 0.0f;
    }
    fit_rows.resize(640);
    for (int i = 0; i < 640; ++i) fit_rows[i] = i;
    eval_rows.assign(fit_rows.begin(), fit_rows.begin() + 512);
    classifier.Fit(features, labels, fit_rows, &rng);
    evaluator = std::make_unique<SubsetEvaluator>(&features, labels, eval_rows,
                                                  &classifier);
  }

  static const RewardFixture& Get() {
    static RewardFixture fixture;
    return fixture;
  }

  // Every (100/density_percent)-th feature selected.
  FeatureMask MaskAtDensity(int density_percent) const {
    const int m = features.cols();
    FeatureMask mask(m, 0);
    const int stride = 100 / density_percent;
    for (int f = 0; f < m; f += stride) mask[f] = 1;
    return mask;
  }

  Matrix features;
  std::vector<float> labels;
  std::vector<int> fit_rows;
  std::vector<int> eval_rows;
  MaskedDnnClassifier classifier;
  std::unique_ptr<SubsetEvaluator> evaluator;
};

// One uncached reward evaluation (the SubsetEvaluator cache-miss path) at
// the given mask density in percent.
void BM_RewardEval(benchmark::State& state) {
  const RewardFixture& fixture = RewardFixture::Get();
  const FeatureMask mask =
      fixture.MaskAtDensity(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.evaluator->EvaluateUncached(mask));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(fixture.eval_rows.size()));
}
BENCHMARK(BM_RewardEval)->Arg(5)->Arg(10)->Arg(50)->Arg(100);

// One greedy per-step action selection on an Emotions-sized observation
// (2m + 3 = 147): the per-environment-step cost of the buffer-filling phase.
void BM_AgentAct(benchmark::State& state) {
  Rng rng(41);
  DqnConfig config;
  config.net.input_dim = 147;
  DqnAgent agent(config, &rng);
  std::vector<float> observation(147);
  for (float& v : observation) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  int action = -1;
  for (auto _ : state) {
    agent.ActBatch(1, observation.data(), &action);
    benchmark::DoNotOptimize(action);
  }
}
BENCHMARK(BM_AgentAct);

// The per-step Q-query cost of the buffer-filling phase with 64 live
// episodes, legacy vs batched: SingleRow issues 64 batch-of-one queries (the
// blocking per-episode path retired by the batched inference plane), Batched
// gathers the same 64 observations into one ActBatch forward pass. Both
// produce bit-identical actions; the batched pass amortizes weight-matrix
// traffic across rows (the 4-row interleave in the NT kernel). Sized at the
// Emotions observation width (147) and the synthetic extreme (2043).
constexpr int kStepInferenceRows = 64;

void BM_StepInferenceSingleRow(benchmark::State& state) {
  const int obs_dim = static_cast<int>(state.range(0));
  Rng rng(43);
  DqnConfig config;
  config.net.input_dim = obs_dim;
  DqnAgent agent(config, &rng);
  std::vector<float> observations(
      static_cast<size_t>(kStepInferenceRows) * obs_dim);
  for (float& v : observations) {
    v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  std::vector<int> actions(kStepInferenceRows);
  for (auto _ : state) {
    for (int r = 0; r < kStepInferenceRows; ++r) {
      agent.ActBatch(1, observations.data() + static_cast<size_t>(r) * obs_dim,
                     &actions[r]);
    }
    benchmark::DoNotOptimize(actions.data());
  }
  state.SetItemsProcessed(state.iterations() * kStepInferenceRows);
}
BENCHMARK(BM_StepInferenceSingleRow)->Arg(147)->Arg(2043);

void BM_StepInferenceBatched(benchmark::State& state) {
  const int obs_dim = static_cast<int>(state.range(0));
  Rng rng(43);
  DqnConfig config;
  config.net.input_dim = obs_dim;
  DqnAgent agent(config, &rng);
  std::vector<float> observations(
      static_cast<size_t>(kStepInferenceRows) * obs_dim);
  for (float& v : observations) {
    v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  std::vector<int> actions(kStepInferenceRows);
  for (auto _ : state) {
    agent.ActBatch(kStepInferenceRows, observations.data(), actions.data());
    benchmark::DoNotOptimize(actions.data());
  }
  state.SetItemsProcessed(state.iterations() * kStepInferenceRows);
}
BENCHMARK(BM_StepInferenceBatched)->Arg(147)->Arg(2043);

// The quantized serving tier's counterpart of BM_StepInferenceBatched: the
// same 64-row batch through QuantizedDuelingNet::PredictBatchInto with the
// greedy argmax consumption the selection scan performs. The acceptance bar
// (DESIGN.md "Quantized serving tier") is >= 2x BM_StepInferenceBatched at
// obs_dim 2043 — int8 quarters weight-matrix traffic, which is what bounds
// the wide serving shapes.
void BM_StepInferenceQuantized(benchmark::State& state) {
  const int obs_dim = static_cast<int>(state.range(0));
  Rng rng(43);
  DqnConfig config;
  config.net.input_dim = obs_dim;
  DuelingNet fp32(config.net, &rng);
  const QuantizedDuelingNet net(config.net, fp32.SerializeParams());
  std::vector<float> observations(
      static_cast<size_t>(kStepInferenceRows) * obs_dim);
  for (float& v : observations) {
    v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  std::vector<float> q(static_cast<size_t>(kStepInferenceRows) * kNumActions);
  std::vector<int> actions(kStepInferenceRows);
  InferenceArena arena;
  for (auto _ : state) {
    net.PredictBatchInto(kStepInferenceRows, observations.data(), &arena,
                         q.data());
    for (int r = 0; r < kStepInferenceRows; ++r) {
      actions[r] = q[static_cast<size_t>(r) * kNumActions + kActionSelect] >
                           q[static_cast<size_t>(r) * kNumActions +
                             kActionDeselect]
                       ? kActionSelect
                       : kActionDeselect;
    }
    benchmark::DoNotOptimize(actions.data());
  }
  state.SetItemsProcessed(state.iterations() * kStepInferenceRows);
}
BENCHMARK(BM_StepInferenceQuantized)->Arg(147)->Arg(2043);

// One-shot post-training quantization of a checkpoint-sized parameter
// vector: the setup cost a serving process pays once before the int8 tier
// answers queries.
void BM_QuantizeCheckpoint(benchmark::State& state) {
  const int obs_dim = static_cast<int>(state.range(0));
  Rng rng(47);
  DqnConfig config;
  config.net.input_dim = obs_dim;
  DuelingNet fp32(config.net, &rng);
  const std::vector<float> params = fp32.SerializeParams();
  for (auto _ : state) {
    QuantizedDuelingNet net(config.net, params);
    benchmark::DoNotOptimize(net.feature_dim());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(params.size()));
}
BENCHMARK(BM_QuantizeCheckpoint)->Arg(147)->Arg(2043);

// Full Algorithm-1 iterations end to end through the step-synchronous
// batched collector (this also pays environment steps, reward evaluations,
// and the parameter-updating phase, not only the step inference above).
struct IterationFixture {
  IterationFixture() {
    SyntheticSpec spec;
    spec.num_instances = 240;
    spec.num_features = 32;
    spec.num_seen_tasks = 3;
    spec.num_unseen_tasks = 1;
    spec.seed = 44;
    dataset = GenerateSynthetic(spec);
    problem =
        std::make_unique<FsProblem>(dataset.table, DefaultProblemConfig(true),
                                    45);
  }
  SyntheticDataset dataset;
  std::unique_ptr<FsProblem> problem;
};

void BM_IterationBatched(benchmark::State& state) {
  IterationFixture fixture;
  FeatConfig config = DefaultFeatOptions(60, 46).feat;
  config.envs_per_iteration = 8;
  Feat feat(fixture.problem.get(), fixture.dataset.SeenTaskIndices(), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat.RunIteration().episodes);
  }
}
BENCHMARK(BM_IterationBatched);

// The sharded collector plane's scaling curve (DESIGN.md "Sharded training
// plane"): collector shards follow num_threads, so /N runs N shards, each
// stepping its own episodes serially on one executor — the scale-out shape.
// 32 episodes/iteration leaves every shard count real work. Shards only add
// wall-clock concurrency when the host has cores to run them on: on a
// multi-core host the collection phase scales with the thread count, while
// a single-core host measures the fan-out overhead (shards run back-to-back
// on one core) and the curve is flat by construction — the "simd"/"num_cpus"
// context keys recorded in the JSON baselines say which case a run measured.
void BM_IterationSharded(benchmark::State& state) {
  const int num_threads = static_cast<int>(state.range(0));
  IterationFixture fixture;
  FeatConfig config = DefaultFeatOptions(60, 46).feat;
  config.envs_per_iteration = 32;
  config.num_threads = num_threads;
  Feat feat(fixture.problem.get(), fixture.dataset.SeenTaskIndices(), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat.RunIteration().episodes);
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_IterationSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- bounded experience-memory plane (DESIGN.md "Bounded memory plane") ---

// Hit-path cost of the tiered reward cache: probe + touch of a resident
// entry under the cache mutex. This is the per-step price every cached
// reward evaluation pays.
void BM_RewardCacheHit(benchmark::State& state) {
  TieredRewardCache cache(/*byte_budget=*/0);
  cache.SetManualEpochControl(true);
  const uint64_t keys = 1024;
  for (uint64_t k = 0; k < keys; ++k) {
    double value = 0.0;
    if (cache.AcquireOrWait({k}, &value) ==
        TieredRewardCache::Probe::kClaimed) {
      cache.Publish({k}, 0.5);
    }
  }
  cache.AdvanceEpoch();
  uint64_t k = 0;
  for (auto _ : state) {
    double value = 0.0;
    benchmark::DoNotOptimize(cache.AcquireOrWait({k++ & (keys - 1)}, &value));
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RewardCacheHit);

// One epoch close under a binding budget: graduate a batch of publishes in
// sorted-key order, then clock-sweep back down to the budget. This is the
// serial-point cost an iteration pays for bounded memory.
void BM_RewardCacheEpochSweep(benchmark::State& state) {
  const int publishes_per_epoch = 256;
  // Budget for ~2048 resident entries; each epoch overshoots by one batch
  // and sweeps back down.
  TieredRewardCache cache(/*byte_budget=*/2048 * 112);
  cache.SetManualEpochControl(true);
  uint64_t k = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < publishes_per_epoch; ++i) {
      double value = 0.0;
      if (cache.AcquireOrWait({k}, &value) ==
          TieredRewardCache::Probe::kClaimed) {
        cache.Publish({k}, 0.5);
      }
      ++k;
    }
    state.ResumeTiming();
    cache.AdvanceEpoch();
  }
  state.SetItemsProcessed(state.iterations() * publishes_per_epoch);
}
BENCHMARK(BM_RewardCacheEpochSweep);

// Trajectory append through the replay buffer, including the FIFO capacity
// eviction it triggers once full.
void BM_ReplayStoreAdd(benchmark::State& state) {
  ReplayConfig config;
  config.capacity_transitions = 4096;
  ReplayBuffer buffer(config);
  Trajectory trajectory;
  trajectory.episode_return = 0.5;
  for (int t = 0; t < 16; ++t) {
    Transition transition;
    transition.state.mask.assign(32, 0);
    transition.next_state.mask.assign(32, 1);
    transition.reward = 0.1f;
    trajectory.transitions.push_back(std::move(transition));
  }
  for (auto _ : state) {
    buffer.AddTrajectory(trajectory, 0.5);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ReplayStoreAdd);

// Fig7-scale training iterations under tight cache + replay budgets: the
// whole bounded plane end to end. 40 warmup iterations run untimed so the
// counters measure steady state, not the cold-start miss burst. The
// budgets are chosen to bind at this workload shape (the unbounded leg's
// per-task cache settles near 130KB and its replay near 300KB, so
// 64KB/256KB per task force continuous eviction churn — the evictions
// counter proves it). The counters are the acceptance evidence (DESIGN.md
// "Bounded memory plane"): resident bytes pin at the budget while the
// bounded leg retains >= 90% of the unbounded leg's steady-state hit rate
// — eviction preys on entries the policy no longer revisits, so bounding
// memory gives back none of the memoization win. (The absolute rate,
// ~0.7-0.8 either leg, is set by the policy's residual exploration, not by
// cache capacity.)
void BM_IterationBounded(benchmark::State& state) {
  const bool bounded = state.range(0) != 0;
  IterationFixture fixture;
  FsProblemConfig problem_config = DefaultProblemConfig(true);
  if (bounded) problem_config.reward_cache_budget_bytes = 64 * 1024;
  FsProblem problem(fixture.dataset.table, problem_config, 45);
  FeatConfig config = DefaultFeatOptions(60, 46).feat;
  config.envs_per_iteration = 8;
  if (bounded) config.replay_budget_bytes = 256 * 1024;
  Feat feat(&problem, fixture.dataset.SeenTaskIndices(), config);
  for (int warmup = 0; warmup < 40; ++warmup) feat.RunIteration();
  long long hits = 0;
  long long misses = 0;
  long long evictions = 0;
  std::size_t cache_bytes = 0;
  std::size_t replay_bytes = 0;
  for (auto _ : state) {
    const IterationStats stats = feat.RunIteration();
    hits += stats.cache_hits;
    misses += stats.cache_misses;
    evictions += stats.cache_evictions;
    cache_bytes = stats.cache_bytes;
    replay_bytes = stats.replay_bytes;
  }
  state.counters["hit_rate"] =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  state.counters["cache_bytes"] = static_cast<double>(cache_bytes);
  state.counters["replay_bytes"] = static_cast<double>(replay_bytes);
  state.counters["evictions"] = static_cast<double>(evictions);
}
BENCHMARK(BM_IterationBounded)->Arg(0)->Arg(1);

void BM_TaskRepresentation(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(12);
  const Matrix features = Matrix::RandomNormal(1000, m, 1.0f, &rng);
  std::vector<float> labels(1000);
  for (float& y : labels) y = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
  std::vector<int> rows(1000);
  for (int i = 0; i < 1000; ++i) rows[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TaskRepresentation(features, labels, rows));
  }
  state.SetItemsProcessed(state.iterations() * 1000LL * m);
}
BENCHMARK(BM_TaskRepresentation)->Arg(16)->Arg(120)->Arg(1020);

void BM_MutualInformationRanking(benchmark::State& state) {
  // K-Best's per-query cost for comparison with BM_TaskRepresentation
  // (the paper argues both are O(n m)).
  const int m = static_cast<int>(state.range(0));
  Rng rng(13);
  const Matrix features = Matrix::RandomNormal(1000, m, 1.0f, &rng);
  std::vector<float> labels(1000);
  for (float& y : labels) y = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
  std::vector<int> rows(1000);
  for (int i = 0; i < 1000; ++i) rows[i] = i;
  for (auto _ : state) {
    double total = 0.0;
    for (int f = 0; f < m; ++f) {
      total += MutualInformationWithLabel(features, f, labels, rows);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_MutualInformationRanking)->Arg(16)->Arg(120);

}  // namespace
}  // namespace pafeat

// Custom main instead of BENCHMARK_MAIN(): every run records the active
// SimdCapability in the benchmark context (the "simd" key in the JSON
// baselines and the console header), so perf numbers are never compared
// across ladder levels by accident. `--print-simd` prints the level and
// exits — run_benches.sh uses it to tag its output.
int main(int argc, char** argv) {
  const char* simd = pafeat::kernels::SimdCapabilityName(
      pafeat::kernels::ActiveSimdCapability());
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--print-simd") == 0) {
      std::printf("%s\n", simd);
      return 0;
    }
  }
  benchmark::AddCustomContext("simd", simd);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
