// Golden digest of a bounded PA-FEAT training run. The other determinism
// tests compare configurations within one build; this one pins the bits
// themselves, so a refactor that claims "same results from less code" has
// to reproduce the exact training state of the code it replaced.
//
// The digest covers PaFeat::SerializeTrainingState() (RNG stream, iteration
// index, target network, optimizer and PopArt state, replay contents with
// priorities, reward-cache entries, Experience-Trees) followed by the online
// parameters, after 8 iterations with the ITS and ITE on and with reward
// cache and replay byte budgets that both evict. It must be the same at
// every thread count (collector shards follow the thread count).
//
// fp32 results are a function of the active SIMD level: the portable kernels
// round differently from FMA hardware, while avx2 and avx512 are
// bit-identical to each other (DESIGN.md "SIMD capability ladder"). So there
// is one digest per kernel family. If a change moves them on purpose (a new
// RNG draw, a different byte charge, a format change), re-record both and
// say why in the change description.
//
// A second case pins plain FEAT (uniform scheduler, unbounded memory) on the
// BatchedTrainingTest configuration, digesting what the old blocking
// collection path was compared on field by field: the online parameters, the
// exact replay contents, each iteration's loss and task-probability bits,
// and the unseen-task selections. Its digests were recorded with the
// step-synchronous collector and the blocking reference path agreeing, so
// they stand in for that reference: a change to the episode draw order
// (EpisodeDriver::PlanStep / ApplyAction) moves them.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/defaults.h"
#include "core/feat.h"
#include "core/pafeat.h"
#include "data/synthetic.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace {

constexpr std::uint64_t kGoldenDigestGeneric = 0x6b152b2ea3561defULL;
constexpr std::uint64_t kGoldenDigestX86Simd = 0xde06ad1520a454afULL;
constexpr std::uint64_t kFeatDigestGeneric = 0xbb25225918212232ULL;
constexpr std::uint64_t kFeatDigestX86Simd = 0x9fc5de1dfc44d56cULL;

bool GenericKernels() {
  return kernels::ActiveSimdCapability() == kernels::SimdCapability::kGeneric;
}

std::uint64_t ExpectedDigest() {
  return GenericKernels() ? kGoldenDigestGeneric : kGoldenDigestX86Simd;
}

// FNV-1a, 64-bit.
class Digest {
 public:
  void Add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void AddValue(const T& value) {
    Add(&value, sizeof(value));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct GoldenRun {
  std::uint64_t digest = 0;
  long long cache_evictions = 0;
  long long replay_evictions = 0;
};

GoldenRun RunGoldenTraining(int num_threads) {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 10;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 1;
  spec.seed = 29;
  const SyntheticDataset dataset = GenerateSynthetic(spec);

  FsProblemConfig problem_config = DefaultProblemConfig(true);
  problem_config.reward_cache_budget_bytes = 4096;
  FsProblem problem(dataset.table, problem_config, 19);

  PaFeatConfig config;
  config.feat = DefaultFeatOptions(50, 23).feat;
  config.feat.envs_per_iteration = 8;
  config.feat.num_threads = num_threads;
  config.feat.replay_budget_bytes = 8192;
  config.use_its = true;
  PaFeat pafeat(&problem, dataset.SeenTaskIndices(), config);

  GoldenRun run;
  for (int i = 0; i < 8; ++i) {
    const IterationStats stats = pafeat.RunIteration();
    run.cache_evictions += stats.cache_evictions;
    run.replay_evictions += stats.replay_evictions;
  }
  Digest digest;
  const std::vector<std::uint8_t> blob = pafeat.SerializeTrainingState();
  digest.Add(blob.data(), blob.size());
  const std::vector<float> params =
      pafeat.feat().agent().online_net().SerializeParams();
  digest.Add(params.data(), params.size() * sizeof(float));
  run.digest = digest.value();
  return run;
}

TEST(GoldenTrainingTest, BoundedRunMatchesRecordedDigest) {
  const std::uint64_t expected = ExpectedDigest();
  for (int num_threads : {1, 3, 8}) {
    const GoldenRun run = RunGoldenTraining(num_threads);
    // Both budgets must bind, or the digest does not pin eviction.
    EXPECT_GT(run.cache_evictions, 0);
    EXPECT_GT(run.replay_evictions, 0);
    EXPECT_EQ(run.digest, expected)
        << std::hex << "digest 0x" << run.digest << " at " << std::dec
        << num_threads << " threads";
  }
}

// Plain FEAT, m=10, 4 environments per iteration, 10 iterations.
std::uint64_t RunFeatGoldenTraining(int num_threads) {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 10;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 2;
  spec.seed = 17;
  const SyntheticDataset dataset = GenerateSynthetic(spec);
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 19);

  FeatConfig config = DefaultFeatOptions(50, 23).feat;
  config.envs_per_iteration = 4;
  config.max_feature_ratio = 0.5;
  config.num_threads = num_threads;
  Feat feat(&problem, dataset.SeenTaskIndices(), config);

  Digest digest;
  for (int i = 0; i < 10; ++i) {
    const IterationStats stats = feat.RunIteration();
    digest.AddValue(stats.mean_loss);
    digest.AddValue(stats.episodes);
    for (const double p : stats.task_probabilities) digest.AddValue(p);
  }
  const std::vector<float> params =
      feat.agent().online_net().SerializeParams();
  digest.Add(params.data(), params.size() * sizeof(float));
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    feat.task_runtime(slot).buffer->ForEachStored(
        [&](const Trajectory& trajectory, double priority) {
          digest.AddValue(priority);
          digest.AddValue(trajectory.episode_return);
          for (const Transition& t : trajectory.transitions) {
            digest.AddValue(t.state.position);
            digest.Add(t.state.mask.data(), t.state.mask.size());
            digest.AddValue(t.action);
            digest.AddValue(t.reward);
            digest.AddValue(t.next_state.position);
            digest.Add(t.next_state.mask.data(), t.next_state.mask.size());
            digest.AddValue(t.done);
          }
        });
  }
  for (const int label_index : dataset.UnseenTaskIndices()) {
    const FeatureMask mask = feat.SelectForRepresentation(
        problem.ComputeTaskRepresentation(label_index));
    digest.Add(mask.data(), mask.size());
  }
  return digest.value();
}

TEST(GoldenTrainingTest, FeatRunMatchesRecordedDigest) {
  const std::uint64_t expected =
      GenericKernels() ? kFeatDigestGeneric : kFeatDigestX86Simd;
  for (int num_threads : {1, 8}) {
    const std::uint64_t digest = RunFeatGoldenTraining(num_threads);
    EXPECT_EQ(digest, expected)
        << std::hex << "digest 0x" << digest << " at " << std::dec
        << num_threads << " threads";
  }
}

}  // namespace
}  // namespace pafeat
