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

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/defaults.h"
#include "core/pafeat.h"
#include "data/synthetic.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace {

constexpr std::uint64_t kGoldenDigestGeneric = 0x6b152b2ea3561defULL;
constexpr std::uint64_t kGoldenDigestX86Simd = 0xde06ad1520a454afULL;

std::uint64_t ExpectedDigest() {
  return kernels::ActiveSimdCapability() == kernels::SimdCapability::kGeneric
             ? kGoldenDigestGeneric
             : kGoldenDigestX86Simd;
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

}  // namespace
}  // namespace pafeat
