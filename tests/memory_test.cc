// The bounded experience-memory plane (DESIGN.md "Bounded memory plane"):
// the tiered reward cache's budget/eviction/telemetry contracts, the replay
// buffer's byte-budget eviction order, and the end-to-end determinism claim
// — training under a forced-eviction budget is bit-identical at any thread
// count and any collector shard count.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/defaults.h"
#include "core/feat.h"
#include "data/synthetic.h"
#include "memory/persistence.h"
#include "memory/reward_cache.h"
#include "rl/replay_buffer.h"

namespace pafeat {
namespace {

PackedMask Key(uint64_t word) { return PackedMask{word}; }

// Bytes one resident entry costs, measured on a throwaway cache so the
// budget tests track the implementation's own accounting.
std::size_t OneEntryBytes() {
  TieredRewardCache cache(/*byte_budget=*/0);
  cache.SetManualEpochControl(true);
  double value = 0.0;
  EXPECT_EQ(cache.AcquireOrWait(Key(1), &value),
            TieredRewardCache::Probe::kClaimed);
  cache.Publish(Key(1), 0.5);
  return cache.bytes();
}

double MustClaimAndPublish(TieredRewardCache* cache, const PackedMask& key,
                           double value) {
  double out = 0.0;
  EXPECT_EQ(cache->AcquireOrWait(key, &out),
            TieredRewardCache::Probe::kClaimed);
  cache->Publish(key, value);
  return value;
}

TEST(TieredRewardCacheTest, HitMissAndWindowedTraffic) {
  TieredRewardCache cache(/*byte_budget=*/0);
  cache.SetManualEpochControl(true);
  MustClaimAndPublish(&cache, Key(7), 0.25);

  double value = 0.0;
  EXPECT_EQ(cache.AcquireOrWait(Key(7), &value),
            TieredRewardCache::Probe::kHit);
  EXPECT_EQ(value, 0.25);

  EXPECT_EQ(cache.total_misses(), 1);
  EXPECT_EQ(cache.total_hits(), 1);

  // The window drains exactly once; running totals persist.
  const MemoryTraffic window = cache.TakeTraffic();
  EXPECT_EQ(window.misses, 1);
  EXPECT_EQ(window.hits, 1);
  EXPECT_EQ(window.evictions, 0);
  const MemoryTraffic empty = cache.TakeTraffic();
  EXPECT_EQ(empty.misses, 0);
  EXPECT_EQ(empty.hits, 0);
  EXPECT_EQ(cache.total_misses(), 1);
  EXPECT_EQ(cache.total_hits(), 1);
}

TEST(TieredRewardCacheTest, SweepEnforcesBudgetAfterHotProtectionExpires) {
  const std::size_t entry = OneEntryBytes();
  TieredRewardCache cache(/*byte_budget=*/2 * entry);
  cache.SetManualEpochControl(true);
  for (uint64_t k = 0; k < 6; ++k) {
    MustClaimAndPublish(&cache, Key(k), static_cast<double>(k));
  }
  // Everything published this epoch is hot: the closing sweep may overshoot
  // the budget rather than evict values the running iteration produced.
  cache.AdvanceEpoch();
  EXPECT_EQ(cache.live_entries(), 6u);
  // One epoch later the entries are cold and the sweep fits the budget.
  cache.AdvanceEpoch();
  EXPECT_LE(cache.bytes(), 2 * entry);
  EXPECT_GT(cache.total_evictions(), 0);
}

TEST(TieredRewardCacheTest, TouchedEntriesSurviveTheSweep) {
  const std::size_t entry = OneEntryBytes();
  TieredRewardCache cache(/*byte_budget=*/2 * entry);
  cache.SetManualEpochControl(true);
  for (uint64_t k = 0; k < 6; ++k) {
    MustClaimAndPublish(&cache, Key(k), static_cast<double>(k));
  }
  cache.AdvanceEpoch();
  // Touch key 3 in the new epoch: it is hot for the next sweep.
  double value = 0.0;
  EXPECT_EQ(cache.AcquireOrWait(Key(3), &value),
            TieredRewardCache::Probe::kHit);
  cache.AdvanceEpoch();
  EXPECT_LE(cache.bytes(), 3 * entry);  // hot set may overshoot by key 3

  std::vector<std::pair<PackedMask, double>> entries;
  cache.ExportEntries(&entries);
  bool found = false;
  for (const auto& [key, v] : entries) {
    if (key == Key(3)) {
      found = true;
      EXPECT_EQ(v, 3.0);
    }
  }
  EXPECT_TRUE(found) << "the entry hit this epoch must not be evicted";
}

TEST(TieredRewardCacheTest, EvictionIsInsensitiveToPublishOrder) {
  // Two caches see the same per-epoch publish and hit *sets* in different
  // orders — the slab layout and the whole eviction sequence must match
  // (this is what makes cache telemetry thread-count invariant).
  const std::size_t entry = OneEntryBytes();
  TieredRewardCache forward(/*byte_budget=*/3 * entry);
  TieredRewardCache backward(/*byte_budget=*/3 * entry);
  forward.SetManualEpochControl(true);
  backward.SetManualEpochControl(true);

  for (int epoch = 0; epoch < 4; ++epoch) {
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 5; ++k) {
      keys.push_back(static_cast<uint64_t>(epoch) * 4 + k);  // overlapping
    }
    for (uint64_t k : keys) {
      double value = 0.0;
      if (forward.AcquireOrWait(Key(k), &value) ==
          TieredRewardCache::Probe::kClaimed) {
        forward.Publish(Key(k), static_cast<double>(k));
      }
    }
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
      double value = 0.0;
      if (backward.AcquireOrWait(Key(*it), &value) ==
          TieredRewardCache::Probe::kClaimed) {
        backward.Publish(Key(*it), static_cast<double>(*it));
      }
    }
    forward.AdvanceEpoch();
    backward.AdvanceEpoch();
    EXPECT_EQ(forward.total_evictions(), backward.total_evictions())
        << "epoch " << epoch;
  }

  std::vector<std::pair<PackedMask, double>> a, b;
  forward.ExportEntries(&a);
  backward.ExportEntries(&b);
  EXPECT_EQ(a, b);
}

TEST(TieredRewardCacheTest, UnboundedCacheNeverEvicts) {
  TieredRewardCache cache(/*byte_budget=*/0);
  cache.SetManualEpochControl(true);
  for (uint64_t k = 0; k < 200; ++k) {
    MustClaimAndPublish(&cache, Key(k), static_cast<double>(k));
    if (k % 10 == 0) cache.AdvanceEpoch();
  }
  cache.AdvanceEpoch();
  cache.AdvanceEpoch();
  EXPECT_EQ(cache.live_entries(), 200u);
  EXPECT_EQ(cache.total_evictions(), 0);
}

TEST(TieredRewardCacheTest, ImportBypassesTrafficAndDuplicates) {
  TieredRewardCache cache(/*byte_budget=*/0);
  cache.SetManualEpochControl(true);
  cache.ImportEntry(Key(11), 0.75);
  cache.ImportEntry(Key(11), 0.25);  // duplicate import: first value wins
  const MemoryTraffic window = cache.TakeTraffic();
  EXPECT_EQ(window.hits, 0);
  EXPECT_EQ(window.misses, 0);

  double value = 0.0;
  EXPECT_EQ(cache.AcquireOrWait(Key(11), &value),
            TieredRewardCache::Probe::kHit);
  EXPECT_EQ(value, 0.75);
  EXPECT_EQ(cache.live_entries(), 1u);
}

Trajectory MakeTrajectory(int transitions, double episode_return,
                          int num_features = 6) {
  Trajectory trajectory;
  trajectory.episode_return = episode_return;
  for (int t = 0; t < transitions; ++t) {
    Transition transition;
    transition.state.mask.assign(num_features, 0);
    transition.state.position = t;
    transition.next_state.mask.assign(num_features, 1);
    transition.next_state.position = t + 1;
    transition.action = t % 2;
    transition.reward = static_cast<float>(episode_return / transitions);
    transition.done = t + 1 == transitions;
    trajectory.transitions.push_back(std::move(transition));
  }
  return trajectory;
}

// Text image of the buffer, oldest first: "return:priority" per stored
// trajectory. The tests below store each trajectory's arrival index as its
// episode return, so the image names the survivors by arrival.
std::string DumpBuffer(const ReplayBuffer& buffer) {
  std::ostringstream out;
  buffer.ForEachStored([&](const Trajectory& trajectory, double priority) {
    out << trajectory.episode_return << ':' << priority << ' ';
  });
  return out.str();
}

TEST(ReplayBufferTest, BudgetEvictionOrderIsLowestPriorityThenSequence) {
  // Priorities collide on purpose so the sequence tie-break matters.
  const double priorities[] = {0.5, 0.2, 0.5, 0.9, 0.2, 0.7, 0.1, 0.5};
  ReplayBuffer unbounded(ReplayConfig{});
  for (int i = 0; i < 8; ++i) {
    unbounded.AddTrajectory(MakeTrajectory(4, i), priorities[i]);
  }
  const std::size_t bytes_total = unbounded.bytes();

  // Half the bytes hold four of the eight equal-sized trajectories. The
  // victims are the lowest (priority, sequence) pairs: (0.1, 6), (0.2, 1),
  // (0.2, 4), then (0.5, 0), the oldest of the three at 0.5.
  ReplayConfig config;
  config.byte_budget = bytes_total / 2;
  ReplayBuffer bounded(config);
  for (int i = 0; i < 8; ++i) {
    bounded.AddTrajectory(MakeTrajectory(4, i), priorities[i]);
  }
  const std::string survivors = DumpBuffer(bounded);
  EXPECT_EQ(survivors, "2:0.5 3:0.9 5:0.7 7:0.5 ");
  EXPECT_EQ(bounded.evictions(), 4);

  // The lowest-priority trajectory (priority 0.1, sequence 6) dies first.
  EXPECT_EQ(survivors.find("6:0.1"), std::string::npos);
  EXPECT_LE(bounded.bytes(), bytes_total / 2);
}

TEST(ReplayBufferTest, BudgetEvictionKeepsAtLeastOne) {
  ReplayConfig config;
  config.byte_budget = 1;  // impossibly tight
  ReplayBuffer buffer(config);
  for (int i = 0; i < 4; ++i) {
    buffer.AddTrajectory(MakeTrajectory(3, i), /*priority=*/i);
  }
  EXPECT_EQ(buffer.num_trajectories(), 1);
  // The survivor is the highest-(priority, sequence) trajectory.
  EXPECT_EQ(DumpBuffer(buffer), "3:3 ");
}

// --- byte codec -------------------------------------------------------------

TEST(ByteReaderTest, CountsAreBoundedByTheBytesPresent) {
  ByteWriter writer;
  writer.Vector(std::vector<float>{1.5f, -2.0f});
  writer.U64(3);
  const std::vector<std::uint8_t> bytes = writer.Take();
  ASSERT_EQ(bytes.size(), 8u + 8u + 8u);

  ByteReader reader(bytes);
  std::vector<float> floats;
  ASSERT_TRUE(reader.Vector(&floats));
  EXPECT_EQ(floats, (std::vector<float>{1.5f, -2.0f}));
  EXPECT_TRUE(reader.Fits(2, 4));  // 8 bytes remain
  EXPECT_TRUE(reader.Fits(0, 1));
  EXPECT_FALSE(reader.Fits(9, 1));
  EXPECT_FALSE(reader.ok());  // sticky
  EXPECT_FALSE(reader.Fits(0, 1));
}

TEST(ByteReaderTest, HugeVectorCountIsRejectedBeforeAllocating) {
  for (const std::uint64_t count :
       {std::uint64_t{1} << 31, ~std::uint64_t{0}, std::uint64_t{3}}) {
    ByteWriter writer;
    writer.U64(count);
    writer.F64(1.0);  // 8 payload bytes: room for two floats, one double
    const std::vector<std::uint8_t> bytes = writer.Take();
    ByteReader f32(bytes);
    std::vector<float> floats;
    EXPECT_FALSE(f32.Vector(&floats)) << count;
    EXPECT_TRUE(floats.empty());
    ByteReader f64(bytes);
    std::vector<double> doubles;
    EXPECT_FALSE(f64.Vector(&doubles)) << count;
    EXPECT_TRUE(doubles.empty());
  }
}

// --- end-to-end: forced-eviction training determinism ----------------------

SyntheticDataset MemoryDataset() {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 10;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 1;
  spec.seed = 29;
  return GenerateSynthetic(spec);
}

std::string DumpBuffers(const Feat& feat) {
  std::ostringstream out;
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    const ReplayBuffer& buffer = *feat.task_runtime(slot).buffer;
    out << "slot " << slot << " transitions " << buffer.num_transitions()
        << "\n";
    buffer.ForEachStored([&](const Trajectory& trajectory, double priority) {
      uint64_t return_bits = 0;
      std::memcpy(&return_bits, &trajectory.episode_return,
                  sizeof(return_bits));
      uint64_t priority_bits = 0;
      std::memcpy(&priority_bits, &priority, sizeof(priority_bits));
      out << ' ' << return_bits << '/' << priority_bits << '/'
          << trajectory.transitions.size() << '\n';
    });
  }
  return out.str();
}

struct BoundedOutcome {
  std::vector<float> params;
  std::string buffers;
  std::vector<IterationStats> stats;
};

BoundedOutcome RunBoundedTraining(int num_threads) {
  SyntheticDataset dataset = MemoryDataset();
  FsProblemConfig problem_config = DefaultProblemConfig(true);
  // Tight enough that both planes evict continuously at this scale.
  problem_config.reward_cache_budget_bytes = 4096;
  FsProblem problem(dataset.table, problem_config, 19);
  FeatConfig config = DefaultFeatOptions(50, 23).feat;
  config.envs_per_iteration = 8;
  config.num_threads = num_threads;
  config.replay_budget_bytes = 8192;
  Feat feat(&problem, dataset.SeenTaskIndices(), config);
  BoundedOutcome outcome;
  for (int i = 0; i < 8; ++i) {
    outcome.stats.push_back(feat.RunIteration());
  }
  outcome.params = feat.agent().online_net().SerializeParams();
  outcome.buffers = DumpBuffers(feat);
  return outcome;
}

void ExpectSameBoundedOutcome(const BoundedOutcome& base,
                              const BoundedOutcome& other,
                              const std::string& label) {
  ASSERT_EQ(base.params.size(), other.params.size());
  for (std::size_t i = 0; i < base.params.size(); ++i) {
    ASSERT_EQ(base.params[i], other.params[i]) << "param " << i << " " << label;
  }
  EXPECT_EQ(base.buffers, other.buffers) << label;
  ASSERT_EQ(base.stats.size(), other.stats.size());
  for (std::size_t i = 0; i < base.stats.size(); ++i) {
    ASSERT_EQ(base.stats[i].mean_loss, other.stats[i].mean_loss)
        << "iteration " << i << " " << label;
    ASSERT_EQ(base.stats[i].cache_hits, other.stats[i].cache_hits)
        << "iteration " << i << " " << label;
    ASSERT_EQ(base.stats[i].cache_misses, other.stats[i].cache_misses)
        << "iteration " << i << " " << label;
    ASSERT_EQ(base.stats[i].cache_evictions, other.stats[i].cache_evictions)
        << "iteration " << i << " " << label;
    ASSERT_EQ(base.stats[i].replay_evictions, other.stats[i].replay_evictions)
        << "iteration " << i << " " << label;
    ASSERT_EQ(base.stats[i].cache_bytes, other.stats[i].cache_bytes)
        << "iteration " << i << " " << label;
    ASSERT_EQ(base.stats[i].replay_bytes, other.stats[i].replay_bytes)
        << "iteration " << i << " " << label;
  }
}

TEST(BoundedTrainingTest, ForcedEvictionIsThreadAndShardCountInvariant) {
  const BoundedOutcome base = RunBoundedTraining(/*num_threads=*/1);

  // The budgets must actually bind, or this test proves nothing.
  long long cache_evictions = 0;
  long long replay_evictions = 0;
  for (const IterationStats& stats : base.stats) {
    cache_evictions += stats.cache_evictions;
    replay_evictions += stats.replay_evictions;
  }
  ASSERT_GT(cache_evictions, 0) << "cache budget did not bind";
  ASSERT_GT(replay_evictions, 0) << "replay budget did not bind";

  // Collector shards follow the thread count, so these cover the shard
  // counts too.
  ExpectSameBoundedOutcome(base, RunBoundedTraining(4), "4 threads");
  ExpectSameBoundedOutcome(base, RunBoundedTraining(8), "8 threads");
}

}  // namespace
}  // namespace pafeat
