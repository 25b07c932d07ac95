// Edge cases across modules: degenerate inputs, boundary sizes, and the
// optional agent variants (absolute rewards, double DQN, PopArt layer)
// exercised through the full FEAT pipeline.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/defaults.h"
#include "core/feat.h"
#include "data/feature_mask.h"
#include "data/synthetic.h"

namespace pafeat {
namespace {

SyntheticDataset TinyDataset(uint64_t seed) {
  SyntheticSpec spec;
  spec.num_instances = 200;
  spec.num_features = 8;
  spec.num_seen_tasks = 2;
  spec.num_unseen_tasks = 1;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TEST(EdgeCaseTest, FeatWithAbsoluteRewardsTrains) {
  const SyntheticDataset dataset = TinyDataset(201);
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 202);
  FeatConfig config = DefaultFeatOptions(10, 203).feat;
  config.reward_mode = RewardMode::kAbsolute;
  Feat feat(&problem, dataset.SeenTaskIndices(), config);
  feat.Train(10);
  // Absolute rewards live in [0, 1].
  for (const Trajectory* trajectory :
       feat.task_runtime(0).buffer->RecentTrajectories(5)) {
    for (const Transition& t : trajectory->transitions) {
      EXPECT_GE(t.reward, 0.0f);
      EXPECT_LE(t.reward, 1.0f);
    }
  }
  double exec = 0.0;
  const FeatureMask mask =
      feat.SelectForTask(dataset.UnseenTaskIndices()[0], &exec);
  EXPECT_GE(MaskCount(mask), 1);
}

TEST(EdgeCaseTest, CheckpointRoundTripsPopArtArchitecture) {
  const SyntheticDataset dataset = TinyDataset(209);
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 210);
  FeatConfig config = DefaultFeatOptions(5, 211).feat;
  config.dqn.use_popart = true;
  config.dqn.net.extra_rescale_layer = true;
  Feat feat(&problem, dataset.SeenTaskIndices(), config);
  feat.Train(5);

  const std::string path = ::testing::TempDir() + "/popart.ckpt";
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(feat), path));
  const auto restored = CheckpointedSelector::FromFile(path);
  ASSERT_TRUE(restored.has_value());
  const std::vector<float> repr = problem.ComputeTaskRepresentation(0);
  EXPECT_EQ(restored->SelectForRepresentation(repr),
            feat.SelectForRepresentation(repr));
  std::remove(path.c_str());
}

TEST(EdgeCaseTest, SingleSeenTaskWorks) {
  // FEAT degenerates gracefully to single-task DQN (the SADRLFS path).
  const SyntheticDataset dataset = TinyDataset(213);
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 214);
  Feat feat(&problem, {0}, DefaultFeatOptions(8, 215).feat);
  const IterationStats stats = feat.RunIteration();
  ASSERT_EQ(stats.task_probabilities.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.task_probabilities[0], 1.0);
}

TEST(EdgeCaseTest, ThreadsExceedingEpisodesClamp) {
  const SyntheticDataset dataset = TinyDataset(217);
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 218);
  FeatConfig config = DefaultFeatOptions(5, 219).feat;
  config.envs_per_iteration = 2;
  config.num_threads = 16;  // more threads than episodes
  Feat feat(&problem, dataset.SeenTaskIndices(), config);
  const IterationStats stats = feat.RunIteration();
  EXPECT_EQ(stats.episodes, 2);
}

TEST(EdgeCaseTest, MaskKeyPacksBitsAtByteBoundaries) {
  // 8 and 9 features straddle the byte boundary of the packed key.
  FeatureMask eight(8, 1);
  FeatureMask nine(9, 1);
  EXPECT_EQ(MaskKey(eight).size(), 1u);
  EXPECT_EQ(MaskKey(nine).size(), 2u);
  FeatureMask bit7(8, 0);
  bit7[7] = 1;
  FeatureMask bit0(8, 0);
  bit0[0] = 1;
  EXPECT_NE(MaskKey(bit7), MaskKey(bit0));
  // The 9th feature's bit lands in the second byte.
  FeatureMask bit8(9, 0);
  bit8[8] = 1;
  EXPECT_EQ(MaskKey(bit8)[0], '\0');
  EXPECT_NE(MaskKey(bit8)[1], '\0');
}

TEST(EdgeCaseDeathTest, SampleDiscreteRejectsAllZeroWeights) {
  Rng rng(221);
  EXPECT_DEATH(rng.SampleDiscrete({0.0, 0.0}), "Check failed");
}

TEST(EdgeCaseDeathTest, NegativeWeightRejected) {
  Rng rng(223);
  EXPECT_DEATH(rng.SampleDiscrete({0.5, -0.1}), "Check failed");
}

}  // namespace
}  // namespace pafeat
