// The draw-order contract of EpisodeDriver (rl/episode_driver.h): which
// values a step draws from the episode stream, in which order. Each test
// replays the expected draws on a copy of the episode Rng and compares the
// stream states, so an extra, missing or reordered draw fails here before it
// shows up as a moved golden training digest.

#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/masked_dnn.h"
#include "ml/subset_evaluator.h"
#include "rl/episode_driver.h"
#include "rl/fs_env.h"
#include "tensor/matrix.h"

namespace pafeat {
namespace {

constexpr int kFeatures = 6;

bool SameStream(const Rng& a, const Rng& b) {
  return a.SaveState() == b.SaveState();
}

class EpisodeDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(13);
    features_ = Matrix::RandomNormal(120, kFeatures, 1.0f, &rng);
    labels_.resize(120);
    rows_.resize(120);
    for (int r = 0; r < 120; ++r) {
      labels_[r] = features_.At(r, 2) > 0.0f ? 1.0f : 0.0f;
      rows_[r] = r;
    }
    MaskedDnnConfig config;
    config.hidden_dims = {8};
    config.epochs = 2;
    classifier_ = std::make_unique<MaskedDnnClassifier>(config);
    classifier_->Fit(features_, labels_, rows_, &rng);
    evaluator_ = std::make_unique<SubsetEvaluator>(&features_, labels_, rows_,
                                                   classifier_.get());
    env_ = std::make_unique<FeatureSelectionEnv>(
        std::vector<float>{0.1f, 0.2f, 0.9f, 0.3f, 0.4f, 0.5f},
        evaluator_.get(), /*max_feature_ratio=*/1.0);
  }

  // Advances `driver` one step with a shaper that checks the stream against
  // `replay` at the point the shaper runs (after PlanStep and the
  // environment step) and draws nothing itself.
  void ApplyExpectingStream(EpisodeDriver* driver, const Rng& replay) {
    bool called = false;
    driver->ApplyAction([&](double raw, Rng* rng) {
      called = true;
      EXPECT_TRUE(SameStream(*rng, replay));
      return raw;
    });
    EXPECT_TRUE(called);
  }

  Matrix features_;
  std::vector<float> labels_;
  std::vector<int> rows_;
  std::unique_ptr<MaskedDnnClassifier> classifier_;
  std::unique_ptr<SubsetEvaluator> evaluator_;
  std::unique_ptr<FeatureSelectionEnv> env_;
};

TEST_F(EpisodeDriverTest, RandomPolicyStepDrawsOnlyTheAction) {
  const Rng stream(101);
  EnvState start;
  start.mask.assign(kFeatures, 0);
  start.position = 1;
  EpisodeDriver driver(*env_, stream);
  driver.StartFrom(start, /*prefix=*/{0}, /*random_policy=*/true);
  Rng replay = stream;
  while (!driver.done()) {
    // Any epsilon: a random-policy rollout never draws the Bernoulli.
    EXPECT_FALSE(driver.PlanStep(/*epsilon=*/0.5f));
    const int expected = replay.UniformInt(kNumActions);
    ApplyExpectingStream(&driver, replay);
    EXPECT_EQ(driver.actions().back(), expected);
  }
  // The prefix leads the decision path; one applied action per scan step.
  ASSERT_EQ(static_cast<int>(driver.actions().size()), kFeatures);
  EXPECT_EQ(driver.actions().front(), 0);
}

TEST_F(EpisodeDriverTest, PolicyStepDrawsBernoulliThenActionWhenExploring) {
  const Rng stream(202);
  const float epsilon = 0.5f;
  EpisodeDriver driver(*env_, stream);
  driver.StartDefault();
  Rng replay = stream;
  int explored = 0;
  int queried = 0;
  while (!driver.done()) {
    const bool explore = replay.Bernoulli(epsilon);
    const bool wants_query = driver.PlanStep(epsilon);
    EXPECT_EQ(wants_query, !explore);
    int expected;
    if (explore) {
      expected = replay.UniformInt(kNumActions);
      ++explored;
    } else {
      // The Q answer is the caller's; it draws nothing.
      expected = queried % 2 == 0 ? kActionSelect : kActionDeselect;
      driver.SetPlannedAction(expected);
      ++queried;
    }
    ApplyExpectingStream(&driver, replay);
    EXPECT_EQ(driver.actions().back(), expected);
  }
  // The seed exercises both branches, or the test shows nothing.
  EXPECT_GT(explored, 0);
  EXPECT_GT(queried, 0);
}

TEST_F(EpisodeDriverTest, ZeroEpsilonAlwaysQueriesAndDrawsNoAction) {
  const Rng stream(303);
  EpisodeDriver driver(*env_, stream);
  driver.StartDefault();
  Rng replay = stream;
  int steps = 0;
  while (!driver.done()) {
    ASSERT_TRUE(driver.PlanStep(/*epsilon=*/0.0f));
    // Only the Bernoulli itself was drawn.
    EXPECT_FALSE(replay.Bernoulli(0.0));
    driver.SetPlannedAction(kActionDeselect);
    ApplyExpectingStream(&driver, replay);
    ++steps;
  }
  EXPECT_EQ(steps, kFeatures);
}

TEST_F(EpisodeDriverTest, TerminalStartFallsBackToDefaultStart) {
  const Rng stream(404);
  EnvState terminal;
  terminal.mask.assign(kFeatures, 0);
  terminal.position = kFeatures;  // scan already complete
  EpisodeDriver driver(*env_, stream);
  driver.StartFrom(terminal, /*prefix=*/{1, 0, 1}, /*random_policy=*/true);
  ASSERT_FALSE(driver.done());
  // The prefix is dropped ...
  EXPECT_TRUE(driver.actions().empty());
  // ... and so is the random-policy flag: with epsilon 0 a policy step asks
  // for a Q query, where a random-policy step would have drawn its action.
  Rng replay = stream;
  ASSERT_TRUE(driver.PlanStep(/*epsilon=*/0.0f));
  replay.Bernoulli(0.0);
  driver.SetPlannedAction(kActionSelect);
  ApplyExpectingStream(&driver, replay);
  while (!driver.done()) {
    ASSERT_TRUE(driver.PlanStep(0.0f));
    driver.SetPlannedAction(kActionDeselect);
    driver.ApplyAction(nullptr);
  }
  // The episode ran from the default start: empty subset, position 0.
  const Trajectory trajectory = driver.TakeTrajectory();
  ASSERT_EQ(static_cast<int>(trajectory.transitions.size()), kFeatures);
  EXPECT_EQ(trajectory.transitions.front().state.position, 0);
  EXPECT_EQ(MaskCount(trajectory.transitions.front().state.mask), 0);
}

TEST_F(EpisodeDriverTest, RewardShaperDrawsOnTheEpisodeStreamInApplyAction) {
  const Rng stream(505);
  const float epsilon = 0.3f;
  EpisodeDriver driver(*env_, stream);
  driver.StartDefault();
  Rng replay = stream;
  std::vector<double> expected_rewards;
  while (!driver.done()) {
    const bool explore = replay.Bernoulli(epsilon);
    if (driver.PlanStep(epsilon)) {
      driver.SetPlannedAction(kActionSelect);
    }
    if (explore) replay.UniformInt(kNumActions);
    // The shaper runs on the stream right after this step's PlanStep draws,
    // and its own draw lands before the next step's Bernoulli.
    const Rng at_shaper = replay;
    const double noise = replay.Uniform();
    driver.ApplyAction([&](double raw, Rng* rng) {
      EXPECT_TRUE(SameStream(*rng, at_shaper));
      const double drawn = rng->Uniform();
      EXPECT_EQ(drawn, noise);
      expected_rewards.push_back(raw + drawn);
      return raw + drawn;
    });
  }
  const Trajectory trajectory = driver.TakeTrajectory();
  ASSERT_EQ(trajectory.transitions.size(), expected_rewards.size());
  for (std::size_t t = 0; t < expected_rewards.size(); ++t) {
    EXPECT_EQ(trajectory.transitions[t].reward,
              static_cast<float>(expected_rewards[t]))
        << "step " << t;
  }
}

}  // namespace
}  // namespace pafeat
