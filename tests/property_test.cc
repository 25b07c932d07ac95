// Parameterized property suites over the core invariants: environment
// episode algebra across feature counts and budgets, E-Tree consistency
// under random trajectory streams, ITS probability-simplex properties, and
// reward-mode equivalences.
#include <cmath>
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/etree.h"
#include "core/its.h"
#include "ml/masked_dnn.h"
#include "ml/subset_evaluator.h"
#include "rl/fs_env.h"

namespace pafeat {
namespace {

// Shared tiny evaluator so environment sweeps do not retrain classifiers.
class EnvPropertyBase {
 protected:
  explicit EnvPropertyBase(int num_features) : num_features_(num_features) {
    Rng rng(100 + num_features);
    features_ = Matrix::RandomNormal(120, num_features, 1.0f, &rng);
    labels_.resize(120);
    rows_.resize(120);
    for (int r = 0; r < 120; ++r) {
      labels_[r] = features_.At(r, 0) > 0.0f ? 1.0f : 0.0f;
      rows_[r] = r;
    }
    MaskedDnnConfig config;
    config.epochs = 2;
    classifier_ = std::make_unique<MaskedDnnClassifier>(config);
    classifier_->Fit(features_, labels_, rows_, &rng);
    evaluator_ = std::make_unique<SubsetEvaluator>(&features_, labels_, rows_,
                                                   classifier_.get());
    repr_.assign(num_features, 0.1f);
    repr_[0] = 0.9f;
  }

  int num_features_;
  Matrix features_;
  std::vector<float> labels_;
  std::vector<int> rows_;
  std::unique_ptr<MaskedDnnClassifier> classifier_;
  std::unique_ptr<SubsetEvaluator> evaluator_;
  std::vector<float> repr_;
};

class EnvEpisodeSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>,
      protected EnvPropertyBase {
 protected:
  EnvEpisodeSweep() : EnvPropertyBase(std::get<0>(GetParam())) {}
};

TEST_P(EnvEpisodeSweep, EpisodeInvariants) {
  const double mfr = std::get<1>(GetParam());
  FeatureSelectionEnv env(repr_, evaluator_.get(), mfr);
  Rng rng(7);

  for (int episode = 0; episode < 5; ++episode) {
    env.Reset();
    int steps = 0;
    const double initial = env.current_performance();
    double reward_sum = 0.0;
    while (!env.Done()) {
      reward_sum += env.Step(rng.Bernoulli(0.5) ? kActionSelect
                                                : kActionDeselect);
      ++steps;
      ASSERT_LE(steps, num_features_);
    }
    // Invariant 1: episode length bounded by the scan length.
    EXPECT_LE(steps, num_features_);
    // Invariant 2: the budget is never exceeded.
    EXPECT_LE(MaskCount(env.state().mask), env.max_selectable());
    // Invariant 3: delta rewards telescope to the final performance.
    EXPECT_NEAR(initial + reward_sum, env.current_performance(), 1e-9);
    // Invariant 4: the position never runs past the scan.
    EXPECT_LE(env.state().position, num_features_);
  }
}

TEST_P(EnvEpisodeSweep, ObservationDimensionIsStable) {
  const double mfr = std::get<1>(GetParam());
  FeatureSelectionEnv env(repr_, evaluator_.get(), mfr);
  Rng rng(9);
  EXPECT_EQ(static_cast<int>(env.ObservationFor(env.state()).size()),
            env.observation_dim());
  while (!env.Done()) {
    env.Step(rng.UniformInt(2));
    EXPECT_EQ(static_cast<int>(env.ObservationFor(env.state()).size()),
              env.observation_dim());
  }
}

INSTANTIATE_TEST_SUITE_P(
    FeatureCountsAndBudgets, EnvEpisodeSweep,
    ::testing::Combine(::testing::Values(4, 9, 16, 33),
                       ::testing::Values(0.2, 0.5, 1.0)));

class ETreePropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(ETreePropertySweep, VisitCountsAreConsistent) {
  const int m = GetParam();
  ETree tree(m);
  Rng rng(m * 31);
  int added = 0;
  for (int i = 0; i < 50; ++i) {
    const int length = 1 + rng.UniformInt(m);
    std::vector<int> path(length);
    for (int& a : path) a = rng.UniformInt(2);
    tree.AddTrajectory(path, rng.Uniform());
    ++added;
    // Root visits equal the number of trajectories.
    ASSERT_EQ(tree.root_visits(), added);
    // Children visits never exceed the parent's.
    ASSERT_LE(tree.NodeVisits({0}) + tree.NodeVisits({1}), added);
  }
  // Any UCT-selected prefix maps to a state whose mask is consistent.
  for (double c : {0.1, 2.0, 50.0}) {
    const std::vector<int> prefix = tree.SelectPrefix(c, m - 1);
    ASSERT_LE(static_cast<int>(prefix.size()), m - 1);
    const EnvState state = tree.PrefixToState(prefix);
    int expected_count = 0;
    for (int a : prefix) expected_count += a;
    EXPECT_EQ(MaskCount(state.mask), expected_count);
    EXPECT_GT(tree.NodeVisits(prefix), 0);  // only visited states returned
  }
}

INSTANTIATE_TEST_SUITE_P(TreeWidths, ETreePropertySweep,
                         ::testing::Values(2, 5, 12, 40));

class ItsSimplexSweep : public ::testing::TestWithParam<int> {};

TEST_P(ItsSimplexSweep, ProbabilitiesFormBoundedSimplex) {
  const int n = GetParam();
  Rng rng(n * 101);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TaskProgress> progress(n);
    for (TaskProgress& p : progress) {
      p.distance_ratio = rng.Uniform(-0.2, 1.0);
      p.uncertainty = rng.Uniform(0.5, 1.0);
    }
    const std::vector<double> probs = ScheduleProbabilities(progress);
    ASSERT_EQ(static_cast<int>(probs.size()), n);
    double total = 0.0;
    for (double p : probs) {
      // Balanced-learning floor: nobody starves.
      EXPECT_GE(p, 0.5 / n - 1e-12);
      EXPECT_LE(p, 1.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(TaskCounts, ItsSimplexSweep,
                         ::testing::Values(2, 4, 7, 12, 17));

class RewardModeSweep : public ::testing::TestWithParam<int>,
                        protected EnvPropertyBase {
 protected:
  RewardModeSweep() : EnvPropertyBase(GetParam()) {}
};

TEST_P(RewardModeSweep, DeltaIsDiscreteDerivativeOfAbsolute) {
  FeatureSelectionEnv delta(repr_, evaluator_.get(), 1.0, RewardMode::kDelta);
  FeatureSelectionEnv absolute(repr_, evaluator_.get(), 1.0,
                               RewardMode::kAbsolute);
  Rng rng(5);
  double previous_absolute = delta.current_performance();
  while (!delta.Done()) {
    const int action = rng.UniformInt(2);
    const double d = delta.Step(action);
    const double a = absolute.Step(action);
    EXPECT_NEAR(d, a - previous_absolute, 1e-9);
    previous_absolute = a;
  }
  EXPECT_TRUE(absolute.Done());
}

INSTANTIATE_TEST_SUITE_P(FeatureCounts, RewardModeSweep,
                         ::testing::Values(4, 10, 21));

}  // namespace
}  // namespace pafeat
