#include "core/explain.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/defaults.h"
#include "core/greedy_policy.h"
#include "core/pafeat.h"
#include "data/synthetic.h"
#include "rl/dqn_agent.h"
#include "rl/fs_env.h"

namespace pafeat {
namespace {

TEST(ExplainTest, DecisionsMirrorGreedySelection) {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 12;
  spec.num_seen_tasks = 2;
  spec.num_unseen_tasks = 1;
  spec.seed = 91;
  const SyntheticDataset dataset = GenerateSynthetic(spec);
  FsProblem problem(dataset.table, DefaultProblemConfig(true), 92);

  PaFeatConfig config;
  config.feat = DefaultFeatOptions(60, 93).feat;
  config.feat.max_feature_ratio = 0.5;
  PaFeat pafeat(&problem, dataset.SeenTaskIndices(), config);
  pafeat.Train(60);

  const std::vector<float> repr = problem.ComputeTaskRepresentation(2);
  const std::vector<FeatureDecision> decisions = ExplainSelection(
      pafeat.feat().agent().online_net(), repr, 0.5);
  ASSERT_EQ(decisions.size(), 12u);

  int explained_count = 0;
  for (const FeatureDecision& decision : decisions) {
    if (decision.selected) {
      ++explained_count;
      EXPECT_GT(decision.q_gap, 0.0f);  // selected implies positive gap
    }
  }
  if (explained_count > 0) {
    // When the raw greedy pass selected something, GreedySelectSubset took
    // no fallback and the explanation must agree feature-by-feature.
    const FeatureMask mask = GreedySelectSubset(
        pafeat.feat().agent().online_net(), repr, 0.5);
    for (const FeatureDecision& decision : decisions) {
      EXPECT_EQ(decision.selected, mask[decision.feature] != 0)
          << "feature " << decision.feature;
    }
  }
}

TEST(ExplainTest, RankedDecisionsAreSortedByGap) {
  std::vector<FeatureDecision> decisions(4);
  decisions[0] = {0, 0.1f, true};
  decisions[1] = {1, -0.3f, false};
  decisions[2] = {2, 0.7f, true};
  decisions[3] = {3, 0.0f, false};
  const std::vector<FeatureDecision> ranked = RankedDecisions(decisions);
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].feature, 2);
  EXPECT_EQ(ranked[1].feature, 0);
  EXPECT_EQ(ranked[2].feature, 3);
  EXPECT_EQ(ranked[3].feature, 1);
}

TEST(ExplainTest, BudgetCapsSelectedCount) {
  DuelingNetConfig net_config;
  net_config.input_dim = 2 * 10 + 3;
  net_config.trunk_hidden = {8};
  Rng rng(94);
  DuelingNet net(net_config, &rng);
  const std::vector<float> repr(10, 0.5f);
  const std::vector<FeatureDecision> decisions =
      ExplainSelection(net, repr, 0.2);
  int selected = 0;
  for (const FeatureDecision& d : decisions) {
    if (d.selected) ++selected;
  }
  EXPECT_LE(selected, 2);
}

std::uint32_t Bits(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// ExplainSelection queries Q on the batched plane, one row at a time: every
// gap it reports equals, bit for bit, the select - deselect gap the agent's
// QValuesBatchInto gives for the same observation. Checked on the widest
// paper shape (m = 1020, obs_dim 2043).
TEST(ExplainTest, QGapsMatchAgentQValuesBitForBit) {
  constexpr int kFeatures = 1020;
  DqnConfig config;
  config.net.input_dim = 2 * kFeatures + 3;
  Rng rng(95);
  const DqnAgent agent(config, &rng);
  std::vector<float> repr(kFeatures);
  for (float& value : repr) value = static_cast<float>(rng.Normal(0.0, 1.0));
  const std::vector<FeatureDecision> decisions =
      ExplainSelection(agent.online_net(), repr, 0.5);
  ASSERT_EQ(decisions.size(), static_cast<size_t>(kFeatures));

  // Replay the observations ExplainSelection walked through.
  std::vector<float> observation(2 * kFeatures + 3, 0.0f);
  std::copy(repr.begin(), repr.end(), observation.begin());
  int selected = 0;
  float q[2];
  for (const FeatureDecision& decision : decisions) {
    const int position = decision.feature;
    observation[2 * kFeatures] = static_cast<float>(position) / kFeatures;
    observation[2 * kFeatures + 1] = repr[position];
    observation[2 * kFeatures + 2] = static_cast<float>(selected) / kFeatures;
    agent.QValuesBatchInto(1, observation.data(), q);
    ASSERT_EQ(Bits(decision.q_gap),
              Bits(q[kActionSelect] - q[kActionDeselect]))
        << "feature " << position;
    if (decision.selected) {
      observation[kFeatures + position] = 1.0f;
      ++selected;
    }
  }
}

}  // namespace
}  // namespace pafeat
