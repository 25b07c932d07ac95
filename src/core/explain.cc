#include "core/explain.h"

#include <algorithm>

#include "common/logging.h"
#include "rl/fs_env.h"

namespace pafeat {

std::vector<FeatureDecision> ExplainSelection(
    const DuelingNet& net, const std::vector<float>& representation,
    double max_feature_ratio) {
  const int m = static_cast<int>(representation.size());
  PF_CHECK_GT(m, 0);
  PF_CHECK_EQ(net.config().input_dim, 2 * m + 3);
  PF_CHECK_GT(max_feature_ratio, 0.0);
  const int max_selectable =
      std::max(1, static_cast<int>(max_feature_ratio * m));

  std::vector<float> observation(2 * m + 3, 0.0f);
  std::copy(representation.begin(), representation.end(),
            observation.begin());
  std::vector<float> q(net.config().num_actions);
  std::vector<FeatureDecision> decisions;
  decisions.reserve(m);
  int selected = 0;
  for (int position = 0; position < m; ++position) {
    observation[2 * m] = static_cast<float>(position) / m;
    observation[2 * m + 1] = representation[position];
    observation[2 * m + 2] = static_cast<float>(selected) / m;
    // The batched plane the greedy scan uses; on one row it is bit-identical
    // to PredictInto (GemmNT sends fewer than 8 rows to the row-wise core).
    net.PredictBatchInto(1, observation.data(), InferenceArena::ThreadLocal(),
                         q.data());
    FeatureDecision decision;
    decision.feature = position;
    decision.q_gap = q[kActionSelect] - q[kActionDeselect];
    decision.selected =
        decision.q_gap > 0.0f && selected < max_selectable;
    if (decision.selected) {
      observation[m + position] = 1.0f;
      ++selected;
    }
    decisions.push_back(decision);
  }
  return decisions;
}

std::vector<FeatureDecision> RankedDecisions(
    const std::vector<FeatureDecision>& decisions) {
  std::vector<FeatureDecision> ranked = decisions;
  std::sort(ranked.begin(), ranked.end(),
            [](const FeatureDecision& a, const FeatureDecision& b) {
              return a.q_gap > b.q_gap;
            });
  return ranked;
}

}  // namespace pafeat
