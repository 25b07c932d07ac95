#ifndef PAFEAT_RL_FS_ENV_H_
#define PAFEAT_RL_FS_ENV_H_

#include <vector>

#include "data/feature_mask.h"
#include "ml/subset_evaluator.h"
#include "rl/types.h"

namespace pafeat {

// Actions of the feature-selection MDP (paper §II-B).
inline constexpr int kActionDeselect = 0;
inline constexpr int kActionSelect = 1;
inline constexpr int kNumActions = 2;

// Per-step reward definition. Eqn 2 evaluates the current subset's
// performance P after every action; kDelta hands the agent the *increment*
// P(F_t) - P(F_{t-1}), whose discounted sum telescopes to the final subset's
// performance — the formulation that makes credit assignment work (selecting
// an irrelevant feature earns ~0 instead of re-earning the whole AUC), and
// the default. kAbsolute hands P(F_t) itself (kept for the ablation bench).
enum class RewardMode { kDelta, kAbsolute };

// The feature-selection environment of PA-FEAT: the agent scans features
// left to right and decides select/deselect for each; the reward after every
// action derives from the masked classifier's performance on the current
// subset (Eqn 2). The episode ends when the scan completes or when the
// selected fraction would exceed the max feature ratio `mfr` (Algorithm 1
// line 10).
class FeatureSelectionEnv {
 public:
  // `task_representation` is the per-feature |Pearson| vector identifying the
  // task inside the shared state space; `evaluator` owns the reward cache.
  FeatureSelectionEnv(std::vector<float> task_representation,
                      const SubsetEvaluator* evaluator,
                      double max_feature_ratio,
                      RewardMode reward_mode = RewardMode::kDelta);

  int num_features() const { return num_features_; }
  // Observation layout (2m + 3 dims):
  //   [task_repr(m) | mask(m) | position/m | repr[position] | selected/m].
  // The scanned feature's own relevance (repr[position]) is what lets one
  // Q-network generalize the select/deselect decision across tasks.
  int observation_dim() const { return 2 * num_features_ + 3; }
  double max_feature_ratio() const { return max_feature_ratio_; }
  int max_selectable() const { return max_selectable_; }

  // Returns to the default initial state (empty subset, position 0).
  void Reset();
  // Restores a customized state (the ITE entry point).
  void ResetTo(const EnvState& state);

  bool Done() const;
  const EnvState& state() const { return state_; }

  // Dense observation of a state of this environment/task
  // (ObservationFor(state()) for the current one).
  std::vector<float> ObservationFor(const EnvState& state) const;
  // Allocation-free variants for the steady-state stepping path: write the
  // observation_dim() floats directly into a caller-provided row (usually a
  // slice of the iteration's batch matrix). Bit-identical to the vector
  // form — same layout [repr | mask | position | repr[pos] | selected].
  void ObservationInto(float* out) const;
  void ObservationForInto(const EnvState& state, float* out) const;

  // Applies `action` to the feature at the current scan position and returns
  // the reward (per `reward_mode`). Requires !Done().
  double Step(int action);

  // Performance P of the current subset (Eqn 2) — the quantity the E-Tree
  // and the ITS consume, independent of the reward mode.
  double current_performance() const { return current_performance_; }

  const std::vector<float>& task_representation() const {
    return task_representation_;
  }
  const SubsetEvaluator& evaluator() const { return *evaluator_; }
  RewardMode reward_mode() const { return reward_mode_; }

 private:
  std::vector<float> task_representation_;
  const SubsetEvaluator* evaluator_;
  double max_feature_ratio_;
  RewardMode reward_mode_;
  int num_features_;
  int max_selectable_;
  EnvState state_;
  double current_performance_ = 0.0;
};

}  // namespace pafeat

#endif  // PAFEAT_RL_FS_ENV_H_
