#include "rl/fs_env.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace pafeat {

FeatureSelectionEnv::FeatureSelectionEnv(
    std::vector<float> task_representation, const SubsetEvaluator* evaluator,
    double max_feature_ratio, RewardMode reward_mode)
    : task_representation_(std::move(task_representation)),
      evaluator_(evaluator),
      max_feature_ratio_(max_feature_ratio),
      reward_mode_(reward_mode),
      num_features_(static_cast<int>(task_representation_.size())) {
  PF_CHECK(evaluator_ != nullptr);
  PF_CHECK_EQ(num_features_, evaluator_->num_features());
  PF_CHECK_GT(max_feature_ratio, 0.0);
  PF_CHECK_LE(max_feature_ratio, 1.0);
  max_selectable_ = std::max(
      1, static_cast<int>(std::floor(max_feature_ratio * num_features_)));
  Reset();
}

void FeatureSelectionEnv::Reset() {
  state_.mask.assign(num_features_, 0);
  state_.position = 0;
  current_performance_ = evaluator_->Reward(state_.mask);
}

void FeatureSelectionEnv::ResetTo(const EnvState& state) {
  PF_CHECK_EQ(static_cast<int>(state.mask.size()), num_features_);
  PF_CHECK_GE(state.position, 0);
  PF_CHECK_LE(state.position, num_features_);
  state_ = state;
  current_performance_ = evaluator_->Reward(state_.mask);
}

bool FeatureSelectionEnv::Done() const {
  return state_.position >= num_features_ ||
         MaskCount(state_.mask) >= max_selectable_;
}

void FeatureSelectionEnv::ObservationForInto(const EnvState& state,
                                             float* out) const {
  float* cursor = std::copy(task_representation_.begin(),
                            task_representation_.end(), out);
  for (uint8_t bit : state.mask) *cursor++ = bit ? 1.0f : 0.0f;
  *cursor++ = static_cast<float>(state.position) / num_features_;
  *cursor++ = state.position < num_features_
                  ? task_representation_[state.position]
                  : 0.0f;
  *cursor++ = static_cast<float>(MaskCount(state.mask)) / num_features_;
}

void FeatureSelectionEnv::ObservationInto(float* out) const {
  ObservationForInto(state_, out);
}

std::vector<float> FeatureSelectionEnv::ObservationFor(
    const EnvState& state) const {
  std::vector<float> obs(observation_dim());
  ObservationForInto(state, obs.data());
  return obs;
}

double FeatureSelectionEnv::Step(int action) {
  PF_CHECK(!Done());
  PF_CHECK(action == kActionDeselect || action == kActionSelect);
  const double previous_performance = current_performance_;
  if (action == kActionSelect) {
    state_.mask[state_.position] = 1;
    current_performance_ = evaluator_->Reward(state_.mask);
  }
  // Deselect leaves the subset (and hence its performance) unchanged.
  ++state_.position;
  return reward_mode_ == RewardMode::kDelta
             ? current_performance_ - previous_performance
             : current_performance_;
}

}  // namespace pafeat
