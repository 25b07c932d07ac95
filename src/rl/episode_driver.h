#ifndef PAFEAT_RL_EPISODE_DRIVER_H_
#define PAFEAT_RL_EPISODE_DRIVER_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "rl/fs_env.h"
#include "rl/types.h"

namespace pafeat {

// Resumable episode state machine for the batched inference plane (DESIGN.md
// "Batched inference plane"). A driver holds one episode's environment copy,
// its forked RNG stream, and its partial trajectory, and is advanced one
// step at a time by the collector (Feat::CollectEpisodesBatched):
//
//   1. PlanStep(epsilon)   serial, in plan order: decides where this step's
//                          action comes from and returns true when it needs
//                          a greedy Q query;
//   2. WriteObservation /  the caller gathers all querying drivers'
//      SetPlannedAction    observations into one batch, runs a single
//                          DqnAgent::ActBatch, and hands each driver its
//                          argmax;
//   3. ApplyAction         steps the private environment, shapes the reward,
//                          and records the transition.
//
// The draw order on the episode stream is the contract; training results
// are a function of it. Per step, in this order:
//   - a random-policy rollout (StartFrom with random_policy) draws one
//     UniformInt(kNumActions) for the action and nothing else in PlanStep;
//   - a policy step draws Bernoulli(epsilon); only when that explores does
//     it draw UniformInt(kNumActions) for the action. Epsilon 0 therefore
//     always asks for a Q query, and the query itself draws nothing;
//   - the reward shaper, when set, draws inside ApplyAction, after the
//     environment step.
// A StartFrom state that is already terminal falls back to the default
// start and drops the prefix and the policy flag; starting draws nothing.
//
// No draw depends on which other episodes share the step, and batched Q rows
// are bit-identical at any batch composition, so the trajectory a driver
// produces is the same at any thread count. tests/episode_driver_test.cc
// checks the draw order against a replayed copy of the stream, and
// tests/golden_training_test.cc pins the training bits it produces.
class EpisodeDriver {
 public:
  // Reward hook applied to the raw environment reward before it is stored;
  // may draw from the episode stream, after the environment step. Empty =
  // store the raw reward.
  using RewardShapeFn = std::function<double(double raw_reward, Rng* rng)>;

  // Copies `env` (cheap: a representation vector plus state) so concurrent
  // episodes on the same task cannot interfere; the reward cache behind the
  // evaluator stays shared and locked. `rng` is the episode's forked stream.
  EpisodeDriver(const FeatureSelectionEnv& env, const Rng& rng);

  // Default initial state (empty subset, position 0).
  void StartDefault();
  // Customized initial state with its decision prefix and policy flag (the
  // ITE entry point). A degenerate state that is already terminal falls
  // back to the default initial state, discarding prefix and flag.
  void StartFrom(const EnvState& state, const std::vector<int>& prefix,
                 bool random_policy);

  bool done() const { return env_.Done(); }

  // Phase 1 (serial, plan order). Decides where this step's action comes
  // from: returns true when the driver needs a greedy Q query for its
  // current observation; false when the action was drawn from the episode
  // stream (epsilon exploration, or a random-policy rollout).
  bool PlanStep(float epsilon);

  // Copies the observation for the pending greedy query into `row`
  // (observation_dim() floats). Only meaningful after PlanStep returned
  // true.
  void WriteObservation(float* row) const;

  // Phase 2: the batched argmax for the pending greedy query.
  void SetPlannedAction(int action);

  // Phase 3 (safe on a pool worker; touches only this driver and the shared
  // locked evaluator). Applies the planned action: environment step, reward
  // shaping, transition record.
  void ApplyAction(const RewardShapeFn& shape);

  // The episode's decision path from the root: the start prefix plus every
  // applied action (what InitialStateProvider::OnTrajectory consumes).
  const std::vector<int>& actions() const { return actions_; }

  // Moves the finished trajectory out, stamping the final subset's true
  // performance as the episode return. Call once, after done().
  Trajectory TakeTrajectory();

 private:
  FeatureSelectionEnv env_;
  Rng rng_;
  bool random_policy_ = false;
  int pending_action_ = -1;
  Trajectory trajectory_;
  std::vector<int> actions_;
};

}  // namespace pafeat

#endif  // PAFEAT_RL_EPISODE_DRIVER_H_
