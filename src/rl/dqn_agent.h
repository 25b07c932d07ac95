#ifndef PAFEAT_RL_DQN_AGENT_H_
#define PAFEAT_RL_DQN_AGENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/dueling_net.h"
#include "nn/tape.h"
#include "rl/types.h"

namespace pafeat {

struct DqnConfig {
  DuelingNetConfig net;
  float gamma = 0.9f;
  float learning_rate = 1e-3f;
  // Target network is refreshed every this many gradient steps (Eqn 1b's
  // frozen parameters theta^-).
  int target_sync_every = 100;
  // Linear epsilon-greedy schedule over gradient steps.
  float epsilon_start = 1.0f;
  float epsilon_end = 0.05f;
  int epsilon_decay_steps = 2000;
  // PopArt baseline: per-task adaptive normalization of TD targets
  // (Hessel et al., 2019). Off for PA-FEAT itself.
  bool use_popart = false;
  float popart_beta = 0.02f;  // EMA rate of the target statistics
};

// Dueling Deep Q-Network agent (paper Eqns 1a-1c): an online DuelingNet
// trained by TD regression against a periodically-synchronized target
// network, with epsilon-greedy behaviour. This is the "global agent" of
// FEAT; "local agents" are realized by always acting with the freshest
// online parameters (synchronization is implicit in a single process).
class DqnAgent {
 public:
  DqnAgent(const DqnConfig& config, Rng* rng);

  // Greedy actions for a batch of observations (rows x obs_dim, contiguous):
  // one forward pass through the batched inference plane, then a per-row
  // first-max argmax. Row r's action is bit-identical to a batch of one
  // holding observation r — the kernels guarantee per-row bits independent
  // of the batch size. Zero heap allocations in steady state: the query
  // runs through the calling thread's InferenceArena. Exploration is not
  // the agent's business: EpisodeDriver::PlanStep draws it from the
  // episode's stream and asks for a greedy row only when exploiting.
  void ActBatch(int rows, const float* observations, int* actions) const;

  // Writes (rows x num_actions) Q-values of the online network to `q_out`,
  // through the same batched plane as ActBatch.
  void QValuesBatchInto(int rows, const float* observations,
                        float* q_out) const;

  // One gradient step on a batch; returns the TD loss (Eqn 1a).
  double TrainBatch(const std::vector<BatchItem>& batch);

  float CurrentEpsilon() const;
  // lint: allow(test-only-api): test hook for FeatTest.IterationFillsBuffersAndTrains
  long long train_steps() const { return train_steps_; }

  DuelingNet& online_net() { return *online_; }
  const DuelingNet& online_net() const { return *online_; }
  const DqnConfig& config() const { return config_; }

  // PopArt statistics for a task (mean, stddev); identity until trained.
  std::pair<double, double> PopArtStats(int task_id) const;

  // Everything TrainBatch depends on beyond the online parameters (which the
  // agent checkpoint already carries): warm-resume persistence for
  // checkpoint v3. A resumed agent takes bit-identical gradient steps.
  struct AgentTrainingState {
    long long train_steps = 0;
    std::vector<float> target_params;
    long long adam_step = 0;
    std::vector<float> adam_m;
    std::vector<float> adam_v;
    std::vector<double> popart_mean;
    std::vector<double> popart_sq;
    std::vector<std::uint8_t> popart_init;
  };
  AgentTrainingState ExportTrainingState() const;
  // Returns false (leaving the agent unspecified-but-safe) when the state
  // does not fit this agent's architecture.
  bool ImportTrainingState(const AgentTrainingState& state);

 private:
  void EnsurePopArtSize(int task_id);

  DqnConfig config_;
  std::unique_ptr<DuelingNet> online_;
  // Inference only (Eqn 1b's theta^-): a weights-only copy of online_.
  std::unique_ptr<DuelingNet> target_;
  // Activations, gradients and Adam moments of online_.
  Tape tape_;
  long long train_steps_ = 0;

  // PopArt per-task first/second moment EMAs.
  std::vector<double> popart_mean_;
  std::vector<double> popart_sq_;
  std::vector<bool> popart_init_;
};

}  // namespace pafeat

#endif  // PAFEAT_RL_DQN_AGENT_H_
