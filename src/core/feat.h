#ifndef PAFEAT_CORE_FEAT_H_
#define PAFEAT_CORE_FEAT_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/greedy_policy.h"
#include "core/problem.h"
#include "memory/persistence.h"
#include "rl/dqn_agent.h"
#include "rl/fs_env.h"
#include "rl/replay_buffer.h"

namespace pafeat {

// Configuration of the FEAT multi-task DRL framework (Algorithm 1).
struct FeatConfig {
  int envs_per_iteration = 4;    // N parallel resources per iteration
  int updates_per_task = 1;      // K optimization passes per task
  int batch_size = 32;           // M
  double max_feature_ratio = 0.5;  // mfr (Algorithm 1 line 10)
  RewardMode reward_mode = RewardMode::kDelta;
  int replay_capacity = 4096;    // transitions per task buffer B^k
  // Executors for the buffer-filling phase (the paper's N parallel
  // environments / "Resources"). The iteration's planned episodes are split
  // round-robin over min(num_threads, envs_per_iteration) collector shards
  // (DESIGN.md "Sharded training plane"), each running its own
  // step-synchronous batched collection on the persistent process-wide
  // ThreadPool — the Feat constructor grows it to at least num_threads - 1
  // workers (the iterating thread participates), so this is also the
  // pool-size wiring. Results are bit-identical for a fixed seed at any
  // thread count: episodes are planned sequentially on the root stream
  // (task choice, initial state, per-episode RNG), every draw during
  // collection comes from an episode's own stream, batched Q rows match at
  // any batch composition by kernel construction, and results are
  // committed in plan order.
  int num_threads = 1;
  // Bounded experience-memory plane (DESIGN.md "Bounded memory plane"):
  // every task buffer B^k gets a byte budget resolved through
  // ResolveReplayBudgetBytes (> 0 bytes, 0 explicit unlimited, < 0 the
  // default chain, which for replay is unlimited).
  long long replay_budget_bytes = kMemoryBudgetDefault;
  int recent_returns_window = 32;
  DqnConfig dqn;                 // dqn.net.input_dim is filled automatically
  uint64_t seed = 7;
};

// Per-seen-task training state: the environment, the replay buffer B^k and
// rolling statistics. Owned by Feat; hooks receive const references.
struct SeenTaskRuntime {
  int label_index = 0;
  const TaskContext* context = nullptr;
  std::unique_ptr<FeatureSelectionEnv> env;
  std::unique_ptr<ReplayBuffer> buffer;
  std::deque<double> recent_returns;

  double AverageRecentReturn() const;
  // Feature subsets mapped from the most recent trajectories (ITS Eqn 4a).
  std::vector<FeatureMask> RecentMasks(int count) const;
};

// Hook: allocates the per-task selection probabilities each iteration
// (Algorithm 1 line 5). The default is the uniform choice of plain FEAT;
// PA-FEAT installs the ITS.
class TaskScheduler {
 public:
  virtual ~TaskScheduler() = default;
  virtual std::vector<double> Probabilities(
      const std::vector<SeenTaskRuntime>& tasks) = 0;
};

class UniformScheduler : public TaskScheduler {
 public:
  std::vector<double> Probabilities(
      const std::vector<SeenTaskRuntime>& tasks) override;
};

// ITS as a scheduler hook (paper §III-C).
class ItsScheduler : public TaskScheduler {
 public:
  explicit ItsScheduler(int recent_n, double temperature = 0.2,
                        double min_share_of_uniform = 0.5)
      : recent_n_(recent_n),
        temperature_(temperature),
        min_share_of_uniform_(min_share_of_uniform) {}
  std::vector<double> Probabilities(
      const std::vector<SeenTaskRuntime>& tasks) override;

 private:
  int recent_n_;
  double temperature_;
  double min_share_of_uniform_;
};

// Hook: customizes the initial state of an episode (Algorithm 1 line 6 /
// §III-D). Returning nullopt keeps the default initial state.
struct EpisodeStart {
  EnvState state;
  std::vector<int> prefix;    // decisions from the root leading to `state`
  bool random_policy = false; // roll out with a random policy (Go-Explore,
                              // and the w/o-PE ablation)
};

class InitialStateProvider {
 public:
  virtual ~InitialStateProvider() = default;
  virtual std::optional<EpisodeStart> Propose(int task_slot,
                                              const SeenTaskRuntime& task,
                                              Rng* rng) = 0;
  // Called after every episode with the full decision path from the root.
  virtual void OnTrajectory(int task_slot, const std::vector<int>& actions,
                            double episode_return) = 0;
};

// Hook: transforms the reward stored for training (Reward Randomization).
// The untransformed reward still drives episode returns, the E-Tree and the
// ITS, so diagnostics always see true subset performance.
//
// BeginEpisode runs on the scheduling thread and returns an episode context
// value handed back to every Shape call of that episode; Shape must be
// thread-safe (episodes run concurrently under num_threads > 1).
class RewardShaper {
 public:
  virtual ~RewardShaper() = default;
  virtual double BeginEpisode(int task_slot, Rng* rng) = 0;
  virtual double Shape(double reward, int task_slot, double context,
                       Rng* rng) = 0;
};

struct IterationStats {
  double seconds = 0.0;
  double mean_loss = 0.0;
  int episodes = 0;
  std::vector<double> task_probabilities;
  // Reward-cache traffic across all seen tasks during this iteration —
  // drained windows, so every lookup (including a stampede waiter resolving
  // after an iteration rollover) is counted in exactly one iteration.
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long cache_evictions = 0;
  // Resident bytes at the end of the iteration, summed over seen tasks.
  std::size_t cache_bytes = 0;
  long long replay_evictions = 0;
  std::size_t replay_bytes = 0;
};

// The FEAT framework (paper §III-B, Algorithm 1): one global Dueling-DQN
// agent trained from per-task replay buffers filled by episodes on the seen
// tasks' environments. PA-FEAT and the FEAT-based baselines (PopArt,
// Go-Explore, RR) are this class with different hooks installed.
class Feat {
 public:
  Feat(FsProblem* problem, std::vector<int> seen_label_indices,
       const FeatConfig& config);

  Feat(const Feat&) = delete;
  Feat& operator=(const Feat&) = delete;

  void SetScheduler(std::unique_ptr<TaskScheduler> scheduler);
  void SetInitialStateProvider(std::unique_ptr<InitialStateProvider> provider);
  void SetRewardShaper(std::unique_ptr<RewardShaper> shaper);

  // One Algorithm-1 iteration: a buffer-filling phase of N episodes followed
  // by the parameter-updating phase.
  IterationStats RunIteration();

  // Runs `iterations` iterations; returns the mean iteration wall time.
  double Train(int iterations);

  // Fast feature selection for an unseen task (Algorithm 1 lines 22-24):
  // computes the task representation and executes one greedy episode. The
  // wall time of exactly this path is the paper's "execution time".
  FeatureMask SelectForTask(int label_index, double* execution_seconds);

  // Greedy episode for an already-computed representation (no reward calls).
  FeatureMask SelectForRepresentation(const std::vector<float>& repr) const;

  // Greedy episodes for several representations at once: the per-position Q
  // queries of all tasks are coalesced into one batched forward pass
  // (lock-step scan). Result i is bit-identical to
  // SelectForRepresentation(reprs[i]) — the multi-task serving path. The
  // int8 tier is a serving-side choice: CheckpointedSelector and
  // SelectionServer quantize once per checkpoint.
  std::vector<FeatureMask> SelectForRepresentations(
      const std::vector<std::vector<float>>& reprs) const;

  // Adds a task (typically unseen, now labeled) to the training set for the
  // further-training mode of §IV-D. Returns its runtime slot.
  int AddTask(int label_index);

  // The runtime slot already holding `label_index`, or -1 — so a warm
  // resume's FurtherTrain reuses the restored slot instead of duplicating
  // the task.
  int FindTask(int label_index) const;

  // Warm-resume persistence (checkpoint v3, DESIGN.md "Bounded memory
  // plane"): everything RunIteration depends on beyond the online
  // parameters — the root RNG stream, the iteration index, the agent's
  // target/optimizer/PopArt state, and per task the recent returns, the
  // replay trajectories with their priorities, and the reward-cache
  // contents. Restore requires a freshly constructed Feat over the same
  // problem and task list; it returns false with a reason in `error` on any
  // mismatch or out-of-range field. A restored run's RunIteration sequence
  // is bit-identical to the uninterrupted run's.
  void SerializeTrainingState(ByteWriter* out) const;
  bool RestoreTrainingState(ByteReader* in, std::string* error);

  // Focuses all episode sampling on one task slot (the further-training mode
  // interacts only with the unseen task's environment); -1 restores the
  // scheduler. Parameter updates still draw from every non-empty buffer.
  void SetFocusTask(int slot) { focus_slot_ = slot; }

  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  const SeenTaskRuntime& task_runtime(int slot) const { return tasks_[slot]; }
  const DqnAgent& agent() const { return *agent_; }
  DqnAgent& agent() { return *agent_; }
  const FeatConfig& config() const { return config_; }
  FsProblem& problem() { return *problem_; }

 private:
  // One planned unit of the buffer-filling phase.
  struct EpisodePlan {
    int slot = 0;
    std::optional<EpisodeStart> start;
    double shaper_context = 1.0;
    Rng rng{0};
  };

  // Step-synchronous execution of the given planned episodes on the calling
  // thread: per step, a serial plan-order planning pass (exploration draws),
  // one batched greedy Q pass over every live driver, then the environment
  // steps. Fills `trajectories` and `episode_actions` indexed like `plans`.
  void CollectEpisodesBatched(const std::vector<const EpisodePlan*>& plans,
                              std::vector<Trajectory>* trajectories,
                              std::vector<std::vector<int>>* episode_actions);
  // Batched buffer-filling phase: gives plan i to shard i % num_shards, runs
  // each shard's CollectEpisodesBatched concurrently on the global pool (a
  // single shard runs inline on the caller), then merges the shard-local
  // accumulators back to plan-index order — results are byte-equal
  // regardless of which shard finishes first because no shard touches
  // shared mutable state while collecting.
  void CollectEpisodesSharded(const std::vector<EpisodePlan>& plans,
                              int num_shards,
                              std::vector<Trajectory>* trajectories,
                              std::vector<std::vector<int>>* episode_actions);
  std::vector<BatchItem> MaterializeBatch(
      int slot, const std::vector<const Transition*>& sampled) const;

  FsProblem* problem_;
  FeatConfig config_;
  // The training root stream: advanced only on the serial plan/commit path.
  // Parallel code gets Fork()ed child streams by value — pafeat-analyze
  // (rng-escape) rejects any call path from a ParallelFor/Submit body here.
  Rng rng_;  // analyze: root-rng
  std::vector<SeenTaskRuntime> tasks_;
  std::unique_ptr<DqnAgent> agent_;
  std::unique_ptr<TaskScheduler> scheduler_;
  std::unique_ptr<InitialStateProvider> state_provider_;
  std::unique_ptr<RewardShaper> reward_shaper_;
  int focus_slot_ = -1;
  // 0-based index of the next RunIteration call (saved with the training
  // state).
  uint64_t iteration_index_ = 0;
  // Running replay-eviction total at the end of the previous iteration
  // (buffers only expose running counters; cache traffic drains windows).
  long long prev_replay_evictions_ = 0;
};

}  // namespace pafeat

#endif  // PAFEAT_CORE_FEAT_H_
