#ifndef PAFEAT_RL_REPLAY_BUFFER_H_
#define PAFEAT_RL_REPLAY_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "rl/types.h"

namespace pafeat {

// Configuration of one task's replay buffer (DESIGN.md "Bounded memory
// plane").
struct ReplayConfig {
  int capacity_transitions = 4096;  // FIFO transition cap (paper default)
  std::size_t byte_budget = 0;      // 0 = unbounded
};

// Bounded replay buffer of whole trajectories (Algorithm 1 keeps one buffer
// B^k per seen task), stored oldest first. Sampling is uniform over stored
// transitions. Two evictions keep it bounded: FIFO while over the transition
// capacity, and, under a byte budget, lowest (priority, arrival sequence)
// first. The ITS reads the most recent trajectories (Eqn 4a's load module).
//
// Borrow contract: SampleTransitions / RecentTrajectories return raw
// pointers into the stored trajectories, and both mutation entry points —
// AddTrajectory (FIFO capacity eviction) and EvictToBudget (priority-ordered
// byte-budget eviction) — can destroy trajectories those pointers live in.
// Callers that hold sampled pointers across statements (e.g. the learner's
// sample-then-materialize split) register the borrow with a ReadGuard; the
// mutation entry points assert (in checked builds) that no borrow is
// outstanding, and pafeat-analyze enforces the same contract statically
// (borrow-across-mutation). The flag is plain state: guards must be created
// and destroyed on the thread that owns the buffer.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(int capacity_transitions);
  explicit ReplayBuffer(const ReplayConfig& config);

  // RAII registration of a borrow window over the buffer's internal
  // storage. Movable so windows can be collected in a vector spanning
  // several buffers.
  class ReadGuard {
   public:
    explicit ReadGuard(const ReplayBuffer& buffer) : buffer_(&buffer) {
      buffer_->BeginRead();
    }
    ~ReadGuard() {
      if (buffer_ != nullptr) buffer_->EndRead();
    }
    ReadGuard(ReadGuard&& other) noexcept : buffer_(other.buffer_) {
      other.buffer_ = nullptr;
    }
    ReadGuard& operator=(ReadGuard&& other) noexcept {
      if (this != &other) {
        if (buffer_ != nullptr) buffer_->EndRead();
        buffer_ = other.buffer_;
        other.buffer_ = nullptr;
      }
      return *this;
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    const ReplayBuffer* buffer_;
  };

  // Stores a trajectory; its priority (the byte-budget eviction key)
  // defaults to the episode return. Runs the FIFO capacity eviction (always
  // keeping at least one trajectory) and, under a byte budget,
  // EvictToBudget.
  void AddTrajectory(Trajectory trajectory);
  void AddTrajectory(Trajectory trajectory, double priority);

  // Evicts lowest-(priority, sequence) trajectories until the byte budget
  // fits, keeping at least one (no-op when unbounded). A mutation entry
  // point under the borrow contract, exactly like AddTrajectory.
  void EvictToBudget();

  // Samples `count` transitions uniformly (with replacement): one draw per
  // sample, walked over the trajectories oldest first. The pointers are
  // only stable until the next mutation — see the borrow contract.
  std::vector<const Transition*> SampleTransitions(int count, Rng* rng) const;

  // The most recent `count` trajectories, newest last (fewer if not enough).
  // Same borrow contract as SampleTransitions.
  std::vector<const Trajectory*> RecentTrajectories(int count) const;

  void BeginRead() const { ++readers_; }
  void EndRead() const {
    PF_DCHECK_GT(readers_, 0);
    --readers_;
  }

  // Warm-resume persistence: visits every stored trajectory in insertion
  // order with its priority (checkpoint v3).
  void ForEachStored(
      const std::function<void(const Trajectory&, double priority)>& fn) const;

  int num_transitions() const { return num_transitions_; }
  int num_trajectories() const { return static_cast<int>(stored_.size()); }
  bool empty() const { return num_transitions_ == 0; }
  std::size_t bytes() const { return bytes_; }
  long long evictions() const { return evictions_; }
  const ReplayConfig& config() const { return config_; }

 private:
  // A trajectory with its eviction key and its byte charge. TrajectoryBytes
  // charges sizeof(StoredTrajectory) per trajectory, so the budget eviction
  // points depend on this layout.
  struct StoredTrajectory {
    Trajectory trajectory;
    double priority = 0.0;
    std::uint64_t sequence = 0;  // arrival order; the eviction tie-break
    std::size_t bytes = 0;
  };

  static std::size_t TrajectoryBytes(const Trajectory& trajectory);
  void RemoveAt(std::size_t index);

  // Outstanding borrow windows (checked builds only assert on it); mutable
  // because registering a read is logically const.
  mutable int readers_ = 0;
  ReplayConfig config_;
  std::deque<StoredTrajectory> stored_;  // oldest first
  std::uint64_t next_sequence_ = 0;
  int num_transitions_ = 0;
  std::size_t bytes_ = 0;
  long long evictions_ = 0;  // running total (FIFO + budget)
};

}  // namespace pafeat

#endif  // PAFEAT_RL_REPLAY_BUFFER_H_
