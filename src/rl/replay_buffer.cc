#include "rl/replay_buffer.h"

#include <algorithm>

#include "common/logging.h"

namespace pafeat {
namespace {

ReplayConfig LegacyConfig(int capacity_transitions) {
  ReplayConfig config;
  config.capacity_transitions = capacity_transitions;
  return config;
}

}  // namespace

ReplayBuffer::ReplayBuffer(int capacity_transitions)
    : ReplayBuffer(LegacyConfig(capacity_transitions)) {}

ReplayBuffer::ReplayBuffer(const ReplayConfig& config) : config_(config) {
  PF_CHECK_GT(config.capacity_transitions, 0);
}

std::size_t ReplayBuffer::TrajectoryBytes(const Trajectory& trajectory) {
  std::size_t bytes = sizeof(StoredTrajectory);
  for (const Transition& transition : trajectory.transitions) {
    bytes += sizeof(Transition) + transition.state.mask.size() +
             transition.next_state.mask.size();
  }
  return bytes;
}

void ReplayBuffer::AddTrajectory(Trajectory trajectory) {
  // The final subset's true performance ranks trajectories for byte-budget
  // eviction.
  const double priority = trajectory.episode_return;
  AddTrajectory(std::move(trajectory), priority);
}

void ReplayBuffer::AddTrajectory(Trajectory trajectory, double priority) {
  // Mutating while a ReadGuard is registered could evict trajectories whose
  // transitions the reader still points into.
  PF_DCHECK_EQ(readers_, 0);
  if (trajectory.transitions.empty()) return;
  StoredTrajectory stored;
  stored.priority = priority;
  stored.sequence = next_sequence_++;
  stored.bytes = TrajectoryBytes(trajectory);
  num_transitions_ += static_cast<int>(trajectory.transitions.size());
  bytes_ += stored.bytes;
  stored.trajectory = std::move(trajectory);
  stored_.push_back(std::move(stored));

  while (num_transitions_ > config_.capacity_transitions &&
         stored_.size() > 1) {
    RemoveAt(0);
  }
  if (config_.byte_budget > 0) EvictToBudget();
}

void ReplayBuffer::EvictToBudget() {
  PF_DCHECK_EQ(readers_, 0);
  while (config_.byte_budget > 0 && bytes_ > config_.byte_budget &&
         stored_.size() > 1) {
    const auto victim = std::min_element(
        stored_.begin(), stored_.end(),
        [](const StoredTrajectory& a, const StoredTrajectory& b) {
          return a.priority < b.priority ||
                 (a.priority == b.priority && a.sequence < b.sequence);
        });
    RemoveAt(static_cast<std::size_t>(victim - stored_.begin()));
  }
}

void ReplayBuffer::RemoveAt(std::size_t index) {
  const StoredTrajectory& stored = stored_[index];
  num_transitions_ -= static_cast<int>(stored.trajectory.transitions.size());
  bytes_ -= stored.bytes;
  stored_.erase(stored_.begin() + static_cast<std::ptrdiff_t>(index));
  ++evictions_;
}

std::vector<const Transition*> ReplayBuffer::SampleTransitions(
    int count, Rng* rng) const {
  PF_CHECK(!empty());
  // Uniform two-level pick weighted by trajectory length, walking the
  // trajectories oldest first.
  std::vector<const Transition*> sampled;
  sampled.reserve(count);
  for (int i = 0; i < count; ++i) {
    int index = rng->UniformInt(num_transitions_);
    for (const StoredTrajectory& stored : stored_) {
      const int len = static_cast<int>(stored.trajectory.transitions.size());
      if (index < len) {
        sampled.push_back(&stored.trajectory.transitions[index]);
        break;
      }
      index -= len;
    }
  }
  PF_CHECK_EQ(static_cast<int>(sampled.size()), count);
  return sampled;
}

std::vector<const Trajectory*> ReplayBuffer::RecentTrajectories(
    int count) const {
  std::vector<const Trajectory*> recent;
  const int available = num_trajectories();
  const int take = std::min(count, available);
  for (int i = available - take; i < available; ++i) {
    recent.push_back(&stored_[i].trajectory);
  }
  return recent;
}

void ReplayBuffer::ForEachStored(
    const std::function<void(const Trajectory&, double priority)>& fn) const {
  for (const StoredTrajectory& stored : stored_) {
    fn(stored.trajectory, stored.priority);
  }
}

}  // namespace pafeat
