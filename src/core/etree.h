#ifndef PAFEAT_CORE_ETREE_H_
#define PAFEAT_CORE_ETREE_H_

#include <vector>

#include "rl/types.h"

namespace pafeat {

// Experience-Tree (paper §III-D): organizes every visited state of one
// task's feature-selection MDP as a binary tree — depth d corresponds to the
// scan position d, and the two children of a node are the deselect/select
// decisions for feature d. Each node accumulates visit counts and the
// returns of the trajectories passing through it.
//
// Valuable-state identification (Eqn 9) descends from the root by UCT:
//   rho(F') = mu_hat(F') + sqrt(c_e * ln(T_F) / T_{F,F'})
// and stops at the first node with an unexpanded child, returning that
// state for the agent to continue exploring from.
class ETree {
 public:
  explicit ETree(int num_features);

  // Records one episode's decision sequence (actions from the *root*) with
  // its episode return. Creates nodes for newly visited states.
  void AddTrajectory(const std::vector<int>& actions, double episode_return);

  // Runs UCT selection (Eqn 9) and returns the decision prefix of the most
  // exploratory visited state. `max_depth` bounds the descent so the
  // restored state leaves room to act (pass num_features - 1).
  std::vector<int> SelectPrefix(double exploration_constant,
                                int max_depth) const;

  // Converts a decision prefix into an environment state.
  EnvState PrefixToState(const std::vector<int>& prefix) const;

  // lint: allow(test-only-api): test hook for ETreeTest.AddTrajectoryCreatesPath
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  // lint: allow(test-only-api): test hook for ETreeTest.AddTrajectoryCreatesPath
  int root_visits() const { return nodes_[0].visits; }
  bool empty() const { return nodes_[0].visits == 0; }

  // Mean return through the node reached by `prefix`; -1 if never visited.
  double NodeValue(const std::vector<int>& prefix) const;
  int NodeVisits(const std::vector<int>& prefix) const;

  // Warm-resume persistence (checkpoint v3): the node table in index order
  // (index 0 is the root). ImportNodes replaces the tree; it validates that
  // every child index points past its parent into the table (the AddTrajectory
  // invariant) and returns false — leaving the tree empty — otherwise.
  struct NodeData {
    int child0 = -1;
    int child1 = -1;
    int visits = 0;
    double value_sum = 0.0;
  };
  std::vector<NodeData> ExportNodes() const;
  bool ImportNodes(const std::vector<NodeData>& nodes);

 private:
  struct Node {
    int children[2] = {-1, -1};
    int visits = 0;
    double value_sum = 0.0;

    double MeanValue() const {
      return visits == 0 ? 0.0 : value_sum / visits;
    }
  };

  // Index of the node at `prefix`, or -1.
  int FindNode(const std::vector<int>& prefix) const;

  int num_features_;
  std::vector<Node> nodes_;  // nodes_[0] is the root (default initial state)
};

}  // namespace pafeat

#endif  // PAFEAT_CORE_ETREE_H_
