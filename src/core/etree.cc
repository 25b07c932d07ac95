#include "core/etree.h"

#include <cmath>

#include "common/logging.h"

namespace pafeat {

ETree::ETree(int num_features) : num_features_(num_features) {
  PF_CHECK_GT(num_features, 0);
  nodes_.emplace_back();  // root
}

void ETree::AddTrajectory(const std::vector<int>& actions,
                          double episode_return) {
  PF_CHECK_LE(static_cast<int>(actions.size()), num_features_);
  int node = 0;
  nodes_[0].visits += 1;
  nodes_[0].value_sum += episode_return;
  for (int action : actions) {
    PF_CHECK_GE(action, 0);
    PF_CHECK_LT(action, 2);
    if (nodes_[node].children[action] < 0) {
      nodes_[node].children[action] = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
    }
    node = nodes_[node].children[action];
    nodes_[node].visits += 1;
    nodes_[node].value_sum += episode_return;
  }
}

std::vector<int> ETree::SelectPrefix(double exploration_constant,
                                     int max_depth) const {
  std::vector<int> prefix;
  int node = 0;
  while (static_cast<int>(prefix.size()) < max_depth) {
    const Node& current = nodes_[node];
    const int left = current.children[0];
    const int right = current.children[1];
    // Stop at the frontier: a state with an unvisited decision is exactly
    // the "state requiring further exploration".
    if (left < 0 || right < 0) break;
    const double log_parent = std::log(static_cast<double>(current.visits));
    auto uct = [&](int child) {
      const Node& c = nodes_[child];
      return c.MeanValue() +
             std::sqrt(exploration_constant * log_parent / c.visits);
    };
    const int action = uct(right) > uct(left) ? 1 : 0;
    prefix.push_back(action);
    node = current.children[action];
  }
  return prefix;
}

EnvState ETree::PrefixToState(const std::vector<int>& prefix) const {
  PF_CHECK_LE(static_cast<int>(prefix.size()), num_features_);
  EnvState state;
  state.mask.assign(num_features_, 0);
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (prefix[i] == 1) state.mask[i] = 1;
  }
  state.position = static_cast<int>(prefix.size());
  return state;
}

int ETree::FindNode(const std::vector<int>& prefix) const {
  int node = 0;
  for (int action : prefix) {
    node = nodes_[node].children[action];
    if (node < 0) return -1;
  }
  return node;
}

// lint: allow(test-only-api): test hook for ETreeTest.SharedPrefixAccumulates
double ETree::NodeValue(const std::vector<int>& prefix) const {
  const int node = FindNode(prefix);
  return node < 0 ? -1.0 : nodes_[node].MeanValue();
}

// lint: allow(test-only-api): test hook for ETreeTest.SharedPrefixAccumulates
int ETree::NodeVisits(const std::vector<int>& prefix) const {
  const int node = FindNode(prefix);
  return node < 0 ? 0 : nodes_[node].visits;
}

std::vector<ETree::NodeData> ETree::ExportNodes() const {
  std::vector<NodeData> nodes;
  nodes.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    NodeData data;
    data.child0 = node.children[0];
    data.child1 = node.children[1];
    data.visits = node.visits;
    data.value_sum = node.value_sum;
    nodes.push_back(data);
  }
  return nodes;
}

bool ETree::ImportNodes(const std::vector<NodeData>& nodes) {
  nodes_.clear();
  nodes_.emplace_back();
  if (nodes.empty()) return true;
  const int count = static_cast<int>(nodes.size());
  for (int i = 0; i < count; ++i) {
    // AddTrajectory only ever appends children, so a valid table is
    // topologically ordered: every edge points strictly forward.
    for (const int child : {nodes[i].child0, nodes[i].child1}) {
      if (child != -1 && (child <= i || child >= count)) return false;
    }
    if (nodes[i].visits < 0) return false;
  }
  nodes_.resize(count);
  for (int i = 0; i < count; ++i) {
    nodes_[i].children[0] = nodes[i].child0;
    nodes_[i].children[1] = nodes[i].child1;
    nodes_[i].visits = nodes[i].visits;
    nodes_[i].value_sum = nodes[i].value_sum;
  }
  return true;
}

}  // namespace pafeat
