#ifndef PAFEAT_DATA_SYNTHETIC_H_
#define PAFEAT_DATA_SYNTHETIC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/table.h"

namespace pafeat {

// Parameters of one synthetic multi-task dataset. The defaults and the
// PaperDatasetSpecs() registry reproduce the *shape* of the paper's eight
// evaluation datasets (Table I); see DESIGN.md for why the substitution
// preserves the evaluation's behaviour.
struct SyntheticSpec {
  std::string name = "synthetic";
  int num_instances = 1000;
  int num_features = 32;
  int num_seen_tasks = 4;
  int num_unseen_tasks = 2;
  // Number of truly label-relevant features per task; 0 = derive from
  // num_features as clamp(0.15 * m, 3, 20).
  int relevant_per_task = 0;
  // Fraction of features that are noisy linear copies of other features
  // (redundancy that punishes pure relevance ranking).
  double redundant_fraction = 0.3;
  // Stddev of the noise added to each task's logit before thresholding.
  double label_noise = 0.5;
  // Per-task difficulty spread: task t's noise is label_noise * s where
  // s ~ spread^Uniform(-1, 1). Values > 1 make some tasks genuinely harder
  // than others (the setting the ITS exists for; Fig 8).
  double difficulty_spread = 2.0;
  // Fraction of each task's relevant features drawn from a pool shared
  // across tasks — this is the seen -> unseen transfer signal.
  double cross_task_overlap = 0.6;
  uint64_t seed = 42;
};

// A generated dataset plus its ground truth (used by tests and by the
// difficulty analysis in the Fig 8 bench).
struct SyntheticDataset {
  SyntheticSpec spec;
  Table table;  // labels: seen tasks first, then unseen tasks
  // Ground-truth relevant feature subsets, one per label column.
  std::vector<std::vector<int>> relevant_features;

  int num_seen_tasks() const { return spec.num_seen_tasks; }
  int num_unseen_tasks() const { return spec.num_unseen_tasks; }

  std::vector<int> SeenTaskIndices() const;
  std::vector<int> UnseenTaskIndices() const;
};

// Deterministically generates a dataset from the spec.
SyntheticDataset GenerateSynthetic(const SyntheticSpec& spec);

// The eight datasets of the paper's Table I (name, #instances, #features,
// #seen tasks, #unseen tasks).
std::vector<SyntheticSpec> PaperDatasetSpecs();

// Looks up a paper spec by (case-sensitive) name.
std::optional<SyntheticSpec> PaperSpecByName(const std::string& name);

}  // namespace pafeat

#endif  // PAFEAT_DATA_SYNTHETIC_H_
