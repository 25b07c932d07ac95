#include "core/problem.h"

#include <algorithm>

#include "common/logging.h"
#include "data/stats.h"

namespace pafeat {

FsProblem::FsProblem(Table table, const FsProblemConfig& config, uint64_t seed)
    : table_(std::move(table)), config_(config), rng_(seed) {
  PF_CHECK_GT(table_.num_rows(), 3);
  PF_CHECK_GT(table_.num_labels(), 0);
  split_ = MakeSplit(table_.num_rows(), config.train_fraction, &rng_);
  standardizer_.Fit(table_.features(), split_.train_rows);
  std_features_ = standardizer_.Transform(table_.features());

  // Carve the reward-evaluation rows out of the training split so the reward
  // classifier is scored on data it did not fit.
  std::vector<int> shuffled = split_.train_rows;
  rng_.Shuffle(&shuffled);
  int eval_count = std::min<int>(config.reward_eval_rows,
                                 static_cast<int>(shuffled.size()) / 4);
  eval_count = std::max(eval_count, 1);
  reward_rows_.assign(shuffled.begin(), shuffled.begin() + eval_count);
  classifier_rows_.assign(shuffled.begin() + eval_count, shuffled.end());
  if (config.classifier_train_rows_cap > 0 &&
      static_cast<int>(classifier_rows_.size()) >
          config.classifier_train_rows_cap) {
    classifier_rows_.resize(config.classifier_train_rows_cap);
  }
  PF_CHECK(!classifier_rows_.empty());
}

// lint: allow(test-only-api): test hook for FsProblemTest.TaskContextsAreLazyAndCached
bool FsProblem::TaskBuilt(int label_index) const {
  return tasks_.find(label_index) != tasks_.end();
}

const TaskContext& FsProblem::Task(int label_index) {
  PF_CHECK_GE(label_index, 0);
  PF_CHECK_LT(label_index, num_tasks());
  auto it = tasks_.find(label_index);
  if (it != tasks_.end()) return it->second;

  TaskContext context;
  context.label_index = label_index;
  context.name = table_.label_names()[label_index];
  context.labels = table_.LabelColumn(label_index);
  context.representation = ComputeTaskRepresentation(label_index);

  Rng task_rng = rng_.Fork(static_cast<uint64_t>(label_index) + 17);
  context.classifier = std::make_unique<MaskedDnnClassifier>(config_.classifier);
  context.classifier->Fit(std_features_, context.labels, classifier_rows_,
                          &task_rng);
  context.evaluator = std::make_unique<SubsetEvaluator>(
      &std_features_, context.labels, reward_rows_, context.classifier.get(),
      config_.reward_cache_budget_bytes);
  context.full_feature_reward = context.evaluator->FullFeatureReward();

  auto [inserted, ok] = tasks_.emplace(label_index, std::move(context));
  PF_CHECK(ok);
  return inserted->second;
}

std::vector<float> FsProblem::ComputeTaskRepresentation(
    int label_index) const {
  const std::vector<float> labels = table_.LabelColumn(label_index);
  return TaskRepresentation(std_features_, labels, split_.train_rows);
}

}  // namespace pafeat
