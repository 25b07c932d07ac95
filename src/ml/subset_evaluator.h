#ifndef PAFEAT_ML_SUBSET_EVALUATOR_H_
#define PAFEAT_ML_SUBSET_EVALUATOR_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "data/feature_mask.h"
#include "memory/budget.h"
#include "memory/reward_cache.h"
#include "ml/masked_dnn.h"
#include "tensor/matrix.h"

namespace pafeat {

// The reward function of Eqn 2 for one task, with memoization:
//   r = P(CLS(X^F'), Y)
// where CLS is the task's pretrained MaskedDnnClassifier and P is AUC over a
// fixed evaluation row set. RL-based feature selection calls the reward for
// the same subsets over and over, so the (task-local) cache keyed by the
// subset bitmask removes the dominant cost (measured in bench_micro).
//
// The evaluation rows are gathered into a contiguous block once at
// construction; a cache miss runs the classifier's column-gathered fast path
// over that block, so the per-miss cost scales with the subset size rather
// than the full feature count, and no masked copy is materialized.
//
// The cache behind Reward is a bounded TieredRewardCache (DESIGN.md "Bounded
// memory plane"): the byte budget resolves through ResolveCacheBudgetBytes
// (config > PAFEAT_CACHE_BUDGET > unlimited), rewards are
// computed outside the cache lock, and concurrent misses on one mask dedup
// through the in-flight set — the first thread computes, later arrivals wait
// and read the cached value (counted as hits). Eviction cannot change any
// reward value (the cache is a pure memo), only the traffic counters; the
// cache evicts only at epoch boundaries, so counters too are deterministic
// at any thread count when the training loop drives the epochs.
class SubsetEvaluator {
 public:
  SubsetEvaluator(const Matrix* features, std::vector<float> labels,
                  std::vector<int> eval_rows,
                  const MaskedDnnClassifier* classifier,
                  long long cache_budget_bytes = kMemoryBudgetDefault);

  // Cached AUC reward of the subset.
  double Reward(const FeatureMask& mask) const;

  // The cache-miss cost of Reward, without touching the cache: one AUC
  // evaluation of the subset over the precomputed eval block. Exposed for
  // benchmarks and tests.
  double EvaluateUncached(const FeatureMask& mask) const;

  // Reward of the full feature set (the P_all baseline of Eqn 6a).
  double FullFeatureReward() const;

  int num_features() const { return features_->cols(); }

  // Resident bytes of the reward cache.
  std::size_t cache_bytes() const { return cache_.bytes(); }

  // Drains the per-iteration telemetry window: every hit/miss/eviction lands
  // in exactly one drain, attributed at resolve time — a stampede waiter
  // that resolves after an iteration rollover counts toward the iteration
  // that drains it, never lost between baselines.
  MemoryTraffic TakeCacheTraffic() const { return cache_.TakeTraffic(); }

  // Serial point of the training loop: closes the cache epoch (graduates
  // this epoch's inserts in sorted-key order, runs the budget sweep).
  void AdvanceCacheEpoch() const { cache_.AdvanceEpoch(); }

  // A training loop takes manual control of epochs (one per iteration);
  // without it the cache auto-sweeps on a publish-count trigger.
  void SetManualCacheControl(bool manual) const {
    cache_.SetManualEpochControl(manual);
  }

  // Warm-resume persistence of the memo contents (checkpoint v3).
  void ExportCacheEntries(
      std::vector<std::pair<PackedMask, double>>* out) const {
    cache_.ExportEntries(out);
  }
  void ImportCacheEntry(PackedMask key, double value) const {
    cache_.ImportEntry(std::move(key), value);
  }

 private:
  const Matrix* features_;
  std::vector<float> labels_;
  std::vector<int> eval_rows_;
  const MaskedDnnClassifier* classifier_;
  // Contiguous copies of the evaluation rows and their labels, gathered once
  // so every reward evaluation streams a dense block.
  Matrix eval_block_;
  std::vector<float> eval_labels_;
  // Mutable: memoization is logically const (Reward is a pure function of
  // the mask; the cache only changes cost and counters).
  mutable TieredRewardCache cache_;
};

}  // namespace pafeat

#endif  // PAFEAT_ML_SUBSET_EVALUATOR_H_
