#ifndef PAFEAT_CORE_GREEDY_POLICY_H_
#define PAFEAT_CORE_GREEDY_POLICY_H_

#include <vector>

#include "data/feature_mask.h"
#include "nn/dueling_net.h"
#include "nn/quantized_net.h"

namespace pafeat {

// Serving-tier options for the greedy/zero-shot execution path (DESIGN.md
// "Quantized serving tier"). A serving-side choice only: CheckpointedSelector
// and SelectionServer (ServerConfig::serve) build the int8 net once per
// checkpoint; the default is the bitwise fp32 plane.
struct ServeConfig {
  // Route Q queries through the int8 QuantizedDuelingNet. Outside the
  // bitwise determinism contract: selections are validated by subset-match
  // against the fp32 plane on the eval suite, not by bit equality of
  // Q-values (tests/quantized_serving_test.cc).
  bool quantized = false;
};

// Resumable per-request greedy-scan state (DESIGN.md "Selection serving
// plane"): one task's position in the left-to-right feature scan, factored
// out of GreedySelectSubsets so requests of different ages can join and
// leave a shared forward-pass batch at step boundaries — the
// SelectionServer's continuous batching. The observation layout, decision
// rule, retirement rule and empty-subset fallback live here and only here;
// the standalone batch scan and the server both drive this class, so the
// fp32 bit-identity contract (row r of a batched forward == the standalone
// single-row scan) extends structurally to any mix of concurrently
// coalesced peers.
//
// The state machine is net-agnostic: it emits observation rows and consumes
// Q-value rows, so the fp32 and int8 tiers share it by construction.
// Every method is allocation-free — all storage is caller-owned — which is
// what lets server request slots be rebound without heap churn on the
// serving loop's hot path.
class GreedyScanState {
 public:
  GreedyScanState() = default;

  // Binds to caller-owned storage and rewinds to position 0 / empty subset.
  // `observation` must hold 2m+3 floats (layout [repr(m) | mask(m) | pos/m |
  // repr[pos] | selected/m]) and `mask` must already have size m; both are
  // fully (re)initialized here. `representation` must stay alive until the
  // scan finishes (servers hold the blocked caller's vector).
  void Bind(const float* representation, int m, double max_feature_ratio,
            float* observation, FeatureMask* mask);

  // True once the scan has retired: position ran off the end or the
  // selection budget is exhausted (Algorithm 1 line 10).
  bool ScanDone() const {
    return position_ >= m_ || selected_ >= max_selectable_;
  }

  // Refreshes the position-dependent tail fields and copies the observation
  // row (2m+3 floats) into `row_out` — one row of the coalesced forward
  // batch. Requires !ScanDone().
  void EmitObservationRow(float* row_out);

  // Applies the greedy select/deselect decision for the current position
  // from this request's row of the shared forward pass (kNumActions floats),
  // then advances the scan.
  void ApplyDecision(const float* q_row);

  // After the scan retires: if the greedy pass selected nothing, selects the
  // single most task-relevant feature (a usable selector never returns the
  // empty subset). Idempotent; no-op when anything was selected.
  void FinalizeFallback();


 private:
  const float* representation_ = nullptr;
  float* observation_ = nullptr;
  FeatureMask* mask_ = nullptr;
  int m_ = 0;
  int position_ = 0;
  int selected_ = 0;
  int max_selectable_ = 0;
};

// The unseen-task execution path shared by the live trainer and restored
// checkpoints (Algorithm 1 lines 22-24): one greedy scan of the Q-network
// over the task representation, bounded by the max feature ratio. If the
// greedy pass selects nothing, falls back to the single most task-relevant
// feature (a usable selector never returns the empty subset).
//
// The network's input must be laid out as the FeatureSelectionEnv
// observation: [task_repr(m) | mask(m) | pos/m | repr[pos] | selected/m].
//
// Implemented as GreedySelectSubsets on a batch of one — there is no
// separate single-task scan.
FeatureMask GreedySelectSubset(const DuelingNet& net,
                               const std::vector<float>& representation,
                               double max_feature_ratio);

// Multi-task execution through the batched inference plane: all tasks scan
// their feature positions in lock-step and each position's Q queries run as
// one batched forward pass instead of one single-row pass per task. Tasks
// whose selection budget is exhausted retire from the batch. Result i is
// bit-identical to GreedySelectSubset(net, representations[i], ...) — the
// kernels guarantee per-row bits independent of the batch composition. All
// representations must have the same dimension (one Q-network serves one
// observation layout).
std::vector<FeatureMask> GreedySelectSubsets(
    const DuelingNet& net,
    const std::vector<std::vector<float>>& representations,
    double max_feature_ratio);

// Quantized-tier twins: the identical lock-step scan (same observation
// layout, retirement rule and fallback) with Q queries answered by the int8
// net. The scan logic is shared with the fp32 overloads at compile time, so
// the two tiers cannot drift; only the Q-values differ (by quantization
// error), which is what the subset-match suite bounds.
FeatureMask GreedySelectSubset(const QuantizedDuelingNet& net,
                               const std::vector<float>& representation,
                               double max_feature_ratio);
std::vector<FeatureMask> GreedySelectSubsets(
    const QuantizedDuelingNet& net,
    const std::vector<std::vector<float>>& representations,
    double max_feature_ratio);

}  // namespace pafeat

#endif  // PAFEAT_CORE_GREEDY_POLICY_H_
