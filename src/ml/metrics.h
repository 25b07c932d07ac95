#ifndef PAFEAT_ML_METRICS_H_
#define PAFEAT_ML_METRICS_H_

#include <vector>

namespace pafeat {

struct ConfusionCounts {
  int true_positive = 0;
  int false_positive = 0;
  int true_negative = 0;
  int false_negative = 0;
};

// Confusion counts at a 0.5 score threshold (labels are 0/1 floats).
ConfusionCounts ComputeConfusion(const std::vector<float>& scores,
                                 const std::vector<float>& labels);

double Precision(const ConfusionCounts& counts);
double Recall(const ConfusionCounts& counts);

// F1 = harmonic mean of precision and recall at threshold 0.5 (the paper's
// primary effectiveness metric). Returns 0 when precision + recall == 0.
double F1Score(const std::vector<float>& scores,
               const std::vector<float>& labels);

// Area under the ROC curve, computed from the rank statistic with midrank
// tie handling. Returns 0.5 when one class is absent (no ranking signal).
double AucScore(const std::vector<float>& scores,
                const std::vector<float>& labels);

}  // namespace pafeat

#endif  // PAFEAT_ML_METRICS_H_
