#include "ml/metrics.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace pafeat {

ConfusionCounts ComputeConfusion(const std::vector<float>& scores,
                                 const std::vector<float>& labels) {
  PF_CHECK_EQ(scores.size(), labels.size());
  ConfusionCounts counts;
  for (size_t i = 0; i < scores.size(); ++i) {
    const bool predicted = scores[i] > 0.5f;
    const bool actual = labels[i] > 0.5f;
    if (predicted && actual) ++counts.true_positive;
    if (predicted && !actual) ++counts.false_positive;
    if (!predicted && actual) ++counts.false_negative;
    if (!predicted && !actual) ++counts.true_negative;
  }
  return counts;
}

double Precision(const ConfusionCounts& c) {
  const int denom = c.true_positive + c.false_positive;
  return denom == 0 ? 0.0 : static_cast<double>(c.true_positive) / denom;
}

double Recall(const ConfusionCounts& c) {
  const int denom = c.true_positive + c.false_negative;
  return denom == 0 ? 0.0 : static_cast<double>(c.true_positive) / denom;
}

double F1Score(const std::vector<float>& scores,
               const std::vector<float>& labels) {
  const ConfusionCounts counts = ComputeConfusion(scores, labels);
  const double p = Precision(counts);
  const double r = Recall(counts);
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double AucScore(const std::vector<float>& scores,
                const std::vector<float>& labels) {
  PF_CHECK_EQ(scores.size(), labels.size());
  const size_t n = scores.size();
  long long positives = 0;
  for (float y : labels) {
    if (y > 0.5f) ++positives;
  }
  const long long negatives = static_cast<long long>(n) - positives;
  if (positives == 0 || negatives == 0) return 0.5;

  // Midrank-based AUC: AUC = (sum of positive ranks - P(P+1)/2) / (P * N).
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return scores[a] < scores[b]; });

  std::vector<double> ranks(n);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double midrank = 0.5 * (i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = midrank;
    i = j + 1;
  }

  double positive_rank_sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    if (labels[k] > 0.5f) positive_rank_sum += ranks[k];
  }
  const double auc =
      (positive_rank_sum - 0.5 * positives * (positives + 1)) /
      (static_cast<double>(positives) * negatives);
  return auc;
}

}  // namespace pafeat
