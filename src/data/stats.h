#ifndef PAFEAT_DATA_STATS_H_
#define PAFEAT_DATA_STATS_H_

#include <vector>

#include "tensor/matrix.h"

namespace pafeat {

// Pearson correlation coefficient between two equal-length vectors.
// Returns 0 when either vector is constant.
double PearsonCorrelation(const std::vector<float>& a,
                          const std::vector<float>& b);

// The paper's task representation (§III-B): per feature, the absolute value
// of the Pearson correlation between the feature column (over `rows`) and the
// task's label vector. Length = number of features.
std::vector<float> TaskRepresentation(const Matrix& features,
                                      const std::vector<float>& labels,
                                      const std::vector<int>& rows);

// Histogram-based mutual information (in nats) between a continuous feature
// and a binary label, estimated with `bins` equal-width bins over `rows`.
// Used by K-Best, GRRO-LS and Ant-TD.
double MutualInformationWithLabel(const Matrix& features, int feature,
                                  const std::vector<float>& labels,
                                  const std::vector<int>& rows, int bins = 10);

// Pre-binned view of every feature over a fixed row set, amortizing the
// equal-width binning across the O(m * |S|) pairwise MI queries issued by
// the redundancy-aware baselines (GRRO-LS, Ant-TD).
class BinnedFeatures {
 public:
  BinnedFeatures(const Matrix& features, const std::vector<int>& rows,
                 int bins);

  // MI between two features, from the cached bin ids.
  double MutualInformation(int feature_a, int feature_b) const;

  int num_features() const { return static_cast<int>(ids_.size()); }
  int num_rows() const { return num_rows_; }

 private:
  int bins_;
  int num_rows_;
  std::vector<std::vector<int>> ids_;  // [feature][row]
};

}  // namespace pafeat

#endif  // PAFEAT_DATA_STATS_H_
