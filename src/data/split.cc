#include "data/split.h"

#include <cmath>

#include "common/logging.h"

namespace pafeat {

TrainTestSplit MakeSplit(int num_rows, double train_fraction, Rng* rng) {
  PF_CHECK_GT(num_rows, 1);
  PF_CHECK_GT(train_fraction, 0.0);
  PF_CHECK_LT(train_fraction, 1.0);
  std::vector<int> order(num_rows);
  for (int i = 0; i < num_rows; ++i) order[i] = i;
  rng->Shuffle(&order);
  int train_count = static_cast<int>(std::lround(num_rows * train_fraction));
  train_count = std::max(1, std::min(train_count, num_rows - 1));
  TrainTestSplit split;
  split.train_rows.assign(order.begin(), order.begin() + train_count);
  split.test_rows.assign(order.begin() + train_count, order.end());
  return split;
}

void Standardizer::Fit(const Matrix& features, const std::vector<int>& rows) {
  PF_CHECK(!rows.empty());
  const int m = features.cols();
  means_.assign(m, 0.0f);
  stddevs_.assign(m, 0.0f);
  for (int r : rows) {
    const float* row = features.Row(r);
    for (int c = 0; c < m; ++c) means_[c] += row[c];
  }
  const float inv_n = 1.0f / rows.size();
  for (int c = 0; c < m; ++c) means_[c] *= inv_n;
  for (int r : rows) {
    const float* row = features.Row(r);
    for (int c = 0; c < m; ++c) {
      const float diff = row[c] - means_[c];
      stddevs_[c] += diff * diff;
    }
  }
  for (int c = 0; c < m; ++c) {
    stddevs_[c] = std::sqrt(stddevs_[c] * inv_n);
    if (stddevs_[c] < 1e-8f) stddevs_[c] = 1.0f;  // constant column
  }
}

Matrix Standardizer::Transform(const Matrix& features) const {
  PF_CHECK_EQ(features.cols(), static_cast<int>(means_.size()));
  Matrix out = features;
  for (int r = 0; r < out.rows(); ++r) {
    float* row = out.Row(r);
    for (int c = 0; c < out.cols(); ++c) {
      row[c] = (row[c] - means_[c]) / stddevs_[c];
    }
  }
  return out;
}

}  // namespace pafeat
