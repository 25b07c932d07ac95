#include "data/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace pafeat {
namespace {

// Maps values over `rows` of one feature column into equal-width bin ids.
std::vector<int> BinFeature(const Matrix& features, int feature,
                            const std::vector<int>& rows, int bins) {
  float lo = features.At(rows[0], feature);
  float hi = lo;
  for (int r : rows) {
    const float v = features.At(r, feature);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::vector<int> ids(rows.size());
  if (hi - lo < 1e-12f) return ids;  // constant column -> single bin
  const float scale = bins / (hi - lo);
  for (size_t i = 0; i < rows.size(); ++i) {
    int id = static_cast<int>((features.At(rows[i], feature) - lo) * scale);
    ids[i] = std::min(id, bins - 1);
  }
  return ids;
}

double EntropyFromCounts(const std::vector<double>& counts, double total) {
  double h = 0.0;
  for (double c : counts) {
    if (c <= 0.0) continue;
    const double p = c / total;
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace

double PearsonCorrelation(const std::vector<float>& a,
                          const std::vector<float>& b) {
  PF_CHECK_EQ(a.size(), b.size());
  PF_CHECK(!a.empty());
  const size_t n = a.size();
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= n;
  mean_b /= n;
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a < 1e-12 || var_b < 1e-12) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

std::vector<float> TaskRepresentation(const Matrix& features,
                                      const std::vector<float>& labels,
                                      const std::vector<int>& rows) {
  PF_CHECK(!rows.empty());
  const int m = features.cols();
  std::vector<float> repr(m);
  std::vector<float> column(rows.size());
  std::vector<float> label_subset(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) label_subset[i] = labels[rows[i]];
  for (int c = 0; c < m; ++c) {
    for (size_t i = 0; i < rows.size(); ++i) {
      column[i] = features.At(rows[i], c);
    }
    repr[c] =
        static_cast<float>(std::abs(PearsonCorrelation(column, label_subset)));
  }
  return repr;
}

double MutualInformationWithLabel(const Matrix& features, int feature,
                                  const std::vector<float>& labels,
                                  const std::vector<int>& rows, int bins) {
  PF_CHECK(!rows.empty());
  PF_CHECK_GT(bins, 1);
  const std::vector<int> ids = BinFeature(features, feature, rows, bins);
  std::vector<double> joint(bins * 2, 0.0);
  std::vector<double> feature_marginal(bins, 0.0);
  std::vector<double> label_marginal(2, 0.0);
  for (size_t i = 0; i < rows.size(); ++i) {
    const int y = labels[rows[i]] > 0.5f ? 1 : 0;
    joint[ids[i] * 2 + y] += 1.0;
    feature_marginal[ids[i]] += 1.0;
    label_marginal[y] += 1.0;
  }
  const double total = static_cast<double>(rows.size());
  const double h_joint = EntropyFromCounts(joint, total);
  const double h_feature = EntropyFromCounts(feature_marginal, total);
  const double h_label = EntropyFromCounts(label_marginal, total);
  return std::max(0.0, h_feature + h_label - h_joint);
}

BinnedFeatures::BinnedFeatures(const Matrix& features,
                               const std::vector<int>& rows, int bins)
    : bins_(bins), num_rows_(static_cast<int>(rows.size())) {
  PF_CHECK_GT(bins, 1);
  PF_CHECK(!rows.empty());
  ids_.reserve(features.cols());
  for (int f = 0; f < features.cols(); ++f) {
    ids_.push_back(BinFeature(features, f, rows, bins));
  }
}

double BinnedFeatures::MutualInformation(int feature_a, int feature_b) const {
  const std::vector<int>& a = ids_[feature_a];
  const std::vector<int>& b = ids_[feature_b];
  std::vector<double> joint(bins_ * bins_, 0.0);
  std::vector<double> marginal_a(bins_, 0.0);
  std::vector<double> marginal_b(bins_, 0.0);
  for (int i = 0; i < num_rows_; ++i) {
    joint[a[i] * bins_ + b[i]] += 1.0;
    marginal_a[a[i]] += 1.0;
    marginal_b[b[i]] += 1.0;
  }
  const double total = static_cast<double>(num_rows_);
  const double h_joint = EntropyFromCounts(joint, total);
  const double h_a = EntropyFromCounts(marginal_a, total);
  const double h_b = EntropyFromCounts(marginal_b, total);
  return std::max(0.0, h_a + h_b - h_joint);
}

}  // namespace pafeat
