#include "linalg/sparse.h"

#include "common/logging.h"

namespace pafeat {

void SymmetricSparse::Add(int i, int j, float w) {
  PF_CHECK_GE(i, 0);
  PF_CHECK_LT(i, n_);
  PF_CHECK_GE(j, 0);
  PF_CHECK_LT(j, n_);
  entries_.push_back({i, j, w});
}

// lint: allow(test-only-api): oracle for SymmetricSparseTest.MatMatMatchesMatVecPerColumn
std::vector<float> SymmetricSparse::MatVec(const std::vector<float>& x) const {
  PF_CHECK_EQ(static_cast<int>(x.size()), n_);
  std::vector<float> y(n_, 0.0f);
  for (const Entry& e : entries_) {
    y[e.i] += e.w * x[e.j];
    if (e.i != e.j) y[e.j] += e.w * x[e.i];
  }
  return y;
}

Matrix SymmetricSparse::MatMat(const Matrix& x) const {
  PF_CHECK_EQ(x.rows(), n_);
  Matrix y(n_, x.cols());
  for (const Entry& e : entries_) {
    const float* xj = x.Row(e.j);
    float* yi = y.Row(e.i);
    for (int c = 0; c < x.cols(); ++c) yi[c] += e.w * xj[c];
    if (e.i != e.j) {
      const float* xi = x.Row(e.i);
      float* yj = y.Row(e.j);
      for (int c = 0; c < x.cols(); ++c) yj[c] += e.w * xi[c];
    }
  }
  return y;
}

}  // namespace pafeat
