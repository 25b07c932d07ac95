#include "tensor/matrix.h"


#include "common/logging.h"
#include "tensor/kernels.h"

namespace pafeat {

Matrix::Matrix(int rows, int cols) : Matrix(rows, cols, 0.0f) {}

Matrix::Matrix(int rows, int cols, float fill)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {
  PF_CHECK_GE(rows, 0);
  PF_CHECK_GE(cols, 0);
}

Matrix Matrix::Zeros(int rows, int cols) { return Matrix(rows, cols, 0.0f); }

Matrix Matrix::RandomNormal(int rows, int cols, float stddev, Rng* rng) {
  Matrix m(rows, cols);
  for (float& v : m.data_) v = static_cast<float>(rng->Normal(0.0, stddev));
  return m;
}

// Bounds are verified only in checked builds (-DPAFEAT_CHECKED=ON):
// At/Row sit on the training hot path, and out-of-bounds indices that stay
// inside data_ (row overflow walking into the next row) are invisible to
// ASan because the vector allocation itself is never exceeded.

float& Matrix::At(int r, int c) {
  PF_DCHECK_GE(r, 0);
  PF_DCHECK_LT(r, rows_);
  PF_DCHECK_GE(c, 0);
  PF_DCHECK_LT(c, cols_);
  return data_[static_cast<size_t>(r) * cols_ + c];
}

float Matrix::At(int r, int c) const {
  PF_DCHECK_GE(r, 0);
  PF_DCHECK_LT(r, rows_);
  PF_DCHECK_GE(c, 0);
  PF_DCHECK_LT(c, cols_);
  return data_[static_cast<size_t>(r) * cols_ + c];
}

float* Matrix::Row(int r) {
  PF_DCHECK_GE(r, 0);
  PF_DCHECK_LT(r, rows_);
  return data_.data() + static_cast<size_t>(r) * cols_;
}

const float* Matrix::Row(int r) const {
  PF_DCHECK_GE(r, 0);
  PF_DCHECK_LT(r, rows_);
  return data_.data() + static_cast<size_t>(r) * cols_;
}

void Matrix::Add(const Matrix& other) {
  PF_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::Axpy(float scalar, const Matrix& other) {
  PF_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += scalar * other.data_[i];
}

// The three product forms delegate to the blocked/vectorized kernel layer
// (tensor/kernels.h), which also decides when to split row panels across
// the shared thread pool. The kernels accumulate, so outputs start zeroed.

Matrix Matrix::MatMul(const Matrix& other) const {
  PF_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  kernels::GemmNN(rows_, other.cols_, cols_, data(), cols_, other.data(),
                  other.cols_, out.data(), out.cols_);
  return out;
}

Matrix Matrix::TransposedMatMul(const Matrix& other) const {
  PF_CHECK_EQ(rows_, other.rows_);
  Matrix out(cols_, other.cols_);
  kernels::GemmTN(cols_, other.cols_, rows_, data(), cols_, other.data(),
                  other.cols_, out.data(), out.cols_);
  return out;
}

Matrix Matrix::MatMulTransposed(const Matrix& other) const {
  PF_CHECK_EQ(cols_, other.cols_);
  Matrix out(rows_, other.rows_);
  kernels::GemmNT(rows_, other.rows_, cols_, data(), cols_, other.data(),
                  other.cols_, out.data(), out.cols_);
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out.At(c, r) = At(r, c);
  }
  return out;
}

Matrix Matrix::SelectRows(const std::vector<int>& indices) const {
  Matrix out(static_cast<int>(indices.size()), cols_);
  for (int i = 0; i < out.rows(); ++i) {
    const int src = indices[i];
    PF_CHECK_GE(src, 0);
    PF_CHECK_LT(src, rows_);
    const float* src_row = Row(src);
    float* dst_row = out.Row(i);
    for (int c = 0; c < cols_; ++c) dst_row[c] = src_row[c];
  }
  return out;
}

Matrix Matrix::SelectCols(const std::vector<int>& indices) const {
  Matrix out(rows_, static_cast<int>(indices.size()));
  for (int r = 0; r < rows_; ++r) {
    const float* src_row = Row(r);
    float* dst_row = out.Row(r);
    for (int i = 0; i < out.cols(); ++i) {
      const int src = indices[i];
      PF_CHECK_GE(src, 0);
      PF_CHECK_LT(src, cols_);
      dst_row[i] = src_row[src];
    }
  }
  return out;
}

}  // namespace pafeat
