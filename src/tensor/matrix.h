#ifndef PAFEAT_TENSOR_MATRIX_H_
#define PAFEAT_TENSOR_MATRIX_H_

#include <vector>

#include "common/rng.h"

namespace pafeat {

// Dense row-major float matrix: the numeric workhorse behind the neural
// networks, the classifiers, and the dataset generators (the project's
// replacement for NumPy/PyTorch tensors).
//
// The class is a value type: copyable, movable, and comparable by contents.
// All dimension mismatches are programmer errors and PF_CHECK-fail.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols);
  Matrix(int rows, int cols, float fill);

  static Matrix Zeros(int rows, int cols);
  // Entries drawn i.i.d. N(0, stddev^2).
  static Matrix RandomNormal(int rows, int cols, float stddev, Rng* rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }

  float& At(int r, int c);
  float At(int r, int c) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float* Row(int r);
  const float* Row(int r) const;

  // this = this + other (elementwise). Shapes must match.
  void Add(const Matrix& other);
  // this = this + scalar * other (axpy).
  void Axpy(float scalar, const Matrix& other);

  // Returns this * other. Inner dimensions must agree.
  Matrix MatMul(const Matrix& other) const;
  // Returns this^T * other.
  Matrix TransposedMatMul(const Matrix& other) const;
  // Returns this * other^T.
  Matrix MatMulTransposed(const Matrix& other) const;

  Matrix Transposed() const;

  // Returns the given rows, in order, as a new matrix.
  Matrix SelectRows(const std::vector<int>& indices) const;
  // Returns the given columns, in order, as a new matrix.
  Matrix SelectCols(const std::vector<int>& indices) const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

}  // namespace pafeat

#endif  // PAFEAT_TENSOR_MATRIX_H_
