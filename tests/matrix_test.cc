#include "tensor/matrix.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pafeat {
namespace {

// Naive O(n^3) reference multiply used to validate the optimized loops.
Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      out.At(i, j) = acc;
    }
  }
  return out;
}

void ExpectNear(const Matrix& a, const Matrix& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.SameShape(b));
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a.At(r, c), b.At(r, c), tol) << "at (" << r << "," << c << ")";
    }
  }
}

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_FLOAT_EQ(m.At(1, 2), 1.5f);
}

TEST(MatrixTest, IdentityMultiplicationIsNoOp) {
  Rng rng(3);
  const Matrix a = Matrix::RandomNormal(4, 4, 1.0f, &rng);
  Matrix identity(4, 4);
  for (int i = 0; i < 4; ++i) identity.At(i, i) = 1.0f;
  ExpectNear(a.MatMul(identity), a);
  ExpectNear(identity.MatMul(a), a);
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a(2, 2, 2.0f);
  Matrix b(2, 2, 3.0f);
  a.Add(b);
  EXPECT_FLOAT_EQ(a.At(0, 0), 5.0f);
  a.Axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a.At(1, 1), 6.5f);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(5);
  const Matrix a = Matrix::RandomNormal(3, 5, 1.0f, &rng);
  ExpectNear(a.Transposed().Transposed(), a);
  EXPECT_EQ(a.Transposed().rows(), 5);
  EXPECT_EQ(a.Transposed().cols(), 3);
  EXPECT_FLOAT_EQ(a.Transposed().At(4, 2), a.At(2, 4));
}

TEST(MatrixTest, SelectRowsAndCols) {
  Matrix m(3, 3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) m.At(r, c) = static_cast<float>(r * 10 + c);
  }
  const Matrix rows = m.SelectRows({2, 0});
  EXPECT_EQ(rows.rows(), 2);
  EXPECT_FLOAT_EQ(rows.At(0, 1), 21.0f);
  EXPECT_FLOAT_EQ(rows.At(1, 0), 0.0f);
  const Matrix cols = m.SelectCols({1});
  EXPECT_EQ(cols.cols(), 1);
  EXPECT_FLOAT_EQ(cols.At(2, 0), 21.0f);
}

TEST(MatrixDeathTest, ShapeMismatchDies) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_DEATH(a.Add(b), "Check failed");
  EXPECT_DEATH(a.MatMul(Matrix(3, 2)), "Check failed");
}

class MatMulSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulSweep, MatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(100 + m * 31 + k * 7 + n);
  const Matrix a = Matrix::RandomNormal(m, k, 1.0f, &rng);
  const Matrix b = Matrix::RandomNormal(k, n, 1.0f, &rng);
  ExpectNear(a.MatMul(b), ReferenceMatMul(a, b), 1e-3f);
}

TEST_P(MatMulSweep, TransposedVariantsMatchExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(200 + m * 31 + k * 7 + n);
  const Matrix a = Matrix::RandomNormal(k, m, 1.0f, &rng);
  const Matrix b = Matrix::RandomNormal(k, n, 1.0f, &rng);
  // a^T * b.
  ExpectNear(a.TransposedMatMul(b), ReferenceMatMul(a.Transposed(), b), 1e-3f);
  // c * d^T.
  const Matrix c = Matrix::RandomNormal(m, k, 1.0f, &rng);
  const Matrix d = Matrix::RandomNormal(n, k, 1.0f, &rng);
  ExpectNear(c.MatMulTransposed(d), ReferenceMatMul(c, d.Transposed()), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 7), std::make_tuple(8, 8, 8),
                      std::make_tuple(13, 17, 3), std::make_tuple(32, 16, 8)));

}  // namespace
}  // namespace pafeat
