#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/conjugate_gradient.h"
#include "linalg/knn_graph.h"
#include "linalg/sparse.h"
#include "tensor/matrix.h"

namespace pafeat {
namespace {

TEST(SymmetricSparseTest, MatVecAppliesSymmetrically) {
  SymmetricSparse a(3);
  a.Add(0, 1, 2.0f);  // implies (1,0) as well
  a.Add(2, 2, 5.0f);
  const std::vector<float> x = {1.0f, 1.0f, 1.0f};
  const std::vector<float> y = a.MatVec(x);
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  EXPECT_FLOAT_EQ(y[2], 5.0f);
}

TEST(SymmetricSparseTest, MatMatMatchesMatVecPerColumn) {
  SymmetricSparse a(4);
  a.Add(0, 3, 1.5f);
  a.Add(1, 1, 2.0f);
  a.Add(2, 3, -0.5f);
  Rng rng(5);
  const Matrix x = Matrix::RandomNormal(4, 3, 1.0f, &rng);
  const Matrix y = a.MatMat(x);
  for (int c = 0; c < 3; ++c) {
    std::vector<float> col(4);
    for (int r = 0; r < 4; ++r) col[r] = x.At(r, c);
    const std::vector<float> ref = a.MatVec(col);
    for (int r = 0; r < 4; ++r) EXPECT_NEAR(y.At(r, c), ref[r], 1e-5f);
  }
}

TEST(ConjugateGradientTest, SolvesDiagonalSystem) {
  // A = diag(1, 2, 4), b = (1, 1, 1) -> x = (1, 0.5, 0.25).
  auto apply = [](const std::vector<float>& v) {
    return std::vector<float>{v[0], 2.0f * v[1], 4.0f * v[2]};
  };
  std::vector<float> x(3, 0.0f);
  const CgResult result = ConjugateGradient(apply, {1.0f, 1.0f, 1.0f}, &x);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(x[0], 1.0f, 1e-4f);
  EXPECT_NEAR(x[1], 0.5f, 1e-4f);
  EXPECT_NEAR(x[2], 0.25f, 1e-4f);
}

TEST(ConjugateGradientTest, SolvesRandomSpdSystem) {
  Rng rng(11);
  const int n = 12;
  const Matrix g = Matrix::RandomNormal(n, n, 1.0f, &rng);
  // A = G^T G + I is SPD.
  Matrix a = g.TransposedMatMul(g);
  for (int i = 0; i < n; ++i) a.At(i, i) += 1.0f;
  auto apply = [&](const std::vector<float>& v) {
    std::vector<float> out(n, 0.0f);
    for (int i = 0; i < n; ++i) {
      float acc = 0.0f;
      for (int j = 0; j < n; ++j) acc += a.At(i, j) * v[j];
      out[i] = acc;
    }
    return out;
  };
  std::vector<float> truth(n);
  for (int i = 0; i < n; ++i) truth[i] = static_cast<float>(rng.Normal());
  const std::vector<float> b = apply(truth);
  std::vector<float> x(n, 0.0f);
  CgOptions options;
  options.max_iterations = 500;
  options.tolerance = 1e-8;
  const CgResult result = ConjugateGradient(apply, b, &x, options);
  EXPECT_TRUE(result.converged);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], truth[i], 1e-2f);
}

TEST(ConjugateGradientTest, ZeroRhsConvergesImmediately) {
  auto apply = [](const std::vector<float>& v) { return v; };
  std::vector<float> x(4, 0.0f);
  const CgResult result = ConjugateGradient(apply, std::vector<float>(4, 0.0f), &x);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0);
}

TEST(KnnLaplacianTest, RowSumsAreZero) {
  Rng rng(21);
  const Matrix points = Matrix::RandomNormal(30, 4, 1.0f, &rng);
  const SymmetricSparse laplacian = BuildKnnLaplacian(points, 5, 0.0);
  // L * 1 = 0 for an unnormalized Laplacian.
  const std::vector<float> ones(30, 1.0f);
  const std::vector<float> result = laplacian.MatVec(ones);
  for (float v : result) EXPECT_NEAR(v, 0.0f, 1e-4f);
}

TEST(KnnLaplacianTest, QuadraticFormNonNegative) {
  Rng rng(22);
  const Matrix points = Matrix::RandomNormal(25, 3, 1.0f, &rng);
  const SymmetricSparse laplacian = BuildKnnLaplacian(points, 4, 0.0);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> f(25);
    for (float& v : f) v = static_cast<float>(rng.Normal());
    const std::vector<float> lf = laplacian.MatVec(f);
    double quad = 0.0;
    for (int i = 0; i < 25; ++i) quad += static_cast<double>(f[i]) * lf[i];
    EXPECT_GE(quad, -1e-4);
  }
}

TEST(KnnLaplacianTest, SmoothSignalHasSmallerEnergyThanNoise) {
  // Points on a line; a coordinate-aligned signal is smooth on the kNN
  // graph, a random signal is not.
  Matrix points(40, 1);
  for (int i = 0; i < 40; ++i) points.At(i, 0) = static_cast<float>(i) * 0.1f;
  const SymmetricSparse laplacian = BuildKnnLaplacian(points, 3, 0.0);

  std::vector<float> smooth(40);
  for (int i = 0; i < 40; ++i) smooth[i] = points.At(i, 0);
  Rng rng(23);
  std::vector<float> noisy(40);
  for (float& v : noisy) v = static_cast<float>(rng.Normal());

  auto energy = [&](const std::vector<float>& f) {
    const std::vector<float> lf = laplacian.MatVec(f);
    double quad = 0.0;
    for (int i = 0; i < 40; ++i) quad += static_cast<double>(f[i]) * lf[i];
    return quad;
  };
  EXPECT_LT(energy(smooth), energy(noisy));
}

}  // namespace
}  // namespace pafeat
