#include "tensor/kernels.h"

#include <cstdint>
#include <cstdlib>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pafeat {
namespace {

using kernels::SimdCapability;

std::vector<float> RandomVec(size_t size, Rng* rng) {
  std::vector<float> v(size);
  for (float& x : v) x = static_cast<float>(rng->Normal(0.0, 1.0));
  return v;
}

std::vector<std::int8_t> RandomInt8Vec(size_t size, Rng* rng) {
  std::vector<std::int8_t> v(size);
  for (std::int8_t& x : v) {
    x = static_cast<std::int8_t>(rng->UniformInt(255) - 127);
  }
  return v;
}

std::vector<SimdCapability> AvailableLevels() {
  std::vector<SimdCapability> levels;
  for (SimdCapability level :
       {SimdCapability::kGeneric, SimdCapability::kAvx2,
        SimdCapability::kAvx512}) {
    if (kernels::SimdCapabilityAvailable(level)) levels.push_back(level);
  }
  return levels;
}

TEST(SimdDispatchTest, NameAndParseRoundTrip) {
  for (SimdCapability level :
       {SimdCapability::kGeneric, SimdCapability::kAvx2,
        SimdCapability::kAvx512}) {
    SimdCapability parsed = SimdCapability::kGeneric;
    ASSERT_TRUE(kernels::ParseSimdCapability(kernels::SimdCapabilityName(level),
                                             &parsed));
    EXPECT_EQ(parsed, level);
  }
  SimdCapability untouched = SimdCapability::kAvx2;
  EXPECT_FALSE(kernels::ParseSimdCapability("sse9", &untouched));
  // No aarch64 level exists: "neon" is an unknown token like any other.
  EXPECT_FALSE(kernels::ParseSimdCapability("neon", &untouched));
  EXPECT_FALSE(kernels::ParseSimdCapability("", &untouched));
  EXPECT_EQ(untouched, SimdCapability::kAvx2);
}

TEST(SimdDispatchTest, GenericAlwaysAvailable) {
  EXPECT_TRUE(kernels::SimdCapabilityAvailable(SimdCapability::kGeneric));
}

// The active level is the probed best clamped down by PAFEAT_SIMD. Under the
// forced-downgrade ctest matrix this test runs once per level: when the
// variable names an available level the clamp must land exactly there; when
// it names a level above the host's best, the clamp is a no-op.
TEST(SimdDispatchTest, ActiveLevelHonorsEnvironmentClamp) {
  const SimdCapability active = kernels::ActiveSimdCapability();
  ASSERT_TRUE(kernels::SimdCapabilityAvailable(active));
  const char* requested = std::getenv("PAFEAT_SIMD");
  if (requested == nullptr) GTEST_SKIP() << "PAFEAT_SIMD not set";
  SimdCapability want = SimdCapability::kGeneric;
  ASSERT_TRUE(kernels::ParseSimdCapability(requested, &want))
      << "matrix passed unparseable PAFEAT_SIMD=" << requested;
  if (kernels::SimdCapabilityAvailable(want)) {
    EXPECT_EQ(active, want) << "clamp to an available level must be exact";
  } else {
    EXPECT_LT(static_cast<int>(active), static_cast<int>(want))
        << "requesting an unavailable level keeps the best available one";
  }
}

// The AVX-512 rowwise core packs two rows' 8-lane accumulators per register
// but replays the AVX2 per-row operation sequence exactly (same FMA lane
// math, same scalar tail, same in-order lane reduction), so the two levels
// must agree bit for bit on every shape — including ragged tails that
// exercise the 8-row, 4-row and single-row paths.
TEST(SimdDispatchTest, RowwiseAvx2AndAvx512AreBitIdentical) {
  if (!kernels::SimdCapabilityAvailable(SimdCapability::kAvx512)) {
    GTEST_SKIP() << "host has no AVX-512";
  }
  for (const auto& [m, n, p] :
       std::vector<std::tuple<int, int, int>>{{1, 1, 1},
                                              {3, 5, 17},
                                              {8, 2, 64},
                                              {9, 7, 33},
                                              {16, 4, 147},
                                              {21, 2, 2043}}) {
    Rng rng(401 + m * 131 + n * 17 + p);
    const std::vector<float> a = RandomVec(static_cast<size_t>(m) * p, &rng);
    const std::vector<float> b = RandomVec(static_cast<size_t>(n) * p, &rng);
    std::vector<float> c2(static_cast<size_t>(m) * n, 0.5f);
    std::vector<float> c5 = c2;
    ASSERT_TRUE(kernels::GemmNTRowwiseAt(SimdCapability::kAvx2, m, n, p,
                                         a.data(), p, b.data(), p, c2.data(),
                                         n));
    ASSERT_TRUE(kernels::GemmNTRowwiseAt(SimdCapability::kAvx512, m, n, p,
                                         a.data(), p, b.data(), p, c5.data(),
                                         n));
    for (size_t i = 0; i < c2.size(); ++i) {
      ASSERT_EQ(c2[i], c5[i]) << "shape (" << m << "," << n << "," << p
                              << ") element " << i;
    }
  }
}

// Every available level's rowwise core must match the dispatched GemmNT on
// sub-transpose-threshold shapes (the single-row contract), up to the level's
// own rounding — for the active level the match is bitwise by construction.
TEST(SimdDispatchTest, RowwiseAtActiveLevelMatchesDispatchedKernel) {
  const SimdCapability active = kernels::ActiveSimdCapability();
  const int m = 6, n = 3, p = 93;  // below the m >= 8 transpose threshold
  Rng rng(77);
  const std::vector<float> a = RandomVec(static_cast<size_t>(m) * p, &rng);
  const std::vector<float> b = RandomVec(static_cast<size_t>(n) * p, &rng);
  std::vector<float> want(static_cast<size_t>(m) * n, 0.0f);
  kernels::GemmNT(m, n, p, a.data(), p, b.data(), p, want.data(), n);
  std::vector<float> got(static_cast<size_t>(m) * n, 0.0f);
  ASSERT_TRUE(kernels::GemmNTRowwiseAt(active, m, n, p, a.data(), p, b.data(),
                                       p, got.data(), n));
  for (size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], want[i]);
}

// Gather keeps a per-level contract: one rounded accumulate per column entry
// in list order. Levels agree with a double-precision reference to float
// tolerance, and each level is self-consistent with the zero-masked full
// product (covered in masked_inference_test at the active level).
TEST(SimdDispatchTest, GatherAtEachLevelMatchesReference) {
  const int m = 5, n = 19, width = 40;
  const std::vector<int> cols = {0, 3, 4, 9, 17, 31, 39};
  const int ncols = static_cast<int>(cols.size());
  Rng rng(1234);
  const std::vector<float> a = RandomVec(static_cast<size_t>(m) * width, &rng);
  const std::vector<float> b =
      RandomVec(static_cast<size_t>(width) * n, &rng);
  std::vector<double> ref(static_cast<size_t>(m) * n, 0.0);
  for (int i = 0; i < m; ++i) {
    for (const int k : cols) {
      for (int j = 0; j < n; ++j) {
        ref[i * n + j] += static_cast<double>(a[i * width + k]) * b[k * n + j];
      }
    }
  }
  for (SimdCapability level : AvailableLevels()) {
    std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
    ASSERT_TRUE(kernels::GemmGatherNNAt(level, m, n, a.data(), width,
                                        cols.data(), ncols, b.data(), n,
                                        c.data(), n));
    for (size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], ref[i], 1e-4)
          << kernels::SimdCapabilityName(level) << " element " << i;
    }
  }
}

// Int8 accumulation is exact integer arithmetic: every level must produce
// the identical int32 output, bit for bit, including the saturated-operand
// worst case at the documented depth bound.
TEST(SimdDispatchTest, Int8LevelsAreExactAndIdentical) {
  for (const auto& [m, n, p] : std::vector<std::tuple<int, int, int>>{
           {1, 1, 1}, {4, 3, 16}, {5, 9, 31}, {7, 2, 147}, {3, 4, 2043}}) {
    Rng rng(9000 + m + n + p);
    const std::vector<std::int8_t> a =
        RandomInt8Vec(static_cast<size_t>(m) * p, &rng);
    const std::vector<std::int8_t> b =
        RandomInt8Vec(static_cast<size_t>(n) * p, &rng);
    std::vector<std::int32_t> ref(static_cast<size_t>(m) * n, 7);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        std::int64_t acc = 0;
        for (int k = 0; k < p; ++k) {
          acc += static_cast<std::int32_t>(a[i * p + k]) *
                 static_cast<std::int32_t>(b[j * p + k]);
        }
        ref[i * n + j] += static_cast<std::int32_t>(acc);
      }
    }
    for (SimdCapability level : AvailableLevels()) {
      std::vector<std::int32_t> c(static_cast<size_t>(m) * n, 7);
      ASSERT_TRUE(kernels::GemmInt8NTAt(level, m, n, p, a.data(), p, b.data(),
                                        p, c.data(), n));
      EXPECT_EQ(c, ref) << kernels::SimdCapabilityName(level) << " shape ("
                        << m << "," << n << "," << p << ")";
    }
    // The dispatched kernel agrees with every level (order-independence).
    std::vector<std::int32_t> c(static_cast<size_t>(m) * n, 7);
    kernels::GemmInt8NT(m, n, p, a.data(), p, b.data(), p, c.data(), n);
    EXPECT_EQ(c, ref);
  }
}

TEST(SimdDispatchTest, Int8SaturatedDepthBoundDoesNotOverflow) {
  // All-(+127) rows at a depth near the bound: the largest dot product the
  // contract admits. Exact value must come back at every level.
  const int p = 4096;  // well under kGemmInt8MaxDepth, above any lane block
  ASSERT_LE(p, kernels::kGemmInt8MaxDepth);
  const std::vector<std::int8_t> a(static_cast<size_t>(p), 127);
  const std::vector<std::int8_t> b(static_cast<size_t>(p), 127);
  const std::int32_t want = 127 * 127 * p;
  for (SimdCapability level : AvailableLevels()) {
    std::int32_t c = 0;
    ASSERT_TRUE(kernels::GemmInt8NTAt(level, 1, 1, p, a.data(), p, b.data(), p,
                                      &c, 1));
    EXPECT_EQ(c, want) << kernels::SimdCapabilityName(level);
  }
}

// Quantization is per-element (no accumulation), so every level must emit
// identical code bytes and scales — including ties (rounded to even), the
// clamp boundary, strided rows, and the all-zero-row scale-1 special case.
TEST(SimdDispatchTest, QuantizeRowsLevelsProduceIdenticalBytes) {
  constexpr int kRows = 5;
  constexpr int kCols = 37;
  constexpr int kLd = 41;  // strided: the tail of each row must be ignored
  Rng rng(4242);
  std::vector<float> x(static_cast<size_t>(kRows) * kLd);
  for (float& v : x) v = static_cast<float>(rng.Normal(0.0, 2.0));
  // Row 1: all zeros (scale-1 branch). Row 2: exact half-step ties once the
  // max is 127 — codes 0.5, 1.5 must round to even, not away from zero.
  for (int k = 0; k < kCols; ++k) x[1 * kLd + k] = 0.0f;
  x[2 * kLd + 0] = 127.0f;
  x[2 * kLd + 1] = 0.5f;
  x[2 * kLd + 2] = 1.5f;
  x[2 * kLd + 3] = -0.5f;

  std::vector<std::int8_t> q_ref(static_cast<size_t>(kRows) * kCols, 99);
  std::vector<float> s_ref(kRows, -1.0f);
  ASSERT_TRUE(kernels::QuantizeRowsInt8At(SimdCapability::kGeneric, kRows,
                                          kCols, x.data(), kLd, q_ref.data(),
                                          kCols, s_ref.data()));
  EXPECT_EQ(s_ref[1], 1.0f);
  for (int k = 0; k < kCols; ++k) EXPECT_EQ(q_ref[1 * kCols + k], 0);
  EXPECT_EQ(q_ref[2 * kCols + 0], 127);
  EXPECT_EQ(q_ref[2 * kCols + 1], 0);   // 0.5 -> even
  EXPECT_EQ(q_ref[2 * kCols + 2], 2);   // 1.5 -> even
  EXPECT_EQ(q_ref[2 * kCols + 3], 0);   // -0.5 -> even

  for (SimdCapability level : AvailableLevels()) {
    std::vector<std::int8_t> q(static_cast<size_t>(kRows) * kCols, 99);
    std::vector<float> s(kRows, -1.0f);
    ASSERT_TRUE(kernels::QuantizeRowsInt8At(level, kRows, kCols, x.data(), kLd,
                                            q.data(), kCols, s.data()));
    EXPECT_EQ(q, q_ref) << kernels::SimdCapabilityName(level);
    EXPECT_EQ(s, s_ref) << kernels::SimdCapabilityName(level);
  }
  // The dispatched kernel agrees with the per-level entry points.
  std::vector<std::int8_t> q(static_cast<size_t>(kRows) * kCols, 99);
  std::vector<float> s(kRows, -1.0f);
  kernels::QuantizeRowsInt8(kRows, kCols, x.data(), kLd, q.data(), kCols,
                            s.data());
  EXPECT_EQ(q, q_ref);
  EXPECT_EQ(s, s_ref);
}

TEST(SimdDispatchTest, UnavailableLevelLeavesOutputUntouched) {
  float c = 3.25f;
  const float a = 1.0f, b = 2.0f;
  if (!kernels::SimdCapabilityAvailable(SimdCapability::kAvx512)) {
    EXPECT_FALSE(kernels::GemmNTRowwiseAt(SimdCapability::kAvx512, 1, 1, 1, &a,
                                          1, &b, 1, &c, 1));
    EXPECT_EQ(c, 3.25f);
  }
  // A value outside the ladder has no instantiation; the accessor must
  // refuse it, not crash.
  EXPECT_FALSE(kernels::GemmNTRowwiseAt(static_cast<SimdCapability>(7), 1, 1,
                                        1, &a, 1, &b, 1, &c, 1));
  EXPECT_EQ(c, 3.25f);
}

}  // namespace
}  // namespace pafeat
