#include "ml/metrics.h"

#include <gtest/gtest.h>

namespace pafeat {
namespace {

TEST(ConfusionTest, CountsAllQuadrants) {
  const std::vector<float> scores = {0.9f, 0.8f, 0.2f, 0.1f};
  const std::vector<float> labels = {1.0f, 0.0f, 1.0f, 0.0f};
  const ConfusionCounts c = ComputeConfusion(scores, labels);
  EXPECT_EQ(c.true_positive, 1);
  EXPECT_EQ(c.false_positive, 1);
  EXPECT_EQ(c.false_negative, 1);
  EXPECT_EQ(c.true_negative, 1);
  EXPECT_DOUBLE_EQ(Precision(c), 0.5);
  EXPECT_DOUBLE_EQ(Recall(c), 0.5);
}

TEST(F1Test, PerfectPrediction) {
  const std::vector<float> scores = {0.9f, 0.1f, 0.8f};
  const std::vector<float> labels = {1.0f, 0.0f, 1.0f};
  EXPECT_DOUBLE_EQ(F1Score(scores, labels), 1.0);
}

TEST(F1Test, HandComputedCase) {
  // TP=2, FP=1, FN=1 -> precision 2/3, recall 2/3, F1 = 2/3.
  const std::vector<float> scores = {0.9f, 0.9f, 0.9f, 0.1f, 0.1f};
  const std::vector<float> labels = {1.0f, 1.0f, 0.0f, 1.0f, 0.0f};
  EXPECT_NEAR(F1Score(scores, labels), 2.0 / 3.0, 1e-12);
}

TEST(F1Test, ZeroWhenNothingPredictedPositive) {
  const std::vector<float> scores = {0.1f, 0.2f};
  const std::vector<float> labels = {1.0f, 1.0f};
  EXPECT_DOUBLE_EQ(F1Score(scores, labels), 0.0);
}

TEST(AucTest, PerfectRanking) {
  const std::vector<float> scores = {0.1f, 0.4f, 0.35f, 0.8f};
  const std::vector<float> labels = {0.0f, 0.0f, 0.0f, 1.0f};
  EXPECT_DOUBLE_EQ(AucScore(scores, labels), 1.0);
}

TEST(AucTest, InvertedRankingIsZero) {
  const std::vector<float> scores = {0.9f, 0.1f};
  const std::vector<float> labels = {0.0f, 1.0f};
  EXPECT_DOUBLE_EQ(AucScore(scores, labels), 0.0);
}

TEST(AucTest, HandComputedCase) {
  // Positives at scores {0.8, 0.4}; negatives at {0.6, 0.2}.
  // Pairs: (0.8 vs 0.6)=1, (0.8 vs 0.2)=1, (0.4 vs 0.6)=0, (0.4 vs 0.2)=1
  // -> AUC = 3/4.
  const std::vector<float> scores = {0.8f, 0.4f, 0.6f, 0.2f};
  const std::vector<float> labels = {1.0f, 1.0f, 0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(AucScore(scores, labels), 0.75);
}

TEST(AucTest, TiesCountHalf) {
  // One positive and one negative with identical score -> AUC 0.5.
  const std::vector<float> scores = {0.5f, 0.5f};
  const std::vector<float> labels = {1.0f, 0.0f};
  EXPECT_DOUBLE_EQ(AucScore(scores, labels), 0.5);
}

TEST(AucTest, AllConstantScoresGiveHalf) {
  const std::vector<float> scores = {0.3f, 0.3f, 0.3f, 0.3f};
  const std::vector<float> labels = {1.0f, 0.0f, 1.0f, 0.0f};
  EXPECT_DOUBLE_EQ(AucScore(scores, labels), 0.5);
}

TEST(AucTest, DegenerateSingleClassGivesHalf) {
  const std::vector<float> scores = {0.2f, 0.9f};
  EXPECT_DOUBLE_EQ(AucScore(scores, {1.0f, 1.0f}), 0.5);
  EXPECT_DOUBLE_EQ(AucScore(scores, {0.0f, 0.0f}), 0.5);
}

TEST(AucTest, InvariantToMonotoneTransform) {
  const std::vector<float> scores = {0.1f, 0.5f, 0.3f, 0.9f, 0.7f};
  const std::vector<float> labels = {0.0f, 1.0f, 0.0f, 1.0f, 1.0f};
  std::vector<float> squashed = scores;
  for (float& s : squashed) s = s * s * 10.0f;  // monotone on [0, 1]
  EXPECT_DOUBLE_EQ(AucScore(scores, labels), AucScore(squashed, labels));
}

}  // namespace
}  // namespace pafeat
