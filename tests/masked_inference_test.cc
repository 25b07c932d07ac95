// Tests for the masked-subset inference fast path (DESIGN.md "Inference
// fast path"): column-gathered first-layer products must be bit-identical
// to the full-width reference on zero-masked inputs, the reward evaluator
// must dedup concurrent cache misses, and the per-thread inference arena
// must stop allocating once warm.

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/feature_mask.h"
#include "ml/masked_dnn.h"
#include "ml/metrics.h"
#include "ml/subset_evaluator.h"
#include "nn/mlp.h"
#include "nn/workspace.h"
#include "rl/dqn_agent.h"
#include "tensor/matrix.h"

namespace pafeat {
namespace {

// Column lists exercising the awkward shapes: nothing, everything, a single
// column at each end, alternating, and a pseudo-random half.
std::vector<std::vector<int>> ColumnListsFor(int m, Rng* rng) {
  std::vector<std::vector<int>> lists;
  lists.push_back({});                       // empty subset
  std::vector<int> all(m);
  for (int c = 0; c < m; ++c) all[c] = c;
  lists.push_back(all);                      // full subset
  lists.push_back({0});                      // one-hot, first
  lists.push_back({m - 1});                  // one-hot, last
  std::vector<int> alternating;
  for (int c = 0; c < m; c += 2) alternating.push_back(c);
  lists.push_back(alternating);
  std::vector<int> random_half;
  for (int c = 0; c < m; ++c) {
    if (rng->Bernoulli(0.5)) random_half.push_back(c);
  }
  lists.push_back(random_half);
  return lists;
}

TEST(MaskedInferenceTest, GatheredMatchesReferenceBitwise) {
  const std::vector<std::vector<int>> hidden_configs = {
      {64}, {32, 16}, {} /* single layer: input -> output directly */};
  const int feature_counts[] = {3, 7, 64, 129};
  const int row_counts[] = {1, 2, 3, 5, 8, 33};

  Rng rng(0x5eed);
  for (const std::vector<int>& hidden : hidden_configs) {
    for (int m : feature_counts) {
      MlpConfig config;
      config.input_dim = m;
      config.hidden_dims = hidden;
      config.output_dim = 2;
      config.output_activation = Activation::kLinear;
      Mlp net(config, &rng);
      const Matrix w0t = net.FirstLayerWeightTransposed();
      InferenceArena* arena = InferenceArena::ThreadLocal();

      for (int rows : row_counts) {
        const Matrix x = Matrix::RandomNormal(rows, m, 1.0f, &rng);
        for (const std::vector<int>& cols : ColumnListsFor(m, &rng)) {
          // The reference runs full-width over a copy with the unselected
          // columns zeroed — exactly what BuildMaskedBatch would produce.
          Matrix masked(rows, m);
          for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < m; ++c) masked.At(r, c) = 0.0f;
            for (int c : cols) masked.At(r, c) = x.At(r, c);
          }
          std::vector<float> fast(rows * config.output_dim);
          std::vector<float> reference(rows * config.output_dim);
          ArenaScope scope(arena);
          net.PredictGathered(rows, x.data(), m, cols.data(),
                              static_cast<int>(cols.size()), w0t, arena,
                              fast.data());
          net.PredictGatheredReference(rows, masked.data(), m, w0t, arena,
                                       reference.data());
          for (size_t i = 0; i < fast.size(); ++i) {
            ASSERT_EQ(fast[i], reference[i])
                << "m=" << m << " rows=" << rows
                << " ncols=" << cols.size() << " element " << i;
          }
        }
      }
    }
  }
}

MaskedDnnClassifier FitSmallClassifier(Matrix* features,
                                       std::vector<float>* labels) {
  Rng rng(0xc1a55);
  *features = Matrix::RandomNormal(96, 17, 1.0f, &rng);
  labels->resize(96);
  for (int r = 0; r < 96; ++r) {
    (*labels)[r] = features->At(r, 2) + features->At(r, 9) > 0.0f ? 1.0f : 0.0f;
  }
  std::vector<int> rows(96);
  for (int r = 0; r < 96; ++r) rows[r] = r;
  MaskedDnnConfig config;
  config.epochs = 3;
  MaskedDnnClassifier classifier(config);
  classifier.Fit(*features, *labels, rows, &rng);
  return classifier;
}

TEST(MaskedInferenceTest, ClassifierBlockFastMatchesReferenceBitwise) {
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier = FitSmallClassifier(&features, &labels);
  const int m = features.cols();

  std::vector<FeatureMask> masks;
  masks.push_back({});                 // empty mask = all features
  masks.push_back(FeatureMask(m, 1));  // explicit all-ones
  masks.push_back(FeatureMask(m, 0));  // empty subset
  FeatureMask one_hot(m, 0);
  one_hot[m / 2] = 1;
  masks.push_back(one_hot);
  FeatureMask alternating(m, 0);
  for (int c = 0; c < m; c += 2) alternating[c] = 1;
  masks.push_back(alternating);

  for (const FeatureMask& mask : masks) {
    const std::vector<float> fast = classifier.PredictBlock(features, mask);
    const std::vector<float> reference =
        classifier.PredictBlockReference(features, mask);
    ASSERT_EQ(fast.size(), reference.size());
    for (size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i], reference[i]) << "mask size " << mask.size()
                                       << " element " << i;
      ASSERT_GT(fast[i], 0.0f);
      ASSERT_LT(fast[i], 1.0f);
    }
  }
}

TEST(MaskedInferenceTest, EmptyAndAllOnesMasksAgree) {
  // An empty mask vector and an explicit all-ones mask are the same subset
  // and must produce identical scores through the fast path.
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier = FitSmallClassifier(&features, &labels);
  const std::vector<float> implicit = classifier.PredictBlock(features, {});
  const std::vector<float> explicit_all =
      classifier.PredictBlock(features, FeatureMask(features.cols(), 1));
  ASSERT_EQ(implicit.size(), explicit_all.size());
  for (size_t i = 0; i < implicit.size(); ++i) {
    EXPECT_EQ(implicit[i], explicit_all[i]);
  }
}

TEST(MaskedInferenceTest, AucTieHandlingRegression) {
  // Midrank tie handling: the tied positive/negative pair contributes 1/2.
  EXPECT_DOUBLE_EQ(AucScore({0.2f, 0.5f, 0.5f, 0.8f}, {0.0f, 1.0f, 0.0f, 1.0f}),
                   0.875);
  // All scores tied: chance level regardless of labels.
  EXPECT_DOUBLE_EQ(AucScore({0.4f, 0.4f, 0.4f, 0.4f}, {0.0f, 1.0f, 0.0f, 1.0f}),
                   0.5);
  // Perfect separation is unaffected.
  EXPECT_DOUBLE_EQ(AucScore({0.1f, 0.2f, 0.8f, 0.9f}, {0.0f, 0.0f, 1.0f, 1.0f}),
                   1.0);
}

TEST(MaskedInferenceTest, ArenaStopsAllocatingOnceWarm) {
  Rng rng(0xa12e4a);
  DqnConfig config;
  config.net.input_dim = 147;
  config.net.num_actions = 2;
  const DqnAgent agent(config, &rng);
  std::vector<float> observation(147);
  for (float& v : observation) v = static_cast<float>(rng.Normal());

  InferenceArena* arena = InferenceArena::ThreadLocal();
  int action = -1;
  for (int i = 0; i < 3; ++i) {
    agent.ActBatch(1, observation.data(), &action);  // warm-up
  }
  const long long slabs_before = arena->slab_allocations();
  const std::size_t capacity_before = arena->capacity_floats();
  for (int i = 0; i < 200; ++i) {
    agent.ActBatch(1, observation.data(), &action);
  }
  EXPECT_EQ(arena->slab_allocations(), slabs_before);
  EXPECT_EQ(arena->capacity_floats(), capacity_before);
}

TEST(MaskedInferenceTest, EvaluatorUncachedMatchesReward) {
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier = FitSmallClassifier(&features, &labels);
  std::vector<int> eval_rows;
  for (int r = 0; r < features.rows(); r += 2) eval_rows.push_back(r);
  const SubsetEvaluator evaluator(&features, labels, eval_rows, &classifier);

  FeatureMask mask(features.cols(), 0);
  mask[2] = 1;
  mask[9] = 1;
  const double uncached = evaluator.EvaluateUncached(mask);
  EXPECT_EQ(evaluator.Reward(mask), uncached);
  EXPECT_EQ(evaluator.Reward(mask), uncached);  // cached second time
  EXPECT_EQ(evaluator.cache_misses(), 1);
  EXPECT_EQ(evaluator.cache_hits(), 1);
}

TEST(MaskedInferenceTest, ConcurrentMissesOnSameMaskComputeOnce) {
  Matrix features;
  std::vector<float> labels;
  const MaskedDnnClassifier classifier = FitSmallClassifier(&features, &labels);
  std::vector<int> eval_rows;
  for (int r = 0; r < features.rows(); ++r) eval_rows.push_back(r);
  const SubsetEvaluator evaluator(&features, labels, eval_rows, &classifier);

  FeatureMask mask(features.cols(), 0);
  for (int c = 0; c < features.cols(); c += 3) mask[c] = 1;

  constexpr int kThreads = 8;
  std::vector<double> rewards(kThreads);
  std::atomic<int> ready{0};
  // lint: allow(raw-thread): stampede test needs unmanaged threads racing
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      rewards[t] = evaluator.Reward(mask);
    });
  }
  // lint: allow(raw-thread): joining the stress threads spawned above
  for (std::thread& thread : threads) thread.join();

  // Exactly one thread computed; everyone else waited and read the cache.
  EXPECT_EQ(evaluator.cache_misses(), 1);
  EXPECT_EQ(evaluator.cache_hits(), kThreads - 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(rewards[t], rewards[0]);
}

}  // namespace
}  // namespace pafeat
