#include "ml/masked_dnn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "ml/metrics.h"
#include "nn/tape.h"

namespace pafeat {

MaskedDnnClassifier::MaskedDnnClassifier(const MaskedDnnConfig& config)
    : config_(config) {}

Matrix MaskedDnnClassifier::BuildMaskedBatch(const Matrix& features,
                                             const std::vector<int>& rows,
                                             const FeatureMask& mask) const {
  const int m = features.cols();
  Matrix batch(static_cast<int>(rows.size()), m);
  if (mask.empty()) {
    for (int i = 0; i < batch.rows(); ++i) {
      std::memcpy(batch.Row(i), features.Row(rows[i]),
                  static_cast<std::size_t>(m) * sizeof(float));
    }
    return batch;
  }
  PF_CHECK_EQ(static_cast<int>(mask.size()), m);
  for (int i = 0; i < batch.rows(); ++i) {
    const float* src = features.Row(rows[i]);
    float* dst = batch.Row(i);
    for (int c = 0; c < m; ++c) {
      dst[c] = mask[c] ? src[c] : 0.0f;
    }
  }
  return batch;
}

void MaskedDnnClassifier::Fit(const Matrix& features,
                              const std::vector<float>& labels,
                              const std::vector<int>& rows, Rng* rng) {
  PF_CHECK(!rows.empty());
  const int m = features.cols();

  MlpConfig net_config;
  net_config.input_dim = m;
  net_config.hidden_dims = config_.hidden_dims;
  net_config.output_dim = 1;
  net_config.output_activation = Activation::kSigmoid;
  net_ = std::make_unique<Mlp>(net_config, rng);
  w0t_ = Matrix();
  all_cols_.resize(m);
  std::iota(all_cols_.begin(), all_cols_.end(), 0);

  // The training state lives only as long as Fit: the fitted net keeps its
  // weights and nothing else.
  Tape tape(net_.get(), config_.learning_rate);
  std::vector<int> order = rows;
  const int batch_size = std::max(1, config_.batch_size);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng->Shuffle(&order);
    for (size_t start = 0; start < order.size(); start += batch_size) {
      const size_t end = std::min(order.size(), start + batch_size);
      const std::vector<int> batch_rows(order.begin() + start,
                                        order.begin() + end);

      // Random feature mask per batch: with probability 1/2 train on the
      // full feature vector, otherwise drop features i.i.d. with a keep
      // probability drawn from [min_keep, 1].
      FeatureMask mask;
      if (rng->Bernoulli(0.5)) {
        const double keep = rng->Uniform(config_.min_keep, 1.0);
        mask.assign(m, 0);
        int kept = 0;
        for (int c = 0; c < m; ++c) {
          if (rng->Bernoulli(keep)) {
            mask[c] = 1;
            ++kept;
          }
        }
        if (kept == 0) mask[rng->UniformInt(m)] = 1;
      }

      const Matrix batch = BuildMaskedBatch(features, batch_rows, mask);
      const int batch_count = batch.rows();
      const float* probs = tape.Forward(batch_count, batch.data());

      // Binary cross-entropy gradient wrt the sigmoid output:
      // dL/dp = (p - y) / (p (1 - p)) / B; combined with the sigmoid
      // derivative in Backward this yields the standard (p - y) / B.
      std::vector<float> grad(batch_count);
      const float inv_batch = 1.0f / batch_count;
      for (int i = 0; i < batch_count; ++i) {
        const float p = std::clamp(probs[i], 1e-6f, 1.0f - 1e-6f);
        const float y = labels[batch_rows[i]];
        grad[i] = inv_batch * (p - y) / (p * (1.0f - p));
      }
      // No input gradient: nothing upstream of the features trains.
      tape.Backward(grad.data());
      tape.Step();
    }
  }
  // The net is frozen from here on; prepare the gather kernel's operand once
  // so every masked query skips the transpose.
  w0t_ = net_->FirstLayerWeightTransposed();
}

std::vector<float> MaskedDnnClassifier::Predict(const Matrix& features,
                                                const std::vector<int>& rows,
                                                const FeatureMask& mask) const {
  return PredictBlock(features.SelectRows(rows), mask);
}

std::vector<float> MaskedDnnClassifier::PredictBlock(
    const Matrix& block, const FeatureMask& mask) const {
  PF_CHECK(net_ != nullptr);
  const int m = block.cols();
  PF_CHECK_EQ(m, net_->config().input_dim);
  const int rows = block.rows();
  std::vector<float> out(rows);
  if (rows == 0) return out;

  std::vector<int> selected;
  const std::vector<int>* cols = &all_cols_;
  if (!mask.empty()) {
    PF_CHECK_EQ(static_cast<int>(mask.size()), m);
    // An all-zero mask is legal (the empty subset): the gather list is empty
    // and the first layer reduces to bias + activation, exactly matching a
    // fully zero-masked input.
    selected = MaskToIndices(mask);
    cols = &selected;
  }

  InferenceArena* arena = InferenceArena::ThreadLocal();
  ArenaScope scope(arena);
  float* probs = arena->Alloc(static_cast<std::size_t>(rows));
  net_->PredictGathered(rows, block.data(), m, cols->data(),
                        static_cast<int>(cols->size()), w0t_, arena, probs);
  std::copy(probs, probs + rows, out.begin());
  return out;
}

// lint: allow(test-only-api): oracle for MaskedInferenceTest.ClassifierBlockFastMatchesReferenceBitwise
std::vector<float> MaskedDnnClassifier::PredictBlockReference(
    const Matrix& block, const FeatureMask& mask) const {
  PF_CHECK(net_ != nullptr);
  PF_CHECK_EQ(block.cols(), net_->config().input_dim);
  std::vector<int> rows(block.rows());
  std::iota(rows.begin(), rows.end(), 0);
  const Matrix masked = BuildMaskedBatch(block, rows, mask);
  std::vector<float> out(block.rows());
  if (out.empty()) return out;
  InferenceArena* arena = InferenceArena::ThreadLocal();
  ArenaScope scope(arena);
  float* probs = arena->Alloc(static_cast<std::size_t>(masked.rows()));
  net_->PredictGatheredReference(masked.rows(), masked.data(), masked.cols(),
                                 w0t_, arena, probs);
  std::copy(probs, probs + masked.rows(), out.begin());
  return out;
}

double MaskedDnnClassifier::EvaluateAucBlock(
    const Matrix& block, const std::vector<float>& block_labels,
    const FeatureMask& mask) const {
  PF_CHECK_EQ(static_cast<int>(block_labels.size()), block.rows());
  return AucScore(PredictBlock(block, mask), block_labels);
}

double MaskedDnnClassifier::EvaluateAuc(const Matrix& features,
                                        const std::vector<float>& labels,
                                        const std::vector<int>& rows,
                                        const FeatureMask& mask) const {
  const std::vector<float> scores = Predict(features, rows, mask);
  std::vector<float> subset_labels(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) subset_labels[i] = labels[rows[i]];
  return AucScore(scores, subset_labels);
}

double MaskedDnnClassifier::EvaluateF1(const Matrix& features,
                                       const std::vector<float>& labels,
                                       const std::vector<int>& rows,
                                       const FeatureMask& mask) const {
  const std::vector<float> scores = Predict(features, rows, mask);
  std::vector<float> subset_labels(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) subset_labels[i] = labels[rows[i]];
  return F1Score(scores, subset_labels);
}

}  // namespace pafeat
