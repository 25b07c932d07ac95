#ifndef PAFEAT_ML_LOGISTIC_REGRESSION_H_
#define PAFEAT_ML_LOGISTIC_REGRESSION_H_

#include <vector>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace pafeat {

struct LogisticRegressionConfig {
  int epochs = 40;
  float learning_rate = 0.1f;
  float l2 = 1e-4f;
  int batch_size = 64;
};

// L2-regularized logistic regression trained with mini-batch SGD.
// Exposes its weights so that wrapper baselines (RFE) can rank features.
class LogisticRegression {
 public:
  explicit LogisticRegression(const LogisticRegressionConfig& config = {});

  // Fits on the given rows of (features, labels). Resets previous state.
  void Fit(const Matrix& features, const std::vector<float>& labels,
           const std::vector<int>& rows, Rng* rng);

  // P(y = 1 | x) for each of the given rows.
  std::vector<float> PredictProba(const Matrix& features,
                                  const std::vector<int>& rows) const;

  const std::vector<float>& weights() const { return weights_; }

 private:
  LogisticRegressionConfig config_;
  std::vector<float> weights_;
  float bias_ = 0.0f;
};

}  // namespace pafeat

#endif  // PAFEAT_ML_LOGISTIC_REGRESSION_H_
