#ifndef PAFEAT_ML_LINEAR_SVM_H_
#define PAFEAT_ML_LINEAR_SVM_H_

#include <vector>

#include "common/rng.h"
#include "tensor/matrix.h"

namespace pafeat {

struct LinearSvmConfig {
  int epochs = 30;
  float lambda = 1e-3f;  // L2 regularization strength (Pegasos schedule)
};

// Linear SVM trained with the Pegasos stochastic sub-gradient method —
// the downstream evaluator the paper uses (§IV-A3): the quality of a feature
// subset is measured by the SVM trained on that subset.
//
// The optional feature mask restricts the model to a subset without copying
// the data: masked-out columns contribute neither to training nor prediction.
class LinearSvm {
 public:
  explicit LinearSvm(const LinearSvmConfig& config = {});

  // Fits on the given rows. `mask`, when non-empty, must have one entry per
  // feature column; 0 entries are excluded from the model.
  void Fit(const Matrix& features, const std::vector<float>& labels,
           const std::vector<int>& rows, const std::vector<uint8_t>& mask,
           Rng* rng);

  // Signed decision margins for the given rows.
  std::vector<float> DecisionFunction(const Matrix& features,
                                      const std::vector<int>& rows) const;

  // Margins squashed through a sigmoid so they can be thresholded at 0.5
  // and compared against 0/1 labels by the metric functions.
  std::vector<float> PredictScores(const Matrix& features,
                                   const std::vector<int>& rows) const;

  const std::vector<float>& weights() const { return weights_; }

 private:
  LinearSvmConfig config_;
  std::vector<float> weights_;
  float bias_ = 0.0f;
};

}  // namespace pafeat

#endif  // PAFEAT_ML_LINEAR_SVM_H_
