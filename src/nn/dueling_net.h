#ifndef PAFEAT_NN_DUELING_NET_H_
#define PAFEAT_NN_DUELING_NET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/mlp.h"
#include "tensor/matrix.h"

namespace pafeat {

struct DuelingNetConfig {
  int input_dim = 0;
  std::vector<int> trunk_hidden = {64, 64};
  int num_actions = 2;
  // When true an extra trunk layer is appended, mimicking PopArt's additional
  // rescaling layer (the paper attributes PopArt's slightly higher iteration
  // time to it; Table II).
  bool extra_rescale_layer = false;
};

// Dueling Q-network (Wang et al., 2016; paper Eqns 1c / 3a-3c):
//   Q(s, a) = V(s) + A(s, a) - mean_a' A(s, a').
// A shared MLP trunk feeds a scalar value head and a per-action advantage
// head; gradients of the aggregation are backpropagated analytically.
class DuelingNet {
 public:
  // A null `rng` zero-initialises the weights (see Mlp): the serving path
  // builds from a parameter vector and draws nothing it would overwrite.
  DuelingNet(const DuelingNetConfig& config, Rng* rng);

  // Training forward pass: (batch x input_dim) -> (batch x num_actions).
  Matrix Forward(const Matrix& states);

  // Inference-only Q-values.
  Matrix Predict(const Matrix& states) const;

  // Allocation-free inference: writes the (rows x num_actions) Q-values to
  // `q_out`, drawing all intermediate buffers (trunk features, value head)
  // from `arena`. Bit-identical to Predict.
  void PredictInto(int rows, const float* states, InferenceArena* arena,
                   float* q_out) const;

  // Batched-inference forward pass (DESIGN.md "Batched inference plane"):
  // same result shape as PredictInto, but trunk and heads run through
  // Mlp::PredictBatchInto, so row r of the Q-matrix is bit-identical to
  // PredictInto(1, row r) at any batch size. All step-synchronous Q queries
  // (DqnAgent::ActBatch, the greedy execution path) funnel here.
  void PredictBatchInto(int rows, const float* states, InferenceArena* arena,
                        float* q_out) const;

  // Backpropagates dL/dQ through the cached Forward.
  void Backward(const Matrix& grad_q);

  void ZeroGrad();
  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();
  void CopyParamsFrom(const DuelingNet& other);

  std::vector<float> SerializeParams() const;
  bool DeserializeParams(const std::vector<float>& flat);

  int NumParams() const;
  const DuelingNetConfig& config() const { return config_; }

  // Parameter count of the net `config` describes, from the constructor's
  // layer plan without building it; -1 on an empty trunk, a non-positive
  // dimension or int64 overflow. NumParams() returns this value.
  static std::int64_t ParamCount(const DuelingNetConfig& config);

 private:
  // Splits V (batch x 1) and A (batch x num_actions) into Q.
  static Matrix Aggregate(const Matrix& value, const Matrix& advantage);

  // Shared body of PredictInto / PredictBatchInto; `batched` routes the
  // trunk and heads through the row-bit-stable batched kernels.
  void PredictImpl(int rows, const float* states, InferenceArena* arena,
                   float* q_out, bool batched) const;

  DuelingNetConfig config_;
  Mlp trunk_;
  Mlp value_head_;
  Mlp advantage_head_;
};

}  // namespace pafeat

#endif  // PAFEAT_NN_DUELING_NET_H_
