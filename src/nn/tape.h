#ifndef PAFEAT_NN_TAPE_H_
#define PAFEAT_NN_TAPE_H_

#include <cstddef>
#include <vector>

#include "nn/dueling_net.h"
#include "nn/mlp.h"

namespace pafeat {

// The training side of a network, kept beside it instead of inside it: the
// per-layer activations of the last Forward, the parameter gradients of the
// last Backward, and the Adam moments (Kingma & Ba, 2015 — the optimizer the
// paper uses for all networks). The bound Mlp/DuelingNet stays weights plus
// inference; only the trainer that owns a Tape pays for its buffers.
//
// Gradients and moments are flat, in the net's SerializeParams order, which
// is also the order warm-resume checkpoints store the moments in.
class Tape {
 public:
  // Binds to `net`, which must outlive the tape. Step applies Adam at
  // `learning_rate`.
  Tape(Mlp* net, float learning_rate);
  Tape(DuelingNet* net, float learning_rate);

  // Forward pass through Mlp's layer loop (the same kernels, hence the same
  // bits, as the net's PredictInto), keeping every activation for Backward.
  // `input` is rows x input_dim, contiguous; Backward reads it again, so it
  // must stay alive and unchanged until then. Returns the rows x output_dim
  // output (Q-values for a DuelingNet), owned by the tape and valid until
  // the next Forward.
  const float* Forward(int rows, const float* input);

  // Backpropagates dL/d(output) (rows x output_dim) through the last
  // Forward, overwriting the parameter gradients. dL/d(input) is computed
  // only when `input_grad` (rows x input_dim) is given.
  void Backward(const float* grad_output, float* input_grad = nullptr);

  // One Adam update of the bound net's parameters from the gradients of the
  // last Backward.
  void Step();

  // Gradients of the last Backward, flat in parameter order.
  // lint: allow(test-only-api): test hook for MlpTest.GradientMatchesFiniteDifference
  const std::vector<float>& grads() const { return grads_; }

  // Warm-resume persistence (checkpoint v3): the Adam step counter and the
  // moments flattened in parameter order, both empty before the first Step.
  void ExportAdam(long long* step, std::vector<float>* m,
                  std::vector<float>* v) const;
  // Restores an exported state; empty moments with step 0 reset to the
  // never-stepped state. Returns false when the sizes do not fit the net.
  bool ImportAdam(long long step, const std::vector<float>& m,
                  const std::vector<float>& v);

 private:
  // One Mlp of the bound net and its activations.
  struct Stage {
    Mlp* net = nullptr;
    // Offset of the stage's first parameter in the flat order.
    std::size_t offset = 0;
    // The Forward input, and layer i's post-activation output (rows x out).
    const float* input = nullptr;
    std::vector<std::vector<float>> outputs;
    std::vector<float*> output_ptrs;
  };

  void AddStage(Mlp* net);
  const float* ForwardStage(Stage* stage, const float* input);
  void BackwardStage(const Stage& stage, const float* grad_output,
                     float* input_grad);

  // One stage for an Mlp; trunk, value head and advantage head for a
  // DuelingNet (dueling_ set).
  std::vector<Stage> stages_;
  bool dueling_ = false;
  int rows_ = 0;

  std::vector<float> grads_;
  // Backward's ping-pong dL/d(activation) buffers.
  std::vector<float> delta_[2];
  // DuelingNet only: Q (rows x num_actions), the heads' output gradients and
  // the features' gradient from each head.
  std::vector<float> q_;
  std::vector<float> grad_value_;
  std::vector<float> grad_advantage_;
  std::vector<float> grad_features_[2];

  float learning_rate_;
  long long step_ = 0;
  std::vector<float> m_;
  std::vector<float> v_;
};

}  // namespace pafeat

#endif  // PAFEAT_NN_TAPE_H_
