#ifndef PAFEAT_NN_MLP_H_
#define PAFEAT_NN_MLP_H_

#include <vector>

#include "common/rng.h"
#include "nn/activation.h"
#include "nn/workspace.h"
#include "tensor/matrix.h"

namespace pafeat {

struct MlpConfig {
  int input_dim = 0;
  std::vector<int> hidden_dims;
  int output_dim = 0;
  Activation hidden_activation = Activation::kRelu;
  Activation output_activation = Activation::kLinear;
};

// Fully-connected network: weights plus inference — the project's
// replacement for the PyTorch modules the paper uses (both the Q-networks
// and the reward classifier are MLPs). An Mlp holds no gradients and caches
// no activations, so nets that only run forward (the DQN target net, a
// fitted classifier, serving bundles) carry their weights and nothing else.
// Training goes through a Tape (nn/tape.h) bound to the net, which owns the
// activations, the gradients and the Adam moments, and runs its forward pass
// through the same layer loop as every Predict* method here.
class Mlp {
 public:
  // Draws the initial weights from `rng`; a null `rng` zero-initialises
  // them instead, for a net whose parameters are deserialized right after.
  Mlp(const MlpConfig& config, Rng* rng);

  // Batch forward pass (batch x input_dim) -> (batch x output_dim).
  Matrix Predict(const Matrix& input) const;

  // Allocation-free inference: writes the (rows x output_dim) result to
  // `out`, drawing intermediate layer buffers from `arena` (released on
  // return; zero heap allocations once the arena is warm). `input` is rows x
  // input_dim, contiguous. Bit-identical to Predict — same kernels, same
  // shapes.
  void PredictInto(int rows, const float* input, InferenceArena* arena,
                   float* out) const;

  // Runs layers [first_layer, num_layers()) on `input` (rows x that layer's
  // input dim). PredictInto is PredictTailInto(0, ...); the masked fast path
  // computes layer 0 itself and hands the tail here.
  void PredictTailInto(int first_layer, int rows, const float* input,
                       InferenceArena* arena, float* out) const;

  // Batched-inference forward pass (DESIGN.md "Batched inference plane"):
  // same layers and shapes as PredictInto, but every layer product runs
  // through kernels::GemmNTRowwise, whose per-row bits are independent of
  // the batch size. Row r of the result is therefore bit-identical to
  // PredictInto(1, row r) — live episodes can join and leave the batch
  // without perturbing anyone's trajectory. Training keeps PredictInto's
  // m >= 8 transpose+NN strategy, which is faster at fixed batch sizes but
  // batch-shape-sensitive.
  void PredictBatchInto(int rows, const float* input, InferenceArena* arena,
                        float* out) const;

  // Masked-subset inference fast path (DESIGN.md "Inference fast path"):
  // first layer as a column-gathered product over the `ncols` selected
  // columns of `x` (rows x ldx, only the listed columns are read), then the
  // remaining layers as usual. `w0t` is the transposed first-layer weight
  // (input_dim x first-layer width, from FirstLayerWeightTransposed), kept
  // by the caller so repeated queries share it. Cost is O(rows * ncols *
  // width) instead of O(rows * input_dim * width), and the result is
  // bit-identical to PredictGatheredReference on the zero-masked batch.
  void PredictGathered(int rows, const float* x, int ldx, const int* cols,
                       int ncols, const Matrix& w0t, InferenceArena* arena,
                       float* out) const;

  // Reference implementation of the masked-inference summation order: the
  // full-width product over all input_dim columns of `x` (masked columns
  // are expected to hold zeros), same per-element accumulation order as
  // PredictGathered. Kept for the bitwise-equivalence tests.
  void PredictGatheredReference(int rows, const float* x, int ldx,
                                const Matrix& w0t, InferenceArena* arena,
                                float* out) const;

  // The first layer's weight, transposed to input_dim x width: the operand
  // layout PredictGathered wants (weight rows indexed by input column).
  Matrix FirstLayerWeightTransposed() const;

  int num_layers() const { return static_cast<int>(layers_.size()); }
  int layer_output_dim(int i) const { return layers_[i].weight.rows(); }

  // Copies parameters from a same-architecture network.
  void CopyParamsFrom(const Mlp& other);

  // Flat (de)serialization, layer by layer, weight then bias — the parameter
  // order the Tape's gradients and Adam moments also use. Deserialize returns
  // false on a size mismatch.
  std::vector<float> SerializeParams() const;
  bool DeserializeParams(const std::vector<float>& flat);

  int NumParams() const;
  const MlpConfig& config() const { return config_; }

 private:
  friend class Tape;

  // The one fp32 layer loop behind PredictTailInto, PredictBatchInto and the
  // Tape's forward pass: runs layers [first_layer, num_layers()) on `input`.
  // Layer i writes its post-activation output to kept[i] when `kept` is
  // non-null (the Tape keeps every activation for Backward; `out` is then
  // unused), otherwise to arena scratch, and the last layer to `out`.
  // `rowwise` selects the batch-size-independent GemmNTRowwise kernel for
  // every layer.
  void RunLayers(int first_layer, int rows, const float* input,
                 InferenceArena* arena, float* const* kept, float* out,
                 bool rowwise) const;

  struct Layer {
    Matrix weight;  // out x in
    Matrix bias;    // 1 x out
    Activation activation;
  };

  MlpConfig config_;
  std::vector<Layer> layers_;
};

}  // namespace pafeat

#endif  // PAFEAT_NN_MLP_H_
