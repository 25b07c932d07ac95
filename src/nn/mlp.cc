#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace {

// out[r] += bias for every row of a rows x cols buffer.
void AddBiasRows(int rows, int cols, const float* bias, float* out) {
  for (int r = 0; r < rows; ++r) {
    float* row = out + static_cast<std::size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

}  // namespace

Mlp::Mlp(const MlpConfig& config, Rng* rng) : config_(config) {
  PF_CHECK_GT(config.input_dim, 0);
  PF_CHECK_GT(config.output_dim, 0);
  std::vector<int> dims;
  dims.push_back(config.input_dim);
  for (int h : config.hidden_dims) {
    PF_CHECK_GT(h, 0);
    dims.push_back(h);
  }
  dims.push_back(config.output_dim);

  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    Layer layer;
    const int fan_in = dims[i];
    const int fan_out = dims[i + 1];
    // He initialization for ReLU-family trunks, Xavier otherwise.
    const float scale =
        config.hidden_activation == Activation::kRelu
            ? std::sqrt(2.0f / fan_in)
            : std::sqrt(1.0f / fan_in);
    layer.weight = rng != nullptr
                       ? Matrix::RandomNormal(fan_out, fan_in, scale, rng)
                       : Matrix::Zeros(fan_out, fan_in);
    layer.bias = Matrix::Zeros(1, fan_out);
    layer.activation = (i + 2 == dims.size()) ? config.output_activation
                                              : config.hidden_activation;
    layers_.push_back(std::move(layer));
  }
}

Matrix Mlp::Predict(const Matrix& input) const {
  PF_CHECK_EQ(input.cols(), config_.input_dim);
  Matrix out(input.rows(), config_.output_dim);
  PredictInto(input.rows(), input.data(), InferenceArena::ThreadLocal(),
              out.data());
  return out;
}

void Mlp::PredictInto(int rows, const float* input, InferenceArena* arena,
                      float* out) const {
  PredictTailInto(0, rows, input, arena, out);
}

void Mlp::PredictTailInto(int first_layer, int rows, const float* input,
                          InferenceArena* arena, float* out) const {
  RunLayers(first_layer, rows, input, arena, /*kept=*/nullptr, out,
            /*rowwise=*/false);
}

void Mlp::PredictBatchInto(int rows, const float* input, InferenceArena* arena,
                           float* out) const {
  RunLayers(0, rows, input, arena, /*kept=*/nullptr, out, /*rowwise=*/true);
}

void Mlp::RunLayers(int first_layer, int rows, const float* input,
                    InferenceArena* arena, float* const* kept, float* out,
                    bool rowwise) const {
  PF_CHECK_GE(first_layer, 0);
  PF_CHECK_LT(first_layer, num_layers());
  PF_CHECK_GT(rows, 0);
  ArenaScope scope(arena);
  const float* current = input;
  for (int i = first_layer; i < num_layers(); ++i) {
    const Layer& layer = layers_[i];
    const int in_dim = layer.weight.cols();
    const int out_dim = layer.weight.rows();
    const std::size_t count = static_cast<std::size_t>(rows) * out_dim;
    float* next = out;
    if (kept != nullptr) {
      next = kept[i];
    } else if (i + 1 < num_layers()) {
      next = arena->Alloc(count);
    }
    std::fill_n(next, count, 0.0f);
    if (rowwise) {
      // Batched inference plane: per-row bits independent of `rows`, so
      // each row matches its own batch-of-1 PredictInto.
      kernels::GemmNTRowwise(rows, out_dim, in_dim, current, in_dim,
                             layer.weight.data(), in_dim, next, out_dim);
    } else {
      // Training's strategy (transpose+NN at rows >= 8), which the Tape's
      // forward pass shares through this loop.
      kernels::GemmNT(rows, out_dim, in_dim, current, in_dim,
                      layer.weight.data(), in_dim, next, out_dim);
    }
    AddBiasRows(rows, out_dim, layer.bias.data(), next);
    ApplyActivation(layer.activation, next, static_cast<int>(count));
    current = next;
  }
}

void Mlp::PredictGathered(int rows, const float* x, int ldx, const int* cols,
                          int ncols, const Matrix& w0t, InferenceArena* arena,
                          float* out) const {
  PF_CHECK_GT(rows, 0);
  PF_CHECK_GE(ncols, 0);  // ncols == 0: empty subset, first layer = bias only
  const Layer& first = layers_.front();
  const int out_dim = first.weight.rows();
  PF_CHECK_EQ(w0t.rows(), config_.input_dim);
  PF_CHECK_EQ(w0t.cols(), out_dim);
  ArenaScope scope(arena);
  const std::size_t count = static_cast<std::size_t>(rows) * out_dim;
  float* hidden = num_layers() == 1 ? out : arena->Alloc(count);
  std::fill_n(hidden, count, 0.0f);
  kernels::GemmGatherNN(rows, out_dim, x, ldx, cols, ncols, w0t.data(),
                        out_dim, hidden, out_dim);
  AddBiasRows(rows, out_dim, first.bias.data(), hidden);
  ApplyActivation(first.activation, hidden, static_cast<int>(count));
  if (num_layers() > 1) PredictTailInto(1, rows, hidden, arena, out);
}

void Mlp::PredictGatheredReference(int rows, const float* x, int ldx,
                                   const Matrix& w0t, InferenceArena* arena,
                                   float* out) const {
  // The identity column list routes the full-width product through exactly
  // the code of the fast path, so the pair differs only in whether masked
  // columns are skipped or multiplied through as zeros.
  std::vector<int> all_cols(config_.input_dim);
  std::iota(all_cols.begin(), all_cols.end(), 0);
  PredictGathered(rows, x, ldx, all_cols.data(), config_.input_dim, w0t,
                  arena, out);
}

Matrix Mlp::FirstLayerWeightTransposed() const {
  return layers_.front().weight.Transposed();
}

void Mlp::CopyParamsFrom(const Mlp& other) {
  PF_CHECK_EQ(layers_.size(), other.layers_.size());
  for (size_t i = 0; i < layers_.size(); ++i) {
    PF_CHECK(layers_[i].weight.SameShape(other.layers_[i].weight));
    layers_[i].weight = other.layers_[i].weight;
    layers_[i].bias = other.layers_[i].bias;
  }
}

std::vector<float> Mlp::SerializeParams() const {
  std::vector<float> flat;
  flat.reserve(NumParams());
  for (const Layer& layer : layers_) {
    flat.insert(flat.end(), layer.weight.data(),
                layer.weight.data() + layer.weight.size());
    flat.insert(flat.end(), layer.bias.data(),
                layer.bias.data() + layer.bias.size());
  }
  return flat;
}

bool Mlp::DeserializeParams(const std::vector<float>& flat) {
  if (static_cast<int>(flat.size()) != NumParams()) return false;
  size_t offset = 0;
  for (Layer& layer : layers_) {
    std::copy(flat.begin() + offset, flat.begin() + offset + layer.weight.size(),
              layer.weight.data());
    offset += layer.weight.size();
    std::copy(flat.begin() + offset, flat.begin() + offset + layer.bias.size(),
              layer.bias.data());
    offset += layer.bias.size();
  }
  return true;
}

int Mlp::NumParams() const {
  int total = 0;
  for (const Layer& layer : layers_) {
    total += layer.weight.size() + layer.bias.size();
  }
  return total;
}

}  // namespace pafeat
