#include "nn/tape.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "nn/activation.h"
#include "nn/workspace.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace {

// Adam's moment decay rates and denominator guard.
constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEpsilon = 1e-8f;

}  // namespace

Tape::Tape(Mlp* net, float learning_rate) : learning_rate_(learning_rate) {
  AddStage(net);
}

Tape::Tape(DuelingNet* net, float learning_rate)
    : dueling_(true), learning_rate_(learning_rate) {
  AddStage(&net->trunk_);
  AddStage(&net->value_head_);
  AddStage(&net->advantage_head_);
}

void Tape::AddStage(Mlp* net) {
  Stage stage;
  stage.net = net;
  stage.offset = grads_.size();
  stage.outputs.resize(net->num_layers());
  stage.output_ptrs.resize(net->num_layers());
  grads_.resize(grads_.size() + net->NumParams());
  stages_.push_back(std::move(stage));
}

const float* Tape::ForwardStage(Stage* stage, const float* input) {
  stage->input = input;
  for (int i = 0; i < stage->net->num_layers(); ++i) {
    stage->outputs[i].resize(static_cast<std::size_t>(rows_) *
                             stage->net->layer_output_dim(i));
    stage->output_ptrs[i] = stage->outputs[i].data();
  }
  stage->net->RunLayers(0, rows_, input, InferenceArena::ThreadLocal(),
                        stage->output_ptrs.data(), /*out=*/nullptr,
                        /*rowwise=*/false);
  return stage->outputs.back().data();
}

const float* Tape::Forward(int rows, const float* input) {
  PF_CHECK_GT(rows, 0);
  rows_ = rows;
  const float* out = ForwardStage(&stages_[0], input);
  if (!dueling_) return out;
  const float* value = ForwardStage(&stages_[1], out);
  const float* advantage = ForwardStage(&stages_[2], out);
  const int num_actions = stages_[2].net->config().output_dim;
  q_.assign(advantage,
            advantage + static_cast<std::size_t>(rows) * num_actions);
  DuelingNet::Aggregate(rows, num_actions, value, q_.data());
  return q_.data();
}

void Tape::BackwardStage(const Stage& stage, const float* grad_output,
                         float* input_grad) {
  const Mlp& net = *stage.net;
  const int last = net.num_layers() - 1;
  std::vector<float>* grad = &delta_[0];
  std::vector<float>* next = &delta_[1];
  grad->assign(grad_output,
               grad_output + static_cast<std::size_t>(rows_) *
                                 net.layer_output_dim(last));
  // Layers run last to first, so the parameter offset walks down from the
  // end of the stage.
  std::size_t offset = stage.offset + net.NumParams();
  for (int i = last; i >= 0; --i) {
    const Mlp::Layer& layer = net.layers_[i];
    const int in_dim = layer.weight.cols();
    const int out_dim = layer.weight.rows();
    const float* layer_input =
        i == 0 ? stage.input : stage.outputs[i - 1].data();
    ApplyActivationGrad(layer.activation, stage.outputs[i].data(),
                        grad->data(), rows_ * out_dim);
    // dW = grad^T * input ; db = column sums of grad. The kernels
    // accumulate, so both start from zero.
    offset -= layer.weight.size() + layer.bias.size();
    float* weight_grad = grads_.data() + offset;
    float* bias_grad = weight_grad + layer.weight.size();
    std::fill_n(weight_grad, layer.weight.size() + layer.bias.size(), 0.0f);
    kernels::GemmTN(out_dim, in_dim, rows_, grad->data(), out_dim,
                    layer_input, in_dim, weight_grad, in_dim);
    for (int r = 0; r < rows_; ++r) {
      const float* row = grad->data() + static_cast<std::size_t>(r) * out_dim;
      for (int c = 0; c < out_dim; ++c) bias_grad[c] += row[c];
    }
    // dL/d(layer input) = grad * W; for the first layer only on request.
    float* input_side = input_grad;
    if (i > 0) {
      next->resize(static_cast<std::size_t>(rows_) * in_dim);
      input_side = next->data();
    }
    if (input_side == nullptr) break;
    std::fill_n(input_side, static_cast<std::size_t>(rows_) * in_dim, 0.0f);
    kernels::GemmNN(rows_, in_dim, out_dim, grad->data(), out_dim,
                    layer.weight.data(), in_dim, input_side, in_dim);
    std::swap(grad, next);
  }
}

void Tape::Backward(const float* grad_output, float* input_grad) {
  PF_CHECK_GT(rows_, 0) << "Tape::Backward before Forward";
  if (!dueling_) {
    BackwardStage(stages_[0], grad_output, input_grad);
    return;
  }
  // dL/dV_r = sum_a dQ_ra ; dL/dA_ra = dQ_ra - mean_a'(dQ_ra').
  const int num_actions = stages_[2].net->config().output_dim;
  grad_value_.resize(rows_);
  grad_advantage_.assign(
      grad_output,
      grad_output + static_cast<std::size_t>(rows_) * num_actions);
  for (int r = 0; r < rows_; ++r) {
    const float* gq = grad_output + static_cast<std::size_t>(r) * num_actions;
    float total = 0.0f;
    for (int a = 0; a < num_actions; ++a) total += gq[a];
    grad_value_[r] = total;
    const float mean = total / num_actions;
    float* ga =
        grad_advantage_.data() + static_cast<std::size_t>(r) * num_actions;
    for (int a = 0; a < num_actions; ++a) ga[a] -= mean;
  }
  // Both heads read the trunk's features: their input gradients add up.
  const std::size_t feature_count =
      static_cast<std::size_t>(rows_) * stages_[0].net->config().output_dim;
  grad_features_[0].resize(feature_count);
  grad_features_[1].resize(feature_count);
  BackwardStage(stages_[1], grad_value_.data(), grad_features_[0].data());
  BackwardStage(stages_[2], grad_advantage_.data(),
                grad_features_[1].data());
  for (std::size_t j = 0; j < feature_count; ++j) {
    grad_features_[0][j] += grad_features_[1][j];
  }
  BackwardStage(stages_[0], grad_features_[0].data(), input_grad);
}

void Tape::Step() {
  if (m_.empty()) {
    m_.assign(grads_.size(), 0.0f);
    v_.assign(grads_.size(), 0.0f);
  }
  ++step_;
  const float bias1 = 1.0f - std::pow(kBeta1, static_cast<float>(step_));
  const float bias2 = 1.0f - std::pow(kBeta2, static_cast<float>(step_));
  std::size_t offset = 0;
  for (const Stage& stage : stages_) {
    for (Mlp::Layer& layer : stage.net->layers_) {
      for (Matrix* param : {&layer.weight, &layer.bias}) {
        float* m = m_.data() + offset;
        float* v = v_.data() + offset;
        float* pd = param->data();
        const float* gd = grads_.data() + offset;
        const int n = param->size();
        for (int j = 0; j < n; ++j) {
          m[j] = kBeta1 * m[j] + (1.0f - kBeta1) * gd[j];
          v[j] = kBeta2 * v[j] + (1.0f - kBeta2) * gd[j] * gd[j];
          const float m_hat = m[j] / bias1;
          const float v_hat = v[j] / bias2;
          pd[j] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + kEpsilon);
        }
        offset += n;
      }
    }
  }
}

void Tape::ExportAdam(long long* step, std::vector<float>* m,
                      std::vector<float>* v) const {
  *step = step_;
  *m = m_;
  *v = v_;
}

bool Tape::ImportAdam(long long step, const std::vector<float>& m,
                      const std::vector<float>& v) {
  if (step < 0 || m.size() != v.size()) return false;
  if (m.empty() ? step != 0 : m.size() != grads_.size()) return false;
  step_ = step;
  m_ = m;
  v_ = v;
  return true;
}

}  // namespace pafeat
