#include "nn/dueling_net.h"

#include "common/logging.h"

namespace pafeat {
namespace {

MlpConfig TrunkConfig(const DuelingNetConfig& config) {
  PF_CHECK(!config.trunk_hidden.empty());
  MlpConfig mlp;
  mlp.input_dim = config.input_dim;
  std::vector<int> hidden = config.trunk_hidden;
  if (config.extra_rescale_layer) hidden.push_back(hidden.back());
  mlp.output_dim = hidden.back();
  hidden.pop_back();
  mlp.hidden_dims = hidden;
  mlp.hidden_activation = Activation::kRelu;
  mlp.output_activation = Activation::kRelu;
  return mlp;
}

MlpConfig HeadConfig(int input_dim, int output_dim) {
  MlpConfig mlp;
  mlp.input_dim = input_dim;
  mlp.output_dim = output_dim;
  mlp.output_activation = Activation::kLinear;
  return mlp;
}

// Adds every layer's (fan_in + 1) x fan_out weights and biases to *total;
// false on a non-positive dimension or int64 overflow.
bool AddMlpParamCount(const MlpConfig& mlp, std::int64_t* total) {
  std::int64_t fan_in = mlp.input_dim;
  std::vector<int> fan_outs = mlp.hidden_dims;
  fan_outs.push_back(mlp.output_dim);
  for (const std::int64_t fan_out : fan_outs) {
    std::int64_t layer = 0;
    if (fan_in <= 0 || fan_out <= 0 ||
        __builtin_mul_overflow(fan_in + 1, fan_out, &layer) ||
        __builtin_add_overflow(*total, layer, total)) {
      return false;
    }
    fan_in = fan_out;
  }
  return true;
}

}  // namespace

DuelingNet::DuelingNet(const DuelingNetConfig& config, Rng* rng)
    : config_(config),
      trunk_(TrunkConfig(config), rng),
      value_head_(HeadConfig(trunk_.config().output_dim, 1), rng),
      advantage_head_(
          HeadConfig(trunk_.config().output_dim, config.num_actions), rng) {
  PF_CHECK_GT(config.num_actions, 1);
}

void DuelingNet::Aggregate(int rows, int num_actions, const float* value,
                           float* q) {
  for (int r = 0; r < rows; ++r) {
    float* q_row = q + static_cast<std::size_t>(r) * num_actions;
    float mean_adv = 0.0f;
    for (int a = 0; a < num_actions; ++a) mean_adv += q_row[a];
    mean_adv /= num_actions;
    const float v = value[r];
    for (int a = 0; a < num_actions; ++a) q_row[a] += v - mean_adv;
  }
}

Matrix DuelingNet::Predict(const Matrix& states) const {
  Matrix q(states.rows(), config_.num_actions);
  PredictInto(states.rows(), states.data(), InferenceArena::ThreadLocal(),
              q.data());
  return q;
}

void DuelingNet::PredictInto(int rows, const float* states,
                             InferenceArena* arena, float* q_out) const {
  PredictImpl(rows, states, arena, q_out, /*batched=*/false);
}

void DuelingNet::PredictBatchInto(int rows, const float* states,
                                  InferenceArena* arena, float* q_out) const {
  PredictImpl(rows, states, arena, q_out, /*batched=*/true);
}

void DuelingNet::PredictImpl(int rows, const float* states,
                             InferenceArena* arena, float* q_out,
                             bool batched) const {
  ArenaScope scope(arena);
  const int feature_dim = trunk_.config().output_dim;
  const int num_actions = config_.num_actions;
  float* features =
      arena->Alloc(static_cast<std::size_t>(rows) * feature_dim);
  float* value = arena->Alloc(static_cast<std::size_t>(rows));
  if (batched) {
    trunk_.PredictBatchInto(rows, states, arena, features);
    value_head_.PredictBatchInto(rows, features, arena, value);
    advantage_head_.PredictBatchInto(rows, features, arena, q_out);
  } else {
    trunk_.PredictInto(rows, states, arena, features);
    value_head_.PredictInto(rows, features, arena, value);
    advantage_head_.PredictInto(rows, features, arena, q_out);
  }
  // Advantages landed straight in q_out; aggregate them in place.
  Aggregate(rows, num_actions, value, q_out);
}

void DuelingNet::CopyParamsFrom(const DuelingNet& other) {
  trunk_.CopyParamsFrom(other.trunk_);
  value_head_.CopyParamsFrom(other.value_head_);
  advantage_head_.CopyParamsFrom(other.advantage_head_);
}

std::vector<float> DuelingNet::SerializeParams() const {
  std::vector<float> flat = trunk_.SerializeParams();
  const std::vector<float> value = value_head_.SerializeParams();
  const std::vector<float> advantage = advantage_head_.SerializeParams();
  flat.insert(flat.end(), value.begin(), value.end());
  flat.insert(flat.end(), advantage.begin(), advantage.end());
  return flat;
}

bool DuelingNet::DeserializeParams(const std::vector<float>& flat) {
  if (static_cast<int>(flat.size()) != NumParams()) return false;
  auto begin = flat.begin();
  std::vector<float> trunk(begin, begin + trunk_.NumParams());
  begin += trunk_.NumParams();
  std::vector<float> value(begin, begin + value_head_.NumParams());
  begin += value_head_.NumParams();
  std::vector<float> advantage(begin, begin + advantage_head_.NumParams());
  return trunk_.DeserializeParams(trunk) &&
         value_head_.DeserializeParams(value) &&
         advantage_head_.DeserializeParams(advantage);
}

int DuelingNet::NumParams() const {
  return static_cast<int>(ParamCount(config_));
}

std::int64_t DuelingNet::ParamCount(const DuelingNetConfig& config) {
  if (config.trunk_hidden.empty()) return -1;
  const MlpConfig trunk = TrunkConfig(config);
  std::int64_t total = 0;
  if (!AddMlpParamCount(trunk, &total) ||
      !AddMlpParamCount(HeadConfig(trunk.output_dim, 1), &total) ||
      !AddMlpParamCount(HeadConfig(trunk.output_dim, config.num_actions),
                        &total)) {
    return -1;
  }
  return total;
}

}  // namespace pafeat
