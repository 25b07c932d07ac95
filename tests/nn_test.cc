#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/activation.h"
#include "nn/dueling_net.h"
#include "nn/mlp.h"
#include "nn/tape.h"

namespace pafeat {
namespace {

TEST(ActivationTest, ReluClampsNegatives) {
  float v[] = {-1.0f, 0.0f, 2.0f};
  ApplyActivation(Activation::kRelu, v, 3);
  EXPECT_FLOAT_EQ(v[0], 0.0f);
  EXPECT_FLOAT_EQ(v[1], 0.0f);
  EXPECT_FLOAT_EQ(v[2], 2.0f);
}

TEST(ActivationTest, SigmoidRange) {
  float v[] = {-10.0f, 0.0f, 10.0f};
  ApplyActivation(Activation::kSigmoid, v, 3);
  EXPECT_NEAR(v[0], 0.0f, 1e-3f);
  EXPECT_FLOAT_EQ(v[1], 0.5f);
  EXPECT_NEAR(v[2], 1.0f, 1e-3f);
}

TEST(ActivationTest, TanhOddFunction) {
  float v[] = {-1.5f, 1.5f};
  ApplyActivation(Activation::kTanh, v, 2);
  EXPECT_NEAR(v[0], -v[1], 1e-6f);
}

// dL/d(output) of 0.5 * ||output - target||^2.
std::vector<float> HalfSquaredErrorGrad(const float* output,
                                        const Matrix& target) {
  std::vector<float> grad(output, output + target.size());
  for (int j = 0; j < target.size(); ++j) grad[j] -= target.data()[j];
  return grad;
}

// Central finite difference of `loss` in every parameter of `net` (an Mlp or
// a DuelingNet), through SerializeParams order — the Tape's gradient order.
template <typename Net, typename LossFn>
std::vector<double> FiniteDifferenceGrads(Net* net, LossFn loss, float eps) {
  std::vector<float> params = net->SerializeParams();
  std::vector<double> fd(params.size());
  for (size_t k = 0; k < params.size(); ++k) {
    const float original = params[k];
    params[k] = original + eps;
    EXPECT_TRUE(net->DeserializeParams(params));
    const double plus = loss();
    params[k] = original - eps;
    EXPECT_TRUE(net->DeserializeParams(params));
    const double minus = loss();
    params[k] = original;
    fd[k] = (plus - minus) / (2.0 * eps);
  }
  EXPECT_TRUE(net->DeserializeParams(params));
  return fd;
}

// Finite-difference gradient check: the heart of trusting the manual
// backprop that replaces autograd.
TEST(MlpTest, GradientMatchesFiniteDifference) {
  Rng rng(3);
  MlpConfig config;
  config.input_dim = 4;
  config.hidden_dims = {5};
  config.output_dim = 3;
  config.hidden_activation = Activation::kTanh;  // smooth for FD checks
  Mlp net(config, &rng);

  const Matrix input = Matrix::RandomNormal(2, 4, 1.0f, &rng);
  const Matrix target = Matrix::RandomNormal(2, 3, 1.0f, &rng);

  auto loss_fn = [&]() {
    const Matrix out = net.Predict(input);
    double loss = 0.0;
    for (int r = 0; r < out.rows(); ++r) {
      for (int c = 0; c < out.cols(); ++c) {
        const double d = out.At(r, c) - target.At(r, c);
        loss += 0.5 * d * d;
      }
    }
    return loss;
  };

  // Analytic gradients.
  Tape tape(&net, /*learning_rate=*/0.0f);
  const float* out = tape.Forward(input.rows(), input.data());
  tape.Backward(HalfSquaredErrorGrad(out, target).data());

  const std::vector<double> fd = FiniteDifferenceGrads(&net, loss_fn, 1e-3f);
  ASSERT_EQ(tape.grads().size(), fd.size());
  for (size_t k = 0; k < fd.size(); ++k) {
    EXPECT_NEAR(tape.grads()[k], fd[k], 2e-2) << "param " << k;
  }
}

TEST(MlpTest, BackwardReturnsInputGradient) {
  Rng rng(5);
  MlpConfig config;
  config.input_dim = 3;
  config.hidden_dims = {4};
  config.output_dim = 2;
  config.hidden_activation = Activation::kTanh;
  Mlp net(config, &rng);

  Matrix input = Matrix::RandomNormal(1, 3, 1.0f, &rng);
  Tape tape(&net, /*learning_rate=*/0.0f);
  tape.Forward(1, input.data());
  const std::vector<float> grad_out(2, 1.0f);
  std::vector<float> grad_in(3);
  tape.Backward(grad_out.data(), grad_in.data());

  // Finite difference on the input.
  auto scalar_out = [&](const Matrix& x) {
    const Matrix y = net.Predict(x);
    return static_cast<double>(y.At(0, 0)) + y.At(0, 1);
  };
  const float eps = 1e-3f;
  for (int c = 0; c < 3; ++c) {
    Matrix plus = input;
    plus.At(0, c) += eps;
    Matrix minus = input;
    minus.At(0, c) -= eps;
    const double fd = (scalar_out(plus) - scalar_out(minus)) / (2.0 * eps);
    EXPECT_NEAR(grad_in[c], fd, 2e-2);
  }
}

// The Tape's forward pass runs the net's own layer loop, so training sees
// exactly the bits inference computes — below and above GemmNT's transpose
// threshold of 8 rows.
TEST(MlpTest, PredictMatchesForward) {
  Rng rng(7);
  MlpConfig config;
  config.input_dim = 6;
  config.hidden_dims = {8, 8};
  config.output_dim = 2;
  Mlp net(config, &rng);
  Tape tape(&net, /*learning_rate=*/0.0f);
  for (const int rows : {3, 32}) {
    const Matrix input = Matrix::RandomNormal(rows, 6, 1.0f, &rng);
    const Matrix predicted = net.Predict(input);
    const float* forwarded = tape.Forward(rows, input.data());
    EXPECT_EQ(std::vector<float>(predicted.data(),
                                 predicted.data() + predicted.size()),
              std::vector<float>(forwarded, forwarded + predicted.size()))
        << rows << " rows";
  }
}

TEST(MlpTest, SerializeDeserializeRoundTrip) {
  Rng rng(9);
  MlpConfig config;
  config.input_dim = 4;
  config.hidden_dims = {5};
  config.output_dim = 2;
  Mlp a(config, &rng);
  Mlp b(config, &rng);  // different random init
  const Matrix input = Matrix::RandomNormal(2, 4, 1.0f, &rng);
  EXPECT_TRUE(b.DeserializeParams(a.SerializeParams()));
  const Matrix ya = a.Predict(input);
  const Matrix yb = b.Predict(input);
  for (int c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(ya.At(0, c), yb.At(0, c));
}

TEST(MlpTest, DeserializeRejectsWrongSize) {
  Rng rng(11);
  MlpConfig config;
  config.input_dim = 4;
  config.output_dim = 2;
  Mlp net(config, &rng);
  EXPECT_FALSE(net.DeserializeParams(std::vector<float>(3, 0.0f)));
}

TEST(MlpTest, CopyParamsFromMakesNetworksIdentical) {
  Rng rng(13);
  MlpConfig config;
  config.input_dim = 3;
  config.hidden_dims = {4};
  config.output_dim = 1;
  Mlp a(config, &rng);
  Mlp b(config, &rng);
  b.CopyParamsFrom(a);
  const Matrix input = Matrix::RandomNormal(1, 3, 1.0f, &rng);
  EXPECT_FLOAT_EQ(a.Predict(input).At(0, 0), b.Predict(input).At(0, 0));
}

// Adam through the Tape on 0.5 * ||b - t||^2: a linear layer fed a zero
// input outputs its bias b, so dL/db = b - t and the weights see no gradient.
TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  MlpConfig config;
  config.input_dim = 1;
  config.output_dim = 3;
  Mlp net(config, nullptr);
  ASSERT_TRUE(net.DeserializeParams({0.0f, 0.0f, 0.0f, 4.0f, 4.0f, 4.0f}));
  Matrix target(1, 3);
  target.At(0, 0) = 1.0f;
  target.At(0, 1) = -2.0f;
  target.At(0, 2) = 0.5f;
  const float zero_input = 0.0f;
  Tape tape(&net, 0.1f);
  for (int step = 0; step < 500; ++step) {
    const float* bias = tape.Forward(1, &zero_input);
    tape.Backward(HalfSquaredErrorGrad(bias, target).data());
    tape.Step();
  }
  const std::vector<float> params = net.SerializeParams();
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(params[c], 0.0f);
    EXPECT_NEAR(params[3 + c], target.At(0, c), 1e-2f);
  }
}

TEST(DuelingNetTest, AggregationIsZeroCenteredAdvantage) {
  // Adding a constant to all advantages must not change Q (the mean is
  // subtracted), which is the identifiability trick of dueling networks.
  Rng rng(15);
  DuelingNetConfig config;
  config.input_dim = 5;
  config.trunk_hidden = {6};
  config.num_actions = 3;
  DuelingNet net(config, &rng);
  const Matrix states = Matrix::RandomNormal(4, 5, 1.0f, &rng);
  const Matrix q = net.Predict(states);
  ASSERT_EQ(q.rows(), 4);
  ASSERT_EQ(q.cols(), 3);
}

TEST(DuelingNetTest, GradientMatchesFiniteDifference) {
  Rng rng(17);
  DuelingNetConfig config;
  config.input_dim = 4;
  config.trunk_hidden = {5};
  config.num_actions = 2;
  DuelingNet net(config, &rng);

  const Matrix states = Matrix::RandomNormal(2, 4, 1.0f, &rng);
  const Matrix target = Matrix::RandomNormal(2, 2, 1.0f, &rng);

  auto loss_fn = [&]() {
    const Matrix q = net.Predict(states);
    double loss = 0.0;
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) {
        const double d = q.At(r, c) - target.At(r, c);
        loss += 0.5 * d * d;
      }
    }
    return loss;
  };

  Tape tape(&net, /*learning_rate=*/0.0f);
  const float* q = tape.Forward(states.rows(), states.data());
  tape.Backward(HalfSquaredErrorGrad(q, target).data());

  const std::vector<double> fd = FiniteDifferenceGrads(&net, loss_fn, 1e-3f);
  ASSERT_EQ(tape.grads().size(), fd.size());
  for (size_t k = 0; k < fd.size(); ++k) {
    // ReLU kinks make FD noisy; use a loose tolerance.
    EXPECT_NEAR(tape.grads()[k], fd[k], 5e-2) << "param " << k;
  }
}

// The dueling forward pass of the Tape aggregates exactly as PredictInto does.
TEST(DuelingNetTest, TapeForwardMatchesPredict) {
  Rng rng(18);
  DuelingNetConfig config;
  config.input_dim = 9;
  config.trunk_hidden = {16, 8};
  config.num_actions = 3;
  DuelingNet net(config, &rng);
  Tape tape(&net, /*learning_rate=*/0.0f);
  for (const int rows : {1, 32}) {
    const Matrix states = Matrix::RandomNormal(rows, 9, 1.0f, &rng);
    const Matrix predicted = net.Predict(states);
    const float* forwarded = tape.Forward(rows, states.data());
    EXPECT_EQ(std::vector<float>(predicted.data(),
                                 predicted.data() + predicted.size()),
              std::vector<float>(forwarded, forwarded + predicted.size()))
        << rows << " rows";
  }
}

TEST(DuelingNetTest, ExtraRescaleLayerAddsParameters) {
  Rng rng(19);
  DuelingNetConfig base;
  base.input_dim = 4;
  base.trunk_hidden = {8};
  DuelingNetConfig popart = base;
  popart.extra_rescale_layer = true;
  DuelingNet net_base(base, &rng);
  DuelingNet net_popart(popart, &rng);
  EXPECT_GT(net_popart.NumParams(), net_base.NumParams());
}

// ParamCount walks the constructor's layer plan without building a net; it
// must equal what a built net actually stores, including the PopArt rescale
// layer, and refuse configs it cannot count.
TEST(DuelingNetTest, ParamCountMatchesBuiltNetwork) {
  Rng rng(20);
  for (const bool extra : {false, true}) {
    for (const std::vector<int>& hidden :
         {std::vector<int>{8}, std::vector<int>{16, 4},
          std::vector<int>{5, 7, 3}}) {
      DuelingNetConfig config;
      config.input_dim = 23;
      config.trunk_hidden = hidden;
      config.extra_rescale_layer = extra;
      const DuelingNet net(config, &rng);
      EXPECT_EQ(DuelingNet::ParamCount(config),
                static_cast<std::int64_t>(net.SerializeParams().size()));
      EXPECT_EQ(DuelingNet::ParamCount(config), net.NumParams());
    }
  }
  DuelingNetConfig empty_trunk;
  empty_trunk.input_dim = 5;
  empty_trunk.trunk_hidden = {};
  EXPECT_EQ(DuelingNet::ParamCount(empty_trunk), -1);
  DuelingNetConfig zero_width;
  zero_width.input_dim = 5;
  zero_width.trunk_hidden = {4, 0};
  EXPECT_EQ(DuelingNet::ParamCount(zero_width), -1);
  // A count wider than 64 bits is reported, not wrapped.
  DuelingNetConfig huge;
  constexpr int kMax = std::numeric_limits<int>::max();
  huge.input_dim = kMax;
  huge.trunk_hidden = {kMax, kMax, kMax};  // three ~2^62-weight layers
  EXPECT_EQ(DuelingNet::ParamCount(huge), -1);
}

TEST(DuelingNetTest, SerializeRoundTrip) {
  Rng rng(21);
  DuelingNetConfig config;
  config.input_dim = 3;
  config.trunk_hidden = {4};
  DuelingNet a(config, &rng);
  DuelingNet b(config, &rng);
  EXPECT_TRUE(b.DeserializeParams(a.SerializeParams()));
  const Matrix states = Matrix::RandomNormal(1, 3, 1.0f, &rng);
  const Matrix qa = a.Predict(states);
  const Matrix qb = b.Predict(states);
  for (int c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(qa.At(0, c), qb.At(0, c));
}

TEST(DuelingNetTest, TrainsTowardTargets) {
  Rng rng(23);
  DuelingNetConfig config;
  config.input_dim = 3;
  config.trunk_hidden = {16};
  DuelingNet net(config, &rng);
  Tape tape(&net, 3e-3f);
  const Matrix states = Matrix::RandomNormal(8, 3, 1.0f, &rng);
  const Matrix target = Matrix::RandomNormal(8, 2, 1.0f, &rng);

  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int step = 0; step < 400; ++step) {
    std::vector<float> grad =
        HalfSquaredErrorGrad(tape.Forward(8, states.data()), target);
    double loss = 0.0;
    for (float& g : grad) {
      loss += static_cast<double>(g) * g;
      g /= 8;
    }
    if (step == 0) first_loss = loss;
    last_loss = loss;
    tape.Backward(grad.data());
    tape.Step();
  }
  EXPECT_LT(last_loss, first_loss * 0.1);
}

}  // namespace
}  // namespace pafeat
