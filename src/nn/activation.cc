#include "nn/activation.h"

#include <cmath>

namespace pafeat {

void ApplyActivation(Activation act, float* data, int n) {
  switch (act) {
    case Activation::kLinear:
      return;
    case Activation::kRelu:
      for (int i = 0; i < n; ++i) {
        if (data[i] < 0.0f) data[i] = 0.0f;
      }
      return;
    case Activation::kTanh:
      for (int i = 0; i < n; ++i) data[i] = std::tanh(data[i]);
      return;
    case Activation::kSigmoid:
      for (int i = 0; i < n; ++i) data[i] = 1.0f / (1.0f + std::exp(-data[i]));
      return;
  }
}

void ApplyActivationGrad(Activation act, const float* a, float* g, int n) {
  switch (act) {
    case Activation::kLinear:
      return;
    case Activation::kRelu:
      for (int i = 0; i < n; ++i) {
        if (a[i] <= 0.0f) g[i] = 0.0f;
      }
      return;
    case Activation::kTanh:
      for (int i = 0; i < n; ++i) g[i] *= 1.0f - a[i] * a[i];
      return;
    case Activation::kSigmoid:
      for (int i = 0; i < n; ++i) g[i] *= a[i] * (1.0f - a[i]);
      return;
  }
}

}  // namespace pafeat
