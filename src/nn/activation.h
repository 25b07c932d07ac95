#ifndef PAFEAT_NN_ACTIVATION_H_
#define PAFEAT_NN_ACTIVATION_H_

namespace pafeat {

enum class Activation { kLinear, kRelu, kTanh, kSigmoid };

// Applies the activation elementwise, in place, to n values.
void ApplyActivation(Activation act, float* data, int n);

// Multiplies `grad` (n values) in place by the activation derivative, where
// `activated` holds the post-activation values (all supported activations
// admit a derivative expressed in the output).
void ApplyActivationGrad(Activation act, const float* activated, float* grad,
                         int n);

}  // namespace pafeat

#endif  // PAFEAT_NN_ACTIVATION_H_
