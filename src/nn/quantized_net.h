#ifndef PAFEAT_NN_QUANTIZED_NET_H_
#define PAFEAT_NN_QUANTIZED_NET_H_

#include <cstdint>
#include <vector>

#include "nn/dueling_net.h"
#include "nn/workspace.h"

namespace pafeat {

// Symmetric per-row int8 quantization (DESIGN.md "Quantized serving tier").
// Writes q[k] = round(clamp(x[k] * (127 / maxabs), -127, 127)) — round to
// nearest, ties to even — and returns the dequantization scale maxabs / 127
// (scale 1 and all-zero codes for an all-zero row). A single-row wrapper
// over kernels::QuantizeRowsInt8, whose per-element rule is plain IEEE
// float arithmetic under the default rounding mode (the project never calls
// fesetround), so the result is deterministic everywhere and identical at
// every SimdCapability level. Exposed for tests and the bench.
float QuantizeRowSymmetric(const float* x, int n, std::int8_t* q);

// Int8 serving twin of DuelingNet (DESIGN.md "Quantized serving tier"):
// built once from an fp32 parameter vector (the SerializeParams /
// checkpoint layout) with per-output-row symmetric weight scales, it
// answers PredictBatchInto with int8 x int8 -> int32 dot products
// (kernels::GemmInt8NT) requantized to fp32 per row. Activations are
// quantized dynamically per row with the same symmetric rule.
//
// Where it sits relative to the determinism contract:
//  * NOT bit-compatible with DuelingNet — quantization rounds. The serving
//    gate (ServeConfig::quantized) is validated by subset-match on the eval
//    suite instead (tests/quantized_serving_test.cc), exactly how the
//    batched plane was staged before its bitwise contract landed.
//  * Deterministic in itself, and identical at every SimdCapability level:
//    the quantize/requant loops are plain scalar float code and the int8
//    accumulation is exact integer arithmetic, so — unlike the fp32 plane —
//    not even lane width can change its results.
//
// Only the greedy/zero-shot serving plane uses this class; training and the
// bitwise fp32 serving path never touch it.
class QuantizedDuelingNet {
 public:
  // Dies (PF_CHECK) when `parameters` does not exactly fit the
  // architecture, mirroring DuelingNet::DeserializeParams' size check.
  QuantizedDuelingNet(const DuelingNetConfig& config,
                      const std::vector<float>& parameters);

  // Same shape contract as DuelingNet::PredictBatchInto: writes the
  // (rows x num_actions) Q-values, drawing all scratch from `arena`.
  void PredictBatchInto(int rows, const float* states, InferenceArena* arena,
                        float* q_out) const;

  const DuelingNetConfig& config() const { return config_; }
  int feature_dim() const { return trunk_.back().out; }

 private:
  // One linear layer, weights quantized per output row at construction.
  struct QuantizedLayer {
    int in = 0;
    int out = 0;
    bool relu = false;
    std::vector<std::int8_t> weight;  // out x in, row-major
    std::vector<float> row_scale;     // out: dequant scale per weight row
    std::vector<float> bias;          // out, fp32 (applied after requant)
  };

  // Runs one layer on the already-quantized activations.
  void RunLayer(const QuantizedLayer& layer, int rows,
                const std::int8_t* x_q, const float* x_scale,
                std::int32_t* acc, float* out) const;

  DuelingNetConfig config_;
  std::vector<QuantizedLayer> trunk_;
  QuantizedLayer value_head_;
  QuantizedLayer advantage_head_;
};

}  // namespace pafeat

#endif  // PAFEAT_NN_QUANTIZED_NET_H_
