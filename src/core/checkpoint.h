#ifndef PAFEAT_CORE_CHECKPOINT_H_
#define PAFEAT_CORE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/feat.h"
#include "core/greedy_policy.h"
#include "core/pafeat.h"
#include "nn/dueling_net.h"
#include "nn/quantized_net.h"

namespace pafeat {

// Weight payload formats named by the checkpoint header (format version 2+).
// Today only fp32 is persisted — the quantized tier is derived at load time
// by QuantizeCheckpoint — but the field means a future int8 payload bumps
// the format constant instead of silently changing the layout, and old
// binaries reject what they cannot parse instead of misreading it.
inline constexpr std::uint8_t kWeightFormatFp32 = 0;

// Persistence for trained agents: the offline knowledge-generalization phase
// runs once (possibly for hours), then the serving path reloads the Q-network
// and answers unseen tasks in milliseconds — potentially in a different
// process. The format is a little-endian binary blob with a magic/version
// header; Load validates sizes and returns std::nullopt on any corruption,
// unknown version, or unknown weight format. Version 1 files (which predate
// the weight-format field and always held fp32) still load.
struct AgentCheckpoint {
  DuelingNetConfig net_config;
  double max_feature_ratio = 0.5;
  std::uint8_t weight_format = kWeightFormatFp32;
  std::vector<float> parameters;
};

// Snapshot of a trained FEAT/PA-FEAT agent.
AgentCheckpoint MakeCheckpoint(const Feat& feat);

// Binary (de)serialization. Save returns false on I/O failure and never
// tears `path`: it writes `<path>.tmp`, fsyncs it and renames it over.
bool SaveCheckpoint(const AgentCheckpoint& checkpoint,
                    const std::string& path);

// Status-returning load for serving control planes (the SelectionServer's
// PublishCheckpoint path must reject a bad file without dying): on failure,
// `error` (when non-null) receives a one-line reason — missing file, bad
// magic, format version newer than this binary, truncated payload, unknown
// weight format, or a parameter vector that does not fit the architecture —
// and the path. Every count is checked against the bytes present, so no
// file makes a load allocate beyond its size; a v3 trailer is not parsed.
std::optional<AgentCheckpoint> LoadCheckpoint(const std::string& path,
                                              std::string* error = nullptr);

// Checkpoint format v3 (DESIGN.md "Bounded memory plane"): the v2 agent
// layout followed by an opaque training-state blob — RNG stream, iteration
// index, agent target/optimizer/PopArt state, per-task replay trajectories
// with priorities, reward-cache contents and Experience-Trees — so
// FurtherTrain resumes warm instead of refilling its buffers from scratch.
// SaveCheckpoint keeps writing version 2 (serving consumers never pay for
// training state); v1/v2 files load here with an empty blob (cold resume).
struct TrainingCheckpoint {
  AgentCheckpoint agent;
  std::vector<std::uint8_t> training_state;  // empty = cold (v1/v2 file)

  bool has_training_state() const { return !training_state.empty(); }
};

// Snapshot of a mid-training PA-FEAT run (online parameters + training
// state).
TrainingCheckpoint MakeTrainingCheckpoint(const PaFeat& pafeat);

// Binary (de)serialization of the v3 format, saved and loaded exactly like
// SaveCheckpoint / LoadCheckpoint; Load accepts v1-v3 files.
bool SaveTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                            const std::string& path);
std::optional<TrainingCheckpoint> LoadTrainingCheckpoint(
    const std::string& path, std::string* error = nullptr);

// Restores a loaded checkpoint into a freshly constructed PaFeat over the
// same problem and task list: online parameters first, then (when the file
// carried one) the training-state blob. Returns false with a reason in
// `error` on any mismatch; the PaFeat must then be discarded. Without a
// blob the result is a cold resume — parameters only.
bool RestoreTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                               PaFeat* pafeat, std::string* error);

// Serving-side validation of an in-memory checkpoint: returns "" exactly
// when BuildServingNets (and so the PF_CHECK constructors below) would
// accept it for the fp32 tier, or with `quantized` for the int8 tier too,
// else the reason. Never dies — this is the check a long-lived server runs
// before swapping in a published checkpoint (a misuse that must surface as
// a rejected publish, not a dead serving process).
std::string CheckpointConsistencyError(const AgentCheckpoint& checkpoint,
                                       bool quantized = false);

// One-shot post-training quantization pass (DESIGN.md "Quantized serving
// tier"): per-output-row symmetric int8 weights from the checkpoint's fp32
// parameters. Dies (PF_CHECK) on a non-fp32 weight format, a parameter
// vector that does not fit the architecture, or a layer wider than the int8
// kernels reduce; CheckpointConsistencyError(checkpoint, true) screens all
// three.
QuantizedDuelingNet QuantizeCheckpoint(const AgentCheckpoint& checkpoint);

// The networks one checkpoint serves from: the fp32 net and, for the int8
// tier, its quantized twin.
struct ServingNets {
  std::unique_ptr<DuelingNet> net;
  std::unique_ptr<QuantizedDuelingNet> quantized;  // set for the int8 tier
};

// The one build of serving networks from a checkpoint (CheckpointedSelector
// and SelectionServer both use it): screens it with
// CheckpointConsistencyError, builds the fp32 net straight from the
// parameters (no random initialisation to overwrite) and, with `quantized`,
// the int8 tier. Returns nullopt with the reason in `error` (when non-null)
// on a checkpoint the screen rejects.
std::optional<ServingNets> BuildServingNets(const AgentCheckpoint& checkpoint,
                                            bool quantized,
                                            std::string* error = nullptr);

// Serving-side selector restored from a checkpoint: no problem, classifiers
// or replay state — just the network and the greedy execution path. With
// ServeConfig::quantized the int8 tier is built once here and every
// selection runs through it.
class CheckpointedSelector {
 public:
  // Dies (PF_CHECK) on an internally inconsistent checkpoint; prefer
  // FromFile which surfaces I/O and corruption as nullopt.
  explicit CheckpointedSelector(const AgentCheckpoint& checkpoint,
                                const ServeConfig& serve = {});

  // Surfaces I/O, corruption and a network the requested tier cannot serve
  // as nullopt; `error` (when non-null) receives the reason.
  static std::optional<CheckpointedSelector> FromFile(
      const std::string& path, const ServeConfig& serve = {},
      std::string* error = nullptr);

  // Greedy subset for an unseen task's representation.
  FeatureMask SelectForRepresentation(
      const std::vector<float>& representation) const;

  // Batched greedy subsets through the lock-step scan — the multi-task
  // serving entry point (result i matches SelectForRepresentation(reprs[i])
  // within the active tier).
  std::vector<FeatureMask> SelectForRepresentations(
      const std::vector<std::vector<float>>& representations) const;

  int num_features() const { return (nets_.net->config().input_dim - 3) / 2; }
  double max_feature_ratio() const { return max_feature_ratio_; }
  bool quantized() const { return nets_.quantized != nullptr; }
  // The fp32 network, in either tier: the audit view (ExplainSelection).
  const DuelingNet& net() const { return *nets_.net; }

 private:
  CheckpointedSelector(ServingNets nets, double max_feature_ratio)
      : nets_(std::move(nets)), max_feature_ratio_(max_feature_ratio) {}

  ServingNets nets_;
  double max_feature_ratio_;
};

}  // namespace pafeat

#endif  // PAFEAT_CORE_CHECKPOINT_H_
