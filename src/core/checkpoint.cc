#include "core/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "memory/persistence.h"
#include "rl/fs_env.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace {

constexpr uint32_t kMagic = 0x50414643;  // "PAFC"
// Version 2 added the weight-format byte after the net-config block.
// Version 3 appends the training-state section (SaveTrainingCheckpoint);
// the agent layout is unchanged, so plain SaveCheckpoint keeps writing
// version 2 and plain LoadCheckpoint reads a v3 file's agent section and
// ignores the trailer. Version 1 files (implicitly fp32) remain loadable;
// anything newer than kMaxVersion is rejected — an old binary must never
// misparse a future layout.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kTrainingVersion = 3;
constexpr uint32_t kMaxVersion = 3;

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

// Reads the whole file at `path` into `bytes`; false if it cannot be opened
// or read (a directory, say). Every checkpoint parse then runs on these
// bytes, so no field can ask for more memory than the file holds.
bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* bytes) {
  const File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) return false;
  uint8_t chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file.get())) > 0) {
    bytes->insert(bytes->end(), chunk, chunk + got);
  }
  return std::ferror(file.get()) == 0;
}

// Crash-safe replace: the bytes go to `<path>.tmp`, which is flushed to disk
// and then renamed over `path`, so a crash leaves either the old file or the
// complete new one — never a torn checkpoint.
bool WriteFileAtomic(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  File file(std::fopen(tmp.c_str(), "wb"));
  if (file == nullptr) return false;
  const bool synced =
      std::fwrite(bytes.data(), 1, bytes.size(), file.get()) == bytes.size() &&
      std::fflush(file.get()) == 0 && ::fsync(::fileno(file.get())) == 0;
  if (std::fclose(file.release()) != 0 || !synced ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// Shared agent section of every format version.
void WriteAgentSection(const AgentCheckpoint& checkpoint, uint32_t version,
                       ByteWriter* out) {
  const DuelingNetConfig& net = checkpoint.net_config;
  out->U32(kMagic);
  out->U32(version);
  out->I32(net.input_dim);
  out->I32(net.num_actions);
  out->U8(net.extra_rescale_layer ? 1 : 0);
  out->I32(static_cast<int32_t>(net.trunk_hidden.size()));
  for (const int h : net.trunk_hidden) out->I32(h);
  out->U8(checkpoint.weight_format);
  out->F64(checkpoint.max_feature_ratio);
  out->Vector(checkpoint.parameters);
}

// Parses a whole checkpoint file; the v3 training-state trailer only when
// `with_training_state` (otherwise its bytes are ignored). `why` receives
// the unprefixed failure reason (callers add the path).
std::optional<TrainingCheckpoint> ParseCheckpoint(
    const std::vector<uint8_t>& bytes, bool with_training_state,
    std::string* why) {
  const auto fail = [&](const std::string& reason) {
    *why = reason;
    return std::optional<TrainingCheckpoint>();
  };
  ByteReader in(bytes);
  if (in.U32() != kMagic || !in.ok()) {
    return fail("not a PA-FEAT checkpoint (bad magic)");
  }
  const uint32_t version = in.U32();
  if (!in.ok() || version < 1) {
    return fail("corrupt checkpoint header (bad format version)");
  }
  if (version > kMaxVersion) {
    return fail("checkpoint format version " + std::to_string(version) +
                " is newer than this binary understands (max " +
                std::to_string(kMaxVersion) + ")");
  }

  TrainingCheckpoint result;
  AgentCheckpoint& checkpoint = result.agent;
  DuelingNetConfig& net = checkpoint.net_config;
  // Dimensions are range-checked by CheckpointConsistencyError below; the
  // sticky reader makes one check cover truncation of all of them.
  net.input_dim = in.I32();
  net.num_actions = in.I32();
  net.extra_rescale_layer = in.U8() != 0;
  const int32_t num_hidden = in.I32();
  if (num_hidden <= 0 || !in.Fits(num_hidden, sizeof(int32_t))) {
    return fail("truncated or corrupt checkpoint (trunk layer count)");
  }
  net.trunk_hidden.assign(num_hidden, 0);
  for (int& h : net.trunk_hidden) h = in.I32();
  if (version >= 2) {
    // A format byte this binary does not know means a payload it cannot
    // parse — reject rather than misread (version 1 had no byte: fp32).
    checkpoint.weight_format = in.U8();
    if (!in.ok()) return fail("truncated checkpoint (weight-format byte)");
    if (checkpoint.weight_format != kWeightFormatFp32) {
      return fail("unknown weight format " +
                  std::to_string(checkpoint.weight_format));
    }
  }
  checkpoint.max_feature_ratio = in.F64();
  if (!in.ok()) return fail("truncated checkpoint (max feature ratio)");
  if (!in.Vector(&checkpoint.parameters)) {
    return fail("truncated checkpoint payload");
  }

  // The decoded checkpoint must pass the same consistency screen a served
  // publish does (parameter fit, valid ratio, serving action layout).
  const std::string inconsistency = CheckpointConsistencyError(checkpoint);
  if (!inconsistency.empty()) return fail(inconsistency);
  if (!with_training_state || version < kTrainingVersion) return result;

  const uint8_t has_training = in.U8();
  const uint64_t blob_size = in.U64();
  if (!in.ok()) return fail("truncated checkpoint (training-state header)");
  if (has_training == 0) {
    if (blob_size != 0) {
      return fail("corrupt checkpoint (phantom training-state payload)");
    }
    return result;
  }
  if (blob_size == 0 || !in.Fits(blob_size, 1)) {
    return fail("truncated or corrupt checkpoint (training-state size)");
  }
  result.training_state.resize(blob_size);
  in.Raw(result.training_state.data(), blob_size);
  return result;
}

std::optional<TrainingCheckpoint> LoadCheckpointFile(
    const std::string& path, bool with_training_state, std::string* error) {
  std::string why = "cannot open checkpoint file";
  std::optional<TrainingCheckpoint> checkpoint;
  std::vector<uint8_t> bytes;
  if (ReadFileBytes(path, &bytes)) {
    checkpoint = ParseCheckpoint(bytes, with_training_state, &why);
  }
  if (!checkpoint.has_value() && error != nullptr) {
    *error = why + " (" + path + ")";
  }
  return checkpoint;
}

}  // namespace

AgentCheckpoint MakeCheckpoint(const Feat& feat) {
  AgentCheckpoint checkpoint;
  checkpoint.net_config = feat.agent().online_net().config();
  checkpoint.max_feature_ratio = feat.config().max_feature_ratio;
  checkpoint.parameters = feat.agent().online_net().SerializeParams();
  return checkpoint;
}

bool SaveCheckpoint(const AgentCheckpoint& checkpoint,
                    const std::string& path) {
  ByteWriter out;
  WriteAgentSection(checkpoint, kVersion, &out);
  return WriteFileAtomic(path, out.Take());
}

std::optional<AgentCheckpoint> LoadCheckpoint(const std::string& path,
                                              std::string* error) {
  // A v3 trailer (training state) is read with the file but not parsed:
  // the serving path does not pay for decoding it.
  std::optional<TrainingCheckpoint> loaded =
      LoadCheckpointFile(path, /*with_training_state=*/false, error);
  if (!loaded.has_value()) return std::nullopt;
  return std::move(loaded->agent);
}

TrainingCheckpoint MakeTrainingCheckpoint(const PaFeat& pafeat) {
  TrainingCheckpoint checkpoint;
  checkpoint.agent = MakeCheckpoint(pafeat.feat());
  checkpoint.training_state = pafeat.SerializeTrainingState();
  return checkpoint;
}

bool SaveTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                            const std::string& path) {
  ByteWriter out;
  WriteAgentSection(checkpoint.agent, kTrainingVersion, &out);
  out.U8(checkpoint.has_training_state() ? 1 : 0);
  out.U64(checkpoint.training_state.size());
  out.Raw(checkpoint.training_state.data(), checkpoint.training_state.size());
  return WriteFileAtomic(path, out.Take());
}

std::optional<TrainingCheckpoint> LoadTrainingCheckpoint(
    const std::string& path, std::string* error) {
  return LoadCheckpointFile(path, /*with_training_state=*/true, error);
}

bool RestoreTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                               PaFeat* pafeat, std::string* error) {
  PF_CHECK(pafeat != nullptr);
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const std::string inconsistency =
      CheckpointConsistencyError(checkpoint.agent);
  if (!inconsistency.empty()) return fail(inconsistency);
  if (!pafeat->feat().agent().online_net().DeserializeParams(
          checkpoint.agent.parameters)) {
    return fail("online parameters do not fit this architecture");
  }
  if (!checkpoint.has_training_state()) return true;  // cold resume
  return pafeat->RestoreTrainingState(checkpoint.training_state, error);
}

std::string CheckpointConsistencyError(const AgentCheckpoint& checkpoint,
                                       bool quantized) {
  const DuelingNetConfig& net = checkpoint.net_config;
  if (checkpoint.weight_format != kWeightFormatFp32) {
    return "unsupported weight format " +
           std::to_string(checkpoint.weight_format);
  }
  if (net.input_dim < 5 || (net.input_dim - 3) % 2 != 0) {
    return "input dim " + std::to_string(net.input_dim) +
           " is not a valid observation layout (2m + 3)";
  }
  if (net.num_actions != kNumActions) {
    return "action count " + std::to_string(net.num_actions) +
           " does not match the select/deselect serving plane";
  }
  if (net.trunk_hidden.empty()) return "empty trunk architecture";
  for (int h : net.trunk_hidden) {
    if (h <= 0) return "non-positive trunk layer width";
  }
  if (!(checkpoint.max_feature_ratio > 0.0) ||
      checkpoint.max_feature_ratio > 1.0) {
    return "max feature ratio outside (0, 1]";
  }
  // The parameter vector must exactly fit the architecture. The count
  // comes from the config alone: no network is built to check a file.
  // DuelingNet counts its parameters in an int, which bounds what it holds.
  const int64_t expected = DuelingNet::ParamCount(net);
  if (expected < 0 || expected > std::numeric_limits<int>::max()) {
    return "architecture has more parameters than a network can hold";
  }
  if (static_cast<uint64_t>(expected) != checkpoint.parameters.size()) {
    return "parameter count " + std::to_string(checkpoint.parameters.size()) +
           " does not fit the architecture (expected " +
           std::to_string(expected) + ")";
  }
  if (quantized) {
    // The int8 kernels accumulate a layer's products in int32, which bounds
    // the input width of every layer: the observation and each trunk width
    // (the heads and an extra rescale layer read the last one).
    int widest = net.input_dim;
    for (int h : net.trunk_hidden) widest = std::max(widest, h);
    if (widest > kernels::kGemmInt8MaxDepth) {
      return "int8 tier: layer input width " + std::to_string(widest) +
             " exceeds the int8 kernel depth limit " +
             std::to_string(kernels::kGemmInt8MaxDepth);
    }
  }
  return "";
}

QuantizedDuelingNet QuantizeCheckpoint(const AgentCheckpoint& checkpoint) {
  PF_CHECK_EQ(checkpoint.weight_format, kWeightFormatFp32)
      << "QuantizeCheckpoint wants fp32 source weights";
  return QuantizedDuelingNet(checkpoint.net_config, checkpoint.parameters);
}

std::optional<ServingNets> BuildServingNets(const AgentCheckpoint& checkpoint,
                                            bool quantized,
                                            std::string* error) {
  const std::string inconsistency =
      CheckpointConsistencyError(checkpoint, quantized);
  if (!inconsistency.empty()) {
    if (error != nullptr) *error = inconsistency;
    return std::nullopt;
  }
  ServingNets nets;
  nets.net = std::make_unique<DuelingNet>(checkpoint.net_config, nullptr);
  PF_CHECK(nets.net->DeserializeParams(checkpoint.parameters));
  if (quantized) {
    nets.quantized =
        std::make_unique<QuantizedDuelingNet>(QuantizeCheckpoint(checkpoint));
  }
  return nets;
}

CheckpointedSelector::CheckpointedSelector(const AgentCheckpoint& checkpoint,
                                           const ServeConfig& serve)
    : max_feature_ratio_(checkpoint.max_feature_ratio) {
  std::string error;
  std::optional<ServingNets> nets =
      BuildServingNets(checkpoint, serve.quantized, &error);
  PF_CHECK(nets.has_value()) << "internally inconsistent checkpoint: "
                             << error;
  nets_ = std::move(*nets);
}

std::optional<CheckpointedSelector> CheckpointedSelector::FromFile(
    const std::string& path, const ServeConfig& serve, std::string* error) {
  const std::optional<AgentCheckpoint> checkpoint =
      LoadCheckpoint(path, error);
  if (!checkpoint.has_value()) return std::nullopt;
  std::optional<ServingNets> nets =
      BuildServingNets(*checkpoint, serve.quantized, error);
  if (!nets.has_value()) return std::nullopt;
  return CheckpointedSelector(std::move(*nets), checkpoint->max_feature_ratio);
}

FeatureMask CheckpointedSelector::SelectForRepresentation(
    const std::vector<float>& representation) const {
  if (nets_.quantized != nullptr) {
    return GreedySelectSubset(*nets_.quantized, representation,
                              max_feature_ratio_);
  }
  return GreedySelectSubset(*nets_.net, representation, max_feature_ratio_);
}

std::vector<FeatureMask> CheckpointedSelector::SelectForRepresentations(
    const std::vector<std::vector<float>>& representations) const {
  if (nets_.quantized != nullptr) {
    return GreedySelectSubsets(*nets_.quantized, representations,
                               max_feature_ratio_);
  }
  return GreedySelectSubsets(*nets_.net, representations, max_feature_ratio_);
}

}  // namespace pafeat
