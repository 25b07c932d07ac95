#include "nn/quantized_net.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/defaults.h"
#include "core/feat.h"
#include "core/greedy_policy.h"
#include "data/synthetic.h"
#include "nn/dueling_net.h"
#include "nn/workspace.h"
#include "rl/fs_env.h"
#include "serve/selection_server.h"
#include "tensor/kernels.h"

namespace pafeat {
namespace {

// --- quantization rule unit tests ------------------------------------------

TEST(QuantizeRowSymmetricTest, KnownCodesAndScale) {
  const float x[] = {1.0f, -0.5f, 0.25f, 0.0f};
  std::int8_t q[4] = {0, 0, 0, 0};
  const float scale = QuantizeRowSymmetric(x, 4, q);
  // maxabs = 1.0 -> scale 1/127; codes are round(x * 127).
  EXPECT_FLOAT_EQ(scale, 1.0f / 127.0f);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -64);  // -63.5 rounds to even -64
  EXPECT_EQ(q[2], 32);   // 31.75 rounds to 32
  EXPECT_EQ(q[3], 0);
}

TEST(QuantizeRowSymmetricTest, AllZeroRowGetsUnitScale) {
  const float x[] = {0.0f, 0.0f, 0.0f};
  std::int8_t q[3] = {5, 5, 5};
  EXPECT_FLOAT_EQ(QuantizeRowSymmetric(x, 3, q), 1.0f);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 0);
  EXPECT_EQ(q[2], 0);
}

TEST(QuantizeRowSymmetricTest, RoundTripErrorBoundedByHalfStep) {
  Rng rng(321);
  std::vector<float> x(301);
  for (float& v : x) v = static_cast<float>(rng.Normal(0.0, 2.0));
  std::vector<std::int8_t> q(x.size());
  const float scale = QuantizeRowSymmetric(x.data(), static_cast<int>(x.size()),
                                           q.data());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(q[i] * scale - x[i]), 0.5f * scale * 1.0001f)
        << "element " << i;
  }
}

// --- QuantizedDuelingNet vs fp32 DuelingNet --------------------------------

// Builds a randomly-initialized fp32 net and its int8 twin.
struct NetPair {
  explicit NetPair(const DuelingNetConfig& config, uint64_t seed)
      : rng(seed), fp32(config, &rng), int8(config, fp32.SerializeParams()) {}
  Rng rng;
  DuelingNet fp32;
  QuantizedDuelingNet int8;
};

TEST(QuantizedDuelingNetTest, QValuesTrackFp32WithinQuantizationError) {
  DuelingNetConfig config;
  config.input_dim = 23;
  config.num_actions = 2;
  NetPair nets(config, 99);

  const int rows = 17;
  Rng data_rng(7);
  std::vector<float> states(static_cast<size_t>(rows) * config.input_dim);
  for (float& v : states) v = static_cast<float>(data_rng.Normal(0.0, 1.0));

  InferenceArena arena;
  std::vector<float> q_fp32(static_cast<size_t>(rows) * config.num_actions);
  std::vector<float> q_int8(q_fp32.size());
  nets.fp32.PredictBatchInto(rows, states.data(), &arena, q_fp32.data());
  nets.int8.PredictBatchInto(rows, states.data(), &arena, q_int8.data());

  // The documented tolerance of the quantized tier: Q-values stay within a
  // small fraction of the fp32 Q-range. (Subset decisions compare Q[select]
  // against Q[deselect], so a uniform shift cannot flip them.)
  float q_min = q_fp32[0], q_max = q_fp32[0];
  for (float v : q_fp32) {
    q_min = std::min(q_min, v);
    q_max = std::max(q_max, v);
  }
  const float range = std::max(q_max - q_min, 1e-3f);
  for (size_t i = 0; i < q_fp32.size(); ++i) {
    EXPECT_NEAR(q_int8[i], q_fp32[i], 0.05f * range) << "q element " << i;
  }
}

TEST(QuantizedDuelingNetTest, DeterministicAcrossCalls) {
  DuelingNetConfig config;
  config.input_dim = 11;
  config.num_actions = 2;
  NetPair nets(config, 5);
  std::vector<float> state(static_cast<size_t>(config.input_dim), 0.3f);
  InferenceArena arena;
  float q1[2], q2[2];
  nets.int8.PredictBatchInto(1, state.data(), &arena, q1);
  nets.int8.PredictBatchInto(1, state.data(), &arena, q2);
  EXPECT_EQ(q1[0], q2[0]);
  EXPECT_EQ(q1[1], q2[1]);
}

// --- end-to-end subset match on a trained agent ----------------------------

class QuantizedServingTest : public ::testing::Test {
 protected:
  QuantizedServingTest()
      : dataset_(MakeDataset()),
        problem_(dataset_.table, DefaultProblemConfig(true), 19) {
    FeatConfig config = DefaultFeatOptions(30, 21).feat;
    config.max_feature_ratio = 0.4;
    feat_ = std::make_unique<Feat>(&problem_, dataset_.SeenTaskIndices(),
                                   config);
    feat_->Train(30);
  }

  static SyntheticDataset MakeDataset() {
    SyntheticSpec spec;
    spec.num_instances = 250;
    spec.num_features = 10;
    spec.num_seen_tasks = 2;
    spec.num_unseen_tasks = 2;
    spec.seed = 17;
    return GenerateSynthetic(spec);
  }

  std::vector<std::vector<float>> AllRepresentations() {
    std::vector<std::vector<float>> reprs;
    for (int task = 0; task < problem_.num_tasks(); ++task) {
      reprs.push_back(problem_.ComputeTaskRepresentation(task));
    }
    return reprs;
  }

  SyntheticDataset dataset_;
  FsProblem problem_;
  std::unique_ptr<Feat> feat_;
};

// The documented subset-match tolerance of the quantized tier: on every
// decision whose fp32 margin |Q[select] - Q[deselect]| exceeds this fraction
// of the trajectory's Q-range, the int8 tier must take the same branch.
// Near-indifferent decisions (margin below the bound) may legitimately flip
// — the Q function rates either subset as equally good there — which is why
// the tier is gated for serving and excluded from the bitwise contract.
constexpr float kDecisionMarginTolerance = 0.05f;

// Replays the fp32 greedy trajectory of one task (the scan in
// greedy_policy.cc), recording the observation consulted at every live
// position so both tiers can be queried on the identical states.
struct ScanTrace {
  std::vector<std::vector<float>> observations;
  std::vector<float> q_rows;  // 2 per observation
};

ScanTrace ReplayFp32Scan(const DuelingNet& net, const std::vector<float>& repr,
                         double max_feature_ratio) {
  const int m = static_cast<int>(repr.size());
  const int obs_dim = 2 * m + 3;
  const int max_selectable =
      std::max(1, static_cast<int>(max_feature_ratio * m));
  std::vector<float> observation(obs_dim, 0.0f);
  std::copy(repr.begin(), repr.end(), observation.begin());
  ScanTrace trace;
  InferenceArena arena;
  int selected = 0;
  for (int position = 0; position < m && selected < max_selectable;
       ++position) {
    observation[2 * m] = static_cast<float>(position) / m;
    observation[2 * m + 1] = repr[position];
    observation[2 * m + 2] = static_cast<float>(selected) / m;
    float q[2];
    net.PredictBatchInto(1, observation.data(), &arena, q);
    trace.observations.push_back(observation);
    trace.q_rows.push_back(q[0]);
    trace.q_rows.push_back(q[1]);
    if (q[kActionSelect] > q[kActionDeselect]) {
      observation[m + position] = 1.0f;
      ++selected;
    }
  }
  return trace;
}

TEST_F(QuantizedServingTest, DecisionsAgreeWhereverFp32MarginIsClear) {
  const DuelingNet& fp32 = feat_->agent().online_net();
  const QuantizedDuelingNet int8(fp32.config(), fp32.SerializeParams());
  const double mfr = feat_->config().max_feature_ratio;
  InferenceArena arena;
  int clear_decisions = 0;
  for (const std::vector<float>& repr : AllRepresentations()) {
    const ScanTrace trace = ReplayFp32Scan(fp32, repr, mfr);
    float q_min = trace.q_rows[0], q_max = trace.q_rows[0];
    for (float v : trace.q_rows) {
      q_min = std::min(q_min, v);
      q_max = std::max(q_max, v);
    }
    const float tol =
        kDecisionMarginTolerance * std::max(q_max - q_min, 1e-3f);
    for (size_t s = 0; s < trace.observations.size(); ++s) {
      const float fq_sel = trace.q_rows[2 * s + kActionSelect];
      const float fq_des = trace.q_rows[2 * s + kActionDeselect];
      if (std::abs(fq_sel - fq_des) <= tol) continue;  // near-indifferent
      ++clear_decisions;
      float q[2];
      int8.PredictBatchInto(1, trace.observations[s].data(), &arena, q);
      EXPECT_EQ(q[kActionSelect] > q[kActionDeselect], fq_sel > fq_des)
          << "step " << s << ": fp32 margin " << fq_sel - fq_des
          << " exceeds tolerance " << tol
          << " but the int8 tier flips the decision";
    }
  }
  // The fixture must actually exercise the contract, not vacuously pass.
  EXPECT_GT(clear_decisions, 0);
}

// All int8 entry points quantize the same fp32 parameters with the same
// deterministic rule, so their masks are exactly equal — this, unlike the
// fp32 comparison above, is an equality contract.
TEST_F(QuantizedServingTest, Int8TierIsConsistentAcrossEntryPoints) {
  const std::vector<std::vector<float>> reprs = AllRepresentations();
  const DuelingNet& fp32 = feat_->agent().online_net();
  const QuantizedDuelingNet int8(fp32.config(), fp32.SerializeParams());
  const std::vector<FeatureMask> direct =
      GreedySelectSubsets(int8, reprs, feat_->config().max_feature_ratio);

  const int max_selectable = std::max(
      1, static_cast<int>(feat_->config().max_feature_ratio *
                          problem_.num_features()));
  ASSERT_EQ(direct.size(), reprs.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_GT(MaskCount(direct[i]), 0) << "task " << i;
    EXPECT_LE(MaskCount(direct[i]), max_selectable) << "task " << i;
  }

  ServeConfig serve;
  serve.quantized = true;
  const AgentCheckpoint checkpoint = MakeCheckpoint(*feat_);
  const CheckpointedSelector fp32_selector(checkpoint);
  const CheckpointedSelector int8_selector(checkpoint, serve);
  EXPECT_FALSE(fp32_selector.quantized());
  EXPECT_TRUE(int8_selector.quantized());
  EXPECT_EQ(int8_selector.SelectForRepresentations(reprs), direct);
  // Single-representation entry point routes through the same tier.
  for (size_t i = 0; i < reprs.size(); ++i) {
    EXPECT_EQ(int8_selector.SelectForRepresentation(reprs[i]), direct[i])
        << "task " << i;
  }
}

TEST_F(QuantizedServingTest, FromFileBuildsQuantizedTierOnce) {
  // The forced-downgrade ctest matrix runs this case in several processes
  // at once; each saves to its own file.
  const std::string path = ::testing::TempDir() + "/pafeat_quant_" +
                           std::to_string(::getpid()) + ".ckpt";
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(*feat_), path));
  ServeConfig serve;
  serve.quantized = true;
  const auto selector = CheckpointedSelector::FromFile(path, serve);
  ASSERT_TRUE(selector.has_value());
  EXPECT_TRUE(selector->quantized());
  const std::vector<float> repr = problem_.ComputeTaskRepresentation(0);
  // A usable selector never returns the empty subset.
  EXPECT_GT(MaskCount(selector->SelectForRepresentation(repr)), 0);
  std::remove(path.c_str());
}

TEST_F(QuantizedServingTest, QuantizeCheckpointMatchesDirectConstruction) {
  const AgentCheckpoint checkpoint = MakeCheckpoint(*feat_);
  const QuantizedDuelingNet net = QuantizeCheckpoint(checkpoint);
  EXPECT_EQ(net.config().input_dim, checkpoint.net_config.input_dim);
  const std::vector<float> repr = problem_.ComputeTaskRepresentation(0);
  EXPECT_EQ(GreedySelectSubset(net, repr, checkpoint.max_feature_ratio),
            GreedySelectSubset(QuantizedDuelingNet(checkpoint.net_config,
                                                   checkpoint.parameters),
                               repr, checkpoint.max_feature_ratio));
}

// A network the int8 kernels cannot reduce: 2m + 3 = kGemmInt8MaxDepth + 1
// inputs (m = 66571) over a one-unit trunk, about 133k parameters.
AgentCheckpoint TooDeepForInt8Checkpoint() {
  AgentCheckpoint checkpoint;
  checkpoint.net_config.input_dim = kernels::kGemmInt8MaxDepth + 1;
  checkpoint.net_config.num_actions = kNumActions;
  checkpoint.net_config.trunk_hidden = {1};
  checkpoint.parameters.assign(
      static_cast<std::size_t>(DuelingNet::ParamCount(checkpoint.net_config)),
      0.01f);
  return checkpoint;
}

TEST(QuantizedTierScreenTest, TooDeepNetworkIsAStatusNotAnAbort) {
  const AgentCheckpoint checkpoint = TooDeepForInt8Checkpoint();
  ASSERT_EQ(checkpoint.net_config.input_dim, 133145);
  // The fp32 tier serves it; only the int8 tier is refused.
  EXPECT_EQ(CheckpointConsistencyError(checkpoint), "");
  EXPECT_TRUE(BuildServingNets(checkpoint, /*quantized=*/false).has_value());
  std::string error;
  EXPECT_FALSE(BuildServingNets(checkpoint, /*quantized=*/true, &error));
  EXPECT_NE(error.find("int8 tier"), std::string::npos) << error;

  const std::string path = ::testing::TempDir() + "/pafeat_too_deep_" +
                           std::to_string(::getpid()) + ".ckpt";
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path));
  ServeConfig serve;
  serve.quantized = true;
  error.clear();
  EXPECT_FALSE(CheckpointedSelector::FromFile(path, serve, &error));
  EXPECT_NE(error.find("int8 tier"), std::string::npos) << error;
  EXPECT_TRUE(CheckpointedSelector::FromFile(path).has_value());
  std::remove(path.c_str());

  // A trunk layer as wide is refused the same way (the screen walks every
  // layer input, not only the observation).
  AgentCheckpoint wide_trunk;
  wide_trunk.net_config.input_dim = 5;
  wide_trunk.net_config.num_actions = kNumActions;
  wide_trunk.net_config.trunk_hidden = {4, kernels::kGemmInt8MaxDepth + 1};
  wide_trunk.parameters.resize(
      static_cast<std::size_t>(DuelingNet::ParamCount(wide_trunk.net_config)));
  EXPECT_EQ(CheckpointConsistencyError(wide_trunk), "");
  EXPECT_NE(CheckpointConsistencyError(wide_trunk, /*quantized=*/true), "");
}

TEST(QuantizedTierScreenTest, QuantizedPublishOfTooDeepNetworkIsRejected) {
  AgentCheckpoint small;
  small.net_config.input_dim = 2 * 8 + 3;
  small.net_config.num_actions = kNumActions;
  small.net_config.trunk_hidden = {16};
  Rng rng(61);
  small.parameters = DuelingNet(small.net_config, &rng).SerializeParams();
  ServerConfig config;
  config.serve.quantized = true;
  SelectionServer server(small, config);

  std::string error;
  EXPECT_FALSE(server.PublishCheckpoint(TooDeepForInt8Checkpoint(), &error));
  EXPECT_NE(error.find("int8 tier"), std::string::npos) << error;
  // The server keeps serving the network it had.
  EXPECT_EQ(server.Stats().net_version, 1u);
  EXPECT_EQ(server.num_features(), 8);
  const std::vector<float> repr(8, 0.5f);
  EXPECT_EQ(server.Select(repr).status, AdmissionStatus::kOk);
}

// Walks the fp32 trace and queries the int8 tier on the identical
// observations; returns true only when the first decision the tiers
// disagree on had a clear fp32 margin — the margin-gated contract of
// kDecisionMarginTolerance above. Flips at near-indifferent decisions
// (and everything downstream of one, since the scans diverge there) are
// the tier's documented, legitimate behavior.
bool DivergenceViolatesMargin(const DuelingNet& fp32,
                              const QuantizedDuelingNet& int8,
                              const std::vector<float>& repr,
                              double max_feature_ratio) {
  const ScanTrace trace = ReplayFp32Scan(fp32, repr, max_feature_ratio);
  if (trace.observations.empty()) return false;
  float q_min = trace.q_rows[0], q_max = trace.q_rows[0];
  for (float v : trace.q_rows) {
    q_min = std::min(q_min, v);
    q_max = std::max(q_max, v);
  }
  const float tol = kDecisionMarginTolerance * std::max(q_max - q_min, 1e-3f);
  InferenceArena arena;
  for (size_t s = 0; s < trace.observations.size(); ++s) {
    const float fq_sel = trace.q_rows[2 * s + kActionSelect];
    const float fq_des = trace.q_rows[2 * s + kActionDeselect];
    float q[2];
    int8.PredictBatchInto(1, trace.observations[s].data(), &arena, q);
    if ((q[kActionSelect] > q[kActionDeselect]) == (fq_sel > fq_des)) continue;
    return std::abs(fq_sel - fq_des) > tol;
  }
  return false;
}

// Randomly-initialized (untrained) nets over many seeds: a wider sweep of
// weight distributions than one trained agent can provide. Untrained nets
// produce many near-indifferent decisions, so subsets may legitimately
// diverge there; what must never happen is the int8 tier flipping a
// decision whose fp32 margin was clear (the same margin-gated contract
// DecisionsAgreeWhereverFp32MarginIsClear checks on a trained agent).
// PAFEAT_SERVE_QUANTIZED=1 (set on the sanitizer CI leg) widens the sweep.
TEST(QuantizedServingSweepTest, RandomNetsSubsetMatch) {
  const bool extended = std::getenv("PAFEAT_SERVE_QUANTIZED") != nullptr;
  const int num_seeds = extended ? 24 : 6;
  const int num_features = 9;  // obs_dim 21
  DuelingNetConfig config;
  config.input_dim = 2 * num_features + 3;
  config.num_actions = 2;

  int mismatches = 0;
  for (int seed = 0; seed < num_seeds; ++seed) {
    NetPair nets(config, 1000 + static_cast<uint64_t>(seed) * 13);
    Rng repr_rng(500 + seed);
    std::vector<std::vector<float>> reprs(3);
    for (auto& repr : reprs) {
      repr.resize(num_features);
      for (float& v : repr) v = static_cast<float>(repr_rng.Uniform());
    }
    const std::vector<FeatureMask> want =
        GreedySelectSubsets(nets.fp32, reprs, 0.5);
    const std::vector<FeatureMask> got =
        GreedySelectSubsets(nets.int8, reprs, 0.5);
    for (size_t i = 0; i < reprs.size(); ++i) {
      if (got[i] != want[i] &&
          DivergenceViolatesMargin(nets.fp32, nets.int8, reprs[i], 0.5)) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// The acceptance-scale scenario: the bench's obs_dim 2043 network (1020
// features). The quantized tier must reproduce the fp32 subsets exactly
// here — large nets average out per-weight quantization noise and the
// greedy margins dwarf it.
TEST(QuantizedServingSweepTest, LargeObsDimSubsetMatch) {
  const int num_features = 1020;  // obs_dim 2 * 1020 + 3 = 2043
  DuelingNetConfig config;
  config.input_dim = 2 * num_features + 3;
  config.num_actions = 2;
  NetPair nets(config, 4242);
  Rng repr_rng(31);
  std::vector<std::vector<float>> reprs(2);
  for (auto& repr : reprs) {
    repr.resize(num_features);
    for (float& v : repr) v = static_cast<float>(repr_rng.Uniform());
  }
  const std::vector<FeatureMask> want =
      GreedySelectSubsets(nets.fp32, reprs, 0.3);
  const std::vector<FeatureMask> got =
      GreedySelectSubsets(nets.int8, reprs, 0.3);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "task " << i;
  }
}

}  // namespace
}  // namespace pafeat
