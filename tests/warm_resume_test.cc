// Checkpoint v3 warm resume (DESIGN.md "Bounded memory plane"): a training
// run interrupted by save/load must continue bit-identically to the
// uninterrupted run — network parameters, replay contents, reward-cache
// values, Experience-Trees and the RNG stream all round-trip. v1/v2 files
// still load (cold), and plain LoadCheckpoint ignores the v3 trailer.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/defaults.h"
#include "core/pafeat.h"
#include "data/synthetic.h"
#include "memory/persistence.h"

namespace pafeat {
namespace {

SyntheticDataset ResumeDataset() {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 10;
  spec.num_seen_tasks = 3;
  spec.num_unseen_tasks = 1;
  spec.seed = 41;
  return GenerateSynthetic(spec);
}

PaFeatConfig ResumeConfig() {
  PaFeatConfig config;
  config.feat = DefaultFeatOptions(60, 31).feat;
  config.feat.envs_per_iteration = 6;
  return config;
}

std::string TempPath(const char* tag) {
  std::ostringstream out;
  out << ::testing::TempDir() << "/pafeat_warm_resume_" << tag << ".ckpt";
  return out.str();
}

std::string DumpRun(Feat& feat) {
  std::ostringstream out;
  for (float parameter : feat.agent().online_net().SerializeParams()) {
    uint32_t bits = 0;
    std::memcpy(&bits, &parameter, sizeof(bits));
    out << bits << ' ';
  }
  out << '\n';
  for (int slot = 0; slot < feat.num_tasks(); ++slot) {
    const ReplayBuffer& buffer = *feat.task_runtime(slot).buffer;
    out << "slot " << slot << " transitions " << buffer.num_transitions()
        << '\n';
    buffer.ForEachStored([&](const Trajectory& trajectory, double priority) {
      uint64_t bits = 0;
      std::memcpy(&bits, &trajectory.episode_return, sizeof(bits));
      out << ' ' << bits << '/' << priority << '/'
          << trajectory.transitions.size() << '\n';
    });
  }
  return out.str();
}

class WarmResumeTest : public ::testing::Test {
 protected:
  WarmResumeTest()
      : dataset_(ResumeDataset()),
        problem_a_(dataset_.table, DefaultProblemConfig(true), 19),
        problem_b_(dataset_.table, DefaultProblemConfig(true), 19) {}

  SyntheticDataset dataset_;
  FsProblem problem_a_;
  FsProblem problem_b_;
};

TEST_F(WarmResumeTest, ResumedRunMatchesUninterruptedRun) {
  // Reference: 12 uninterrupted iterations.
  PaFeat uninterrupted(&problem_a_, dataset_.SeenTaskIndices(),
                       ResumeConfig());
  uninterrupted.Train(12);

  // Interrupted: 5 iterations, checkpoint to disk, restore into a fresh
  // instance over a fresh problem, 7 more iterations.
  PaFeat first_half(&problem_b_, dataset_.SeenTaskIndices(), ResumeConfig());
  first_half.Train(5);
  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeTrainingCheckpoint(first_half),
                                     path));

  std::string error;
  const auto loaded = LoadTrainingCheckpoint(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_TRUE(loaded->has_training_state());

  FsProblem problem_c(dataset_.table, DefaultProblemConfig(true), 19);
  PaFeat resumed(&problem_c, dataset_.SeenTaskIndices(), ResumeConfig());
  ASSERT_TRUE(RestoreTrainingCheckpoint(*loaded, &resumed, &error)) << error;
  resumed.Train(7);

  EXPECT_EQ(DumpRun(uninterrupted.feat()), DumpRun(resumed.feat()));

  // The further-training path reuses the restored machinery identically too.
  const int unseen = dataset_.UnseenTaskIndices().front();
  const FeatureMask mask_a =
      uninterrupted.FurtherTrain(unseen, 3, 0, nullptr);
  const FeatureMask mask_b = resumed.FurtherTrain(unseen, 3, 0, nullptr);
  EXPECT_EQ(mask_a, mask_b);
  std::remove(path.c_str());
}

TEST_F(WarmResumeTest, InMemoryBlobRoundTripsThroughFreshInstance) {
  PaFeat original(&problem_a_, dataset_.SeenTaskIndices(), ResumeConfig());
  original.Train(4);
  const std::vector<std::uint8_t> blob = original.SerializeTrainingState();
  const std::vector<float> params =
      original.feat().agent().online_net().SerializeParams();

  PaFeat restored(&problem_b_, dataset_.SeenTaskIndices(), ResumeConfig());
  restored.feat().agent().online_net().DeserializeParams(params);
  std::string error;
  ASSERT_TRUE(restored.RestoreTrainingState(blob, &error)) << error;

  // Replay and agent state round-trip exactly.
  EXPECT_EQ(DumpRun(original.feat()), DumpRun(restored.feat()));

  // The reward-cache memo round-trips as a set: the restored instance's own
  // task-build lookups may reorder the export (they sit in the pending tier
  // and dedup the import), but every (key, value) pair survives.
  for (int slot = 0; slot < original.feat().num_tasks(); ++slot) {
    std::vector<std::pair<PackedMask, double>> a, b;
    original.feat().task_runtime(slot).context->evaluator->ExportCacheEntries(
        &a);
    restored.feat().task_runtime(slot).context->evaluator->ExportCacheEntries(
        &b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "task slot " << slot;
  }

  // One round trip canonicalizes: serialize(restore(blob)) is a fixpoint.
  const std::vector<std::uint8_t> blob2 = restored.SerializeTrainingState();
  FsProblem problem_c(dataset_.table, DefaultProblemConfig(true), 19);
  PaFeat again(&problem_c, dataset_.SeenTaskIndices(), ResumeConfig());
  again.feat().agent().online_net().DeserializeParams(params);
  ASSERT_TRUE(again.RestoreTrainingState(blob2, &error)) << error;
  EXPECT_EQ(again.SerializeTrainingState(), blob2);
}

TEST_F(WarmResumeTest, V2FileLoadsColdAndV3TrailerIsIgnoredByPlainLoad) {
  PaFeat pafeat(&problem_a_, dataset_.SeenTaskIndices(), ResumeConfig());
  pafeat.Train(2);

  // A v2 file (plain SaveCheckpoint) loads as a training checkpoint with no
  // training state.
  const std::string v2_path = TempPath("v2");
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(pafeat.feat()), v2_path));
  std::string error;
  const auto cold = LoadTrainingCheckpoint(v2_path, &error);
  ASSERT_TRUE(cold.has_value()) << error;
  EXPECT_FALSE(cold->has_training_state());

  // A v3 file serves plain (serving-path) loads: the trailer is skipped and
  // the agent section matches the v2 payload.
  const TrainingCheckpoint training = MakeTrainingCheckpoint(pafeat);
  const std::string v3_path = TempPath("v3");
  ASSERT_TRUE(SaveTrainingCheckpoint(training, v3_path));
  const auto serving = LoadCheckpoint(v3_path, &error);
  ASSERT_TRUE(serving.has_value()) << error;
  EXPECT_EQ(serving->parameters, training.agent.parameters);
  EXPECT_EQ(serving->max_feature_ratio, training.agent.max_feature_ratio);

  std::remove(v2_path.c_str());
  std::remove(v3_path.c_str());
}

TEST_F(WarmResumeTest, TruncatedTrainingStateIsRejected) {
  PaFeat pafeat(&problem_a_, dataset_.SeenTaskIndices(), ResumeConfig());
  pafeat.Train(2);
  const std::string path = TempPath("truncated");
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeTrainingCheckpoint(pafeat), path));

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes.resize(bytes.size() - 16);  // cut into the training-state blob
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  std::string error;
  EXPECT_FALSE(LoadTrainingCheckpoint(path, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST_F(WarmResumeTest, RestoreRejectsMismatchedTaskList) {
  PaFeat pafeat(&problem_a_, dataset_.SeenTaskIndices(), ResumeConfig());
  pafeat.Train(2);
  const std::vector<std::uint8_t> blob = pafeat.SerializeTrainingState();

  // A restore target with fewer tasks must fail with a reason, not die.
  std::vector<int> fewer = dataset_.SeenTaskIndices();
  fewer.pop_back();
  PaFeat mismatched(&problem_b_, fewer, ResumeConfig());
  std::string error;
  EXPECT_FALSE(mismatched.RestoreTrainingState(blob, &error));
  EXPECT_FALSE(error.empty());
}

// Byte offset of the first stored transition in a PaFeat training-state
// blob, found by walking the documented layout (Feat::SerializeTrainingState):
// header and RNG, agent state, then per task its recent returns, replay
// trajectories and reward-cache entries. Returns 0 if no task has a stored
// transition.
std::size_t FirstTransitionOffset(const std::vector<std::uint8_t>& blob) {
  ByteReader in(blob);
  const auto skip = [&](std::size_t bytes) {
    std::vector<std::uint8_t> sink(bytes);
    if (bytes > 0) in.Raw(sink.data(), bytes);
  };
  skip(2 * sizeof(std::uint32_t) + 7 * sizeof(std::uint64_t));  // to agent
  in.I64();                                                     // steps
  skip(in.U64() * sizeof(float));                               // target
  in.I64();                                                     // adam step
  skip(in.U64() * sizeof(float));                               // adam m
  skip(in.U64() * sizeof(float));                               // adam v
  const std::uint64_t popart = in.U64();
  skip(popart * sizeof(double));                                // mean
  skip(in.U64() * sizeof(double));                              // sq
  skip(popart);                                                 // init flags
  in.U32();                                                     // features
  const std::uint32_t num_tasks = in.U32();
  for (std::uint32_t task = 0; task < num_tasks && in.ok(); ++task) {
    in.I32();                                    // label index
    skip(in.U32() * sizeof(double));             // recent returns
    const std::uint32_t trajectories = in.U32();
    for (std::uint32_t t = 0; t < trajectories; ++t) {
      skip(2 * sizeof(double));                  // priority, return
      // Stored trajectories are never empty, so the first one holds the
      // first transition.
      if (in.U32() > 0) return blob.size() - in.remaining();
    }
    const std::uint32_t entries = in.U32();
    const std::uint32_t words = in.U32();
    skip(entries * (words * sizeof(std::uint64_t) + sizeof(double)));
  }
  return 0;
}

TEST_F(WarmResumeTest, RestoreRejectsOutOfRangeTransitions) {
  PaFeat pafeat(&problem_a_, dataset_.SeenTaskIndices(), ResumeConfig());
  pafeat.Train(3);
  const std::vector<std::uint8_t> blob = pafeat.SerializeTrainingState();
  const std::size_t transition = FirstTransitionOffset(blob);
  ASSERT_GT(transition, 0u) << "no stored transition to corrupt";
  const std::size_t num_features = dataset_.table.num_features();
  // Transition layout: I32 position, mask, I32 next position, mask,
  // I32 action, F32 reward, U8 done.
  const std::size_t position_offset = transition;
  const std::size_t action_offset =
      transition + 2 * (sizeof(std::int32_t) + num_features);

  const auto patched = [&](std::size_t offset, std::int32_t value) {
    std::vector<std::uint8_t> bytes = blob;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
  };
  const auto restore = [&](const std::vector<std::uint8_t>& bytes,
                           std::string* error) {
    FsProblem problem(dataset_.table, DefaultProblemConfig(true), 19);
    PaFeat restored(&problem, dataset_.SeenTaskIndices(), ResumeConfig());
    return restored.RestoreTrainingState(bytes, error);
  };

  // The unpatched blob restores, so the rejections below come from the
  // range checks, not from a misread layout.
  std::string error;
  ASSERT_TRUE(restore(blob, &error)) << error;
  EXPECT_FALSE(restore(patched(position_offset, -1), &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(restore(patched(action_offset, 7), &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace pafeat
