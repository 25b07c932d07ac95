#include "core/checkpoint.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "core/defaults.h"
#include "core/multi_run.h"
#include "data/synthetic.h"
#include "memory/persistence.h"

namespace pafeat {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest()
      : dataset_(MakeDataset()),
        problem_(dataset_.table, DefaultProblemConfig(true), 83) {
    FeatConfig config = DefaultFeatOptions(30, 84).feat;
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
    spec.num_unseen_tasks = 1;
    spec.seed = 85;
    return GenerateSynthetic(spec);
  }

  // ctest runs each case in its own process, concurrently: cases that
  // create side files pass their own tag so they never share a path.
  std::string TempPath(const std::string& tag) const {
    return ::testing::TempDir() + "/pafeat_" + tag + ".ckpt";
  }

  SyntheticDataset dataset_;
  FsProblem problem_;
  std::unique_ptr<Feat> feat_;
};

TEST_F(CheckpointTest, RoundTripPreservesSelections) {
  const AgentCheckpoint checkpoint = MakeCheckpoint(*feat_);
  EXPECT_EQ(checkpoint.net_config.input_dim, 23);  // 2 * 10 + 3
  EXPECT_DOUBLE_EQ(checkpoint.max_feature_ratio, 0.4);

  const std::string path = TempPath("round_trip");
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path));
  const auto restored = CheckpointedSelector::FromFile(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_features(), 10);
  EXPECT_DOUBLE_EQ(restored->max_feature_ratio(), 0.4);

  // The restored selector reproduces the live agent's decisions exactly.
  for (int task = 0; task < problem_.num_tasks(); ++task) {
    const std::vector<float> repr = problem_.ComputeTaskRepresentation(task);
    EXPECT_EQ(restored->SelectForRepresentation(repr),
              feat_->SelectForRepresentation(repr))
        << "task " << task;
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsMissingFile) {
  EXPECT_FALSE(LoadCheckpoint("/nonexistent/agent.ckpt").has_value());
  std::string error;
  EXPECT_FALSE(LoadCheckpoint("/nonexistent/agent.ckpt", &error).has_value());
  EXPECT_NE(error.find("cannot open checkpoint file"), std::string::npos)
      << error;
  EXPECT_NE(error.find("/nonexistent/agent.ckpt"), std::string::npos)
      << error;
}

TEST_F(CheckpointTest, LoadRejectsCorruptedMagic) {
  const std::string path = TempPath("corrupt_magic");
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage data that is not a checkpoint at all";
  }
  EXPECT_FALSE(LoadCheckpoint(path).has_value());
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsTruncatedFile) {
  const std::string path = TempPath("truncated_file");
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(*feat_), path));
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_FALSE(LoadCheckpoint(path).has_value());
  std::remove(path.c_str());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Byte offset of the version-2 weight-format byte: magic(4) version(4)
// input_dim(4) num_actions(4) extra_rescale(1) num_hidden(4) + hidden dims.
size_t WeightFormatOffset(const AgentCheckpoint& checkpoint) {
  return 4 + 4 + 4 + 4 + 1 + 4 + 4 * checkpoint.net_config.trunk_hidden.size();
}

TEST_F(CheckpointTest, LoadAcceptsVersion1File) {
  // A version-1 file is today's layout minus the weight-format byte. Splice
  // one out of a fresh save so the pre-ladder format keeps loading forever.
  const AgentCheckpoint checkpoint = MakeCheckpoint(*feat_);
  const std::string path = TempPath("version1");
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path));
  std::string bytes = ReadAll(path);
  bytes.erase(WeightFormatOffset(checkpoint), 1);
  bytes[4] = 1;  // version field (little-endian uint32)
  WriteAll(path, bytes);

  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->weight_format, kWeightFormatFp32);
  EXPECT_EQ(loaded->parameters, checkpoint.parameters);
  EXPECT_DOUBLE_EQ(loaded->max_feature_ratio, checkpoint.max_feature_ratio);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsFutureVersion) {
  const std::string path = TempPath("future_version");
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(*feat_), path));
  std::string bytes = ReadAll(path);
  bytes[4] = 4;  // a version this binary does not know
  WriteAll(path, bytes);
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("format version 4 is newer than this binary"),
            std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsUnknownWeightFormat) {
  const AgentCheckpoint checkpoint = MakeCheckpoint(*feat_);
  const std::string path = TempPath("weight_format");
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path));
  std::string bytes = ReadAll(path);
  bytes[WeightFormatOffset(checkpoint)] = 7;  // not kWeightFormatFp32
  WriteAll(path, bytes);
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("unknown weight format 7"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsParameterCountMismatch) {
  AgentCheckpoint checkpoint = MakeCheckpoint(*feat_);
  checkpoint.parameters.pop_back();
  const std::string path = TempPath("count_mismatch");
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path));
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("does not fit the architecture"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadRejectsTruncatedPayloadWithReason) {
  const std::string path = TempPath("truncated_payload");
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(*feat_), path));
  std::string bytes = ReadAll(path);
  bytes.resize(bytes.size() - 16);  // chop the parameter payload's tail
  WriteAll(path, bytes);
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("truncated checkpoint payload"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

// Hostile headers: each declares far more than the file holds. The load
// must return a reason without allocating what the header asks for.

// 46 bytes: a v2 header for an input dim of 2^30 + 1 and one trunk layer of
// width 2^30 — about 2^60 weights — followed by one parameter.
TEST_F(CheckpointTest, LoadRejectsHeaderDeclaringAnImpossibleNetwork) {
  ByteWriter header;
  header.U32(0x50414643);  // magic
  header.U32(2);           // format version
  header.I32((1 << 30) + 1);
  header.I32(2);           // actions
  header.U8(0);            // no rescale layer
  header.I32(1);           // trunk layers
  header.I32(1 << 30);
  header.U8(kWeightFormatFp32);
  header.F64(0.5);
  header.U64(1);  // parameter count
  header.F32(0.0f);
  const std::vector<std::uint8_t> bytes = header.Take();
  ASSERT_EQ(bytes.size(), 46u);
  const std::string path = TempPath("hostile_net");
  WriteAll(path, std::string(bytes.begin(), bytes.end()));
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("more parameters than a network can hold"),
            std::string::npos)
      << error;
  EXPECT_NE(error.find(path), std::string::npos) << error;
  std::remove(path.c_str());
}

// 45 bytes: a v1 header for a small net that declares 2^31 parameters and
// carries none of them.
TEST_F(CheckpointTest, LoadRejectsParameterCountBeyondTheFile) {
  ByteWriter header;
  header.U32(0x50414643);
  header.U32(1);
  header.I32(23);
  header.I32(2);
  header.U8(0);
  header.I32(2);
  header.I32(64);
  header.I32(64);
  header.F64(0.5);
  header.U64(std::uint64_t{1} << 31);
  const std::vector<std::uint8_t> bytes = header.Take();
  ASSERT_EQ(bytes.size(), 45u);
  const std::string path = TempPath("hostile_count");
  WriteAll(path, std::string(bytes.begin(), bytes.end()));
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &error).has_value());
  EXPECT_NE(error.find("truncated checkpoint payload"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, SaveLeavesNoTemporarySibling) {
  const std::string path = TempPath("atomic_save");
  const AgentCheckpoint checkpoint = MakeCheckpoint(*feat_);
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path));
  struct stat info;
  EXPECT_NE(::stat((path + ".tmp").c_str(), &info), 0);
  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->parameters, checkpoint.parameters);
  std::remove(path.c_str());
}

// A save that cannot complete (here its temporary file cannot be created:
// a directory holds the name) returns false and leaves the previous file
// byte-identical. Works as root too — no permission bits involved.
TEST_F(CheckpointTest, FailedSaveKeepsThePreviousFile) {
  const std::string path = TempPath("failed_save");
  const std::string tmp = path + ".tmp";
  AgentCheckpoint checkpoint = MakeCheckpoint(*feat_);
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path));
  const std::string before = ReadAll(path);
  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);

  checkpoint.max_feature_ratio = 0.25;
  EXPECT_FALSE(SaveCheckpoint(checkpoint, path));
  TrainingCheckpoint training;
  training.agent = checkpoint;
  training.training_state = {1, 2, 3};
  EXPECT_FALSE(SaveTrainingCheckpoint(training, path));
  EXPECT_EQ(ReadAll(path), before);

  ::rmdir(tmp.c_str());
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, ConsistencyErrorScreensServingMisuse) {
  const AgentCheckpoint good = MakeCheckpoint(*feat_);
  EXPECT_EQ(CheckpointConsistencyError(good), "");

  AgentCheckpoint bad_dim = good;
  bad_dim.net_config.input_dim = 24;  // not 2m + 3
  EXPECT_NE(CheckpointConsistencyError(bad_dim).find("observation layout"),
            std::string::npos);

  AgentCheckpoint bad_actions = good;
  bad_actions.net_config.num_actions = 3;
  EXPECT_NE(CheckpointConsistencyError(bad_actions).find("action count"),
            std::string::npos);

  AgentCheckpoint bad_ratio = good;
  bad_ratio.max_feature_ratio = 0.0;
  EXPECT_NE(
      CheckpointConsistencyError(bad_ratio).find("max feature ratio"),
      std::string::npos);
}

TEST(MultiRunTest, SummarizeBasics) {
  const RunStatistics statistics = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(statistics.runs, 4);
  EXPECT_DOUBLE_EQ(statistics.mean, 2.5);
  EXPECT_DOUBLE_EQ(statistics.min, 1.0);
  EXPECT_DOUBLE_EQ(statistics.max, 4.0);
  EXPECT_NEAR(statistics.stddev, 1.2909944, 1e-6);
}

TEST(MultiRunTest, SingleRunHasZeroStddev) {
  const RunStatistics statistics = Summarize({0.7});
  EXPECT_EQ(statistics.runs, 1);
  EXPECT_DOUBLE_EQ(statistics.stddev, 0.0);
}

TEST(MultiRunTest, RepeatRunsPassesDistinctSeeds) {
  std::vector<uint64_t> seeds;
  const RunStatistics statistics =
      RepeatRuns(3, 100, [&](uint64_t seed) {
        seeds.push_back(seed);
        return static_cast<double>(seed);
      });
  EXPECT_EQ(seeds, (std::vector<uint64_t>{100, 101, 102}));
  EXPECT_DOUBLE_EQ(statistics.mean, 101.0);
}

TEST(MultiRunTest, FormatMeanStd) {
  RunStatistics statistics;
  statistics.mean = 0.73125;
  statistics.stddev = 0.0125;
  EXPECT_EQ(FormatMeanStd(statistics, 3), "0.731 ± 0.013");
}

}  // namespace
}  // namespace pafeat
