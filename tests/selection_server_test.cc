// SelectionServer contract tests (DESIGN.md "Selection serving plane"):
// cross-request coalescing must be invisible in the results (fp32 responses
// bit-identical to the standalone greedy scan no matter which tenants they
// shared batches with), checkpoint hot-swaps must land between scans, and
// admission must reject instead of queuing unboundedly.

#include "serve/selection_server.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/greedy_policy.h"
#include "data/feature_mask.h"
#include "nn/dueling_net.h"
#include "rl/fs_env.h"

namespace pafeat {
namespace {

// A structurally valid checkpoint with freshly initialized weights — the
// server contract is about serving mechanics, not selection quality, and a
// random dueling net already produces nontrivial feature-dependent subsets.
AgentCheckpoint MakeTestCheckpoint(int m, double max_feature_ratio,
                                   uint64_t seed) {
  AgentCheckpoint checkpoint;
  checkpoint.net_config.input_dim = 2 * m + 3;
  checkpoint.net_config.num_actions = kNumActions;
  checkpoint.net_config.trunk_hidden = {32, 32};
  checkpoint.max_feature_ratio = max_feature_ratio;
  Rng rng(seed);
  DuelingNet net(checkpoint.net_config, &rng);
  checkpoint.parameters = net.SerializeParams();
  return checkpoint;
}

std::vector<float> MakeRepresentation(int m, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> repr(m);
  for (float& v : repr) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return repr;
}

void PollUntil(const std::function<bool()>& predicate) {
  while (!predicate()) std::this_thread::yield();
}

TEST(SelectionServerTest, LoneRequestMatchesStandaloneSelector) {
  const AgentCheckpoint checkpoint = MakeTestCheckpoint(24, 0.4, 11);
  const CheckpointedSelector standalone(checkpoint);
  SelectionServer server(checkpoint);
  EXPECT_EQ(server.num_features(), 24);
  EXPECT_DOUBLE_EQ(server.max_feature_ratio(), 0.4);
  EXPECT_FALSE(server.quantized());

  const std::vector<float> repr = MakeRepresentation(24, 7);
  const SelectionResponse response = server.Select(repr);
  ASSERT_EQ(response.status, AdmissionStatus::kOk);
  EXPECT_EQ(response.mask, standalone.SelectForRepresentation(repr));
  EXPECT_EQ(response.stats.net_version, 1u);
  EXPECT_EQ(response.stats.joined_batch_width, 1);
  EXPECT_GE(response.stats.total_us, response.stats.compute_us);

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GT(stats.steps, 0u);
  EXPECT_EQ(stats.batch_width_hist[1], stats.steps);
}

// The headline determinism contract: every coalesced fp32 response is
// bit-identical to the standalone scan of the same representation, for any
// mix of concurrent tenants, at any client concurrency.
TEST(SelectionServerTest, CoalescedResponsesBitIdenticalToStandalone) {
  constexpr int kM = 16;
  constexpr int kRequestsPerClient = 12;
  const AgentCheckpoint checkpoint = MakeTestCheckpoint(kM, 0.5, 21);
  const CheckpointedSelector standalone(checkpoint);

  // Precompute the ground truth once; both concurrency levels must hit it.
  std::vector<std::vector<float>> reprs;
  std::vector<FeatureMask> expected;
  for (int i = 0; i < 8 * kRequestsPerClient; ++i) {
    reprs.push_back(MakeRepresentation(kM, 1000 + i));
    expected.push_back(standalone.SelectForRepresentation(reprs.back()));
  }

  for (const int clients : {1, 8}) {
    ServerConfig config;
    config.max_batch = 4;  // force multi-step queue/coalesce churn
    SelectionServer server(checkpoint, config);
    std::atomic<int> mismatches{0};
    // lint: allow(raw-thread): concurrent tenants must be unmanaged threads
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const int idx = c * kRequestsPerClient + i;
          const SelectionResponse response = server.Select(reprs[idx]);
          if (response.status != AdmissionStatus::kOk ||
              response.mask != expected[idx]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    // lint: allow(raw-thread): joining the client threads spawned above
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << clients << " clients";
    const ServerStats stats = server.Stats();
    EXPECT_EQ(stats.completed,
              static_cast<uint64_t>(clients) * kRequestsPerClient);
    if (clients == 8) {
      // With 8 tenants and max_batch 4, some forward passes must have
      // carried more than one request.
      uint64_t multi = 0;
      for (int w = 2; w < static_cast<int>(stats.batch_width_hist.size());
           ++w) {
        multi += stats.batch_width_hist[w];
      }
      EXPECT_GT(multi, 0u);
    }
  }
}

TEST(SelectionServerTest, PerRequestRatioOverride) {
  const AgentCheckpoint checkpoint = MakeTestCheckpoint(20, 0.5, 31);
  SelectionServer server(checkpoint);
  const std::vector<float> repr = MakeRepresentation(20, 3);

  Rng rng(0);
  DuelingNet net(checkpoint.net_config, &rng);
  ASSERT_TRUE(net.DeserializeParams(checkpoint.parameters));
  const SelectionResponse tight = server.Select(repr, 0.1);
  ASSERT_EQ(tight.status, AdmissionStatus::kOk);
  EXPECT_EQ(tight.mask, GreedySelectSubset(net, repr, 0.1));
  EXPECT_LE(MaskCount(tight.mask), 2);  // max(1, int(0.1 * 20))

  // Out-of-range overrides are rejected up front, not served.
  EXPECT_EQ(server.Select(repr, 1.5).status, AdmissionStatus::kBadRequest);
  EXPECT_EQ(server.Select(repr, -0.3).status, AdmissionStatus::kBadRequest);
  EXPECT_EQ(server.Stats().rejected_bad_request, 2u);
}

TEST(SelectionServerTest, NanRatioOverrideIsRejected) {
  SelectionServer server(MakeTestCheckpoint(10, 0.5, 33));
  const SelectionResponse response = server.Select(
      MakeRepresentation(10, 4), std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(response.status, AdmissionStatus::kBadRequest);
  EXPECT_TRUE(response.mask.empty());
  EXPECT_EQ(server.Stats().rejected_bad_request, 1u);
  EXPECT_EQ(server.Stats().admitted, 0u);
}

TEST(SelectionServerTest, QuantizedTierMatchesStandaloneQuantized) {
  const AgentCheckpoint checkpoint = MakeTestCheckpoint(18, 0.5, 41);
  ServerConfig config;
  config.serve.quantized = true;
  SelectionServer server(checkpoint, config);
  EXPECT_TRUE(server.quantized());
  const CheckpointedSelector standalone(checkpoint, config.serve);

  // Integer accumulation is order-independent, so even the quantized tier
  // is exactly coalescing-invariant.
  for (int i = 0; i < 6; ++i) {
    const std::vector<float> repr = MakeRepresentation(18, 500 + i);
    const SelectionResponse response = server.Select(repr);
    ASSERT_EQ(response.status, AdmissionStatus::kOk);
    EXPECT_EQ(response.mask, standalone.SelectForRepresentation(repr)) << i;
  }
}

TEST(SelectionServerTest, BadRequestDimensionIsRejected) {
  SelectionServer server(MakeTestCheckpoint(12, 0.5, 51));
  const SelectionResponse response =
      server.Select(MakeRepresentation(13, 1));
  EXPECT_EQ(response.status, AdmissionStatus::kBadRequest);
  EXPECT_TRUE(response.mask.empty());
  EXPECT_EQ(server.Stats().rejected_bad_request, 1u);
  EXPECT_EQ(server.Stats().admitted, 0u);
}

TEST(SelectionServerTest, PausedQueueCoalescesIntoOneBatch) {
  // Ratio 1.0 means every scan runs exactly m steps (no early budget
  // retirement), so all four tenants stay coalesced the whole way and the
  // width histogram is exact.
  const AgentCheckpoint checkpoint = MakeTestCheckpoint(16, 1.0, 61);
  const CheckpointedSelector standalone(checkpoint);
  SelectionServer server(checkpoint);
  server.PauseServingForTest();

  constexpr int kClients = 4;
  std::vector<std::vector<float>> reprs;
  for (int c = 0; c < kClients; ++c) {
    reprs.push_back(MakeRepresentation(16, 600 + c));
  }
  std::vector<SelectionResponse> responses(kClients);
  // lint: allow(raw-thread): blocked tenants must be unmanaged threads
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(
        [&, c] { responses[c] = server.Select(reprs[c]); });
  }
  PollUntil([&] { return server.Stats().queued_now == kClients; });
  server.ResumeServingForTest();
  // lint: allow(raw-thread): joining the tenant threads spawned above
  for (std::thread& thread : threads) thread.join();

  // All four were waiting at the same boundary, so they joined one
  // four-wide batch and every step ran all four rows.
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].status, AdmissionStatus::kOk);
    EXPECT_EQ(responses[c].mask,
              standalone.SelectForRepresentation(reprs[c]));
    EXPECT_EQ(responses[c].stats.joined_batch_width, kClients);
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.batch_width_hist[kClients], stats.steps);
  EXPECT_DOUBLE_EQ(stats.MeanBatchWidth(), kClients);
}

TEST(SelectionServerTest, AdmissionRejectsWhenQueueIsFull) {
  ServerConfig config;
  config.max_queue = 3;
  const AgentCheckpoint checkpoint = MakeTestCheckpoint(10, 0.5, 71);
  SelectionServer server(checkpoint, config);
  server.PauseServingForTest();

  std::vector<std::vector<float>> reprs;
  for (int c = 0; c < 3; ++c) {
    reprs.push_back(MakeRepresentation(10, 700 + c));
  }
  // lint: allow(raw-thread): blocked tenants must be unmanaged threads
  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      EXPECT_EQ(server.Select(reprs[c]).status, AdmissionStatus::kOk);
    });
  }
  PollUntil([&] { return server.Stats().queued_now == 3; });

  // Queue is at max_queue: the next arrival is rejected, explicitly.
  const std::vector<float> extra = MakeRepresentation(10, 799);
  EXPECT_EQ(server.Select(extra).status, AdmissionStatus::kQueueFull);
  EXPECT_EQ(server.Stats().rejected_queue_full, 1u);

  server.ResumeServingForTest();
  // lint: allow(raw-thread): joining the tenant threads spawned above
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(server.Stats().completed, 3u);

  // Capacity recycles: the same request is admitted once slots are free.
  EXPECT_EQ(server.Select(extra).status, AdmissionStatus::kOk);
}

TEST(SelectionServerTest, HotSwapServesNewCheckpointAfterPublish) {
  const AgentCheckpoint v1 = MakeTestCheckpoint(14, 0.5, 81);
  const AgentCheckpoint v2 = MakeTestCheckpoint(14, 0.3, 82);
  const CheckpointedSelector selector_v1(v1);
  const CheckpointedSelector selector_v2(v2);
  SelectionServer server(v1);

  const std::vector<float> repr = MakeRepresentation(14, 9);
  const SelectionResponse before = server.Select(repr);
  ASSERT_EQ(before.status, AdmissionStatus::kOk);
  EXPECT_EQ(before.stats.net_version, 1u);
  EXPECT_EQ(before.mask, selector_v1.SelectForRepresentation(repr));

  // Publish blocks until the swap applies, so the very next Select must
  // already serve v2 — including its new default ratio.
  ASSERT_TRUE(server.PublishCheckpoint(v2));
  EXPECT_EQ(server.Stats().net_version, 2u);
  EXPECT_DOUBLE_EQ(server.max_feature_ratio(), 0.3);
  const SelectionResponse after = server.Select(repr);
  ASSERT_EQ(after.status, AdmissionStatus::kOk);
  EXPECT_EQ(after.stats.net_version, 2u);
  EXPECT_EQ(after.mask, selector_v2.SelectForRepresentation(repr));

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.swaps_applied, 1u);
  EXPECT_EQ(stats.net_version, 2u);
}

// A request parked mid-scan when a publish lands must finish on the
// network that admitted it; the swap waits for the scan boundary.
TEST(SelectionServerTest, InFlightRequestFinishesOnOldNetAcrossSwap) {
  const AgentCheckpoint v1 = MakeTestCheckpoint(64, 0.5, 91);
  const AgentCheckpoint v2 = MakeTestCheckpoint(64, 0.5, 92);
  const CheckpointedSelector selector_v1(v1);
  SelectionServer server(v1);

  const std::vector<float> repr = MakeRepresentation(64, 13);
  SelectionResponse response;
  // lint: allow(raw-thread): the in-flight tenant must be unmanaged
  std::thread tenant([&] { response = server.Select(repr); });
  // Freeze the loop once the request is mid-scan (or, rarely, already
  // done — the assertions below hold either way because the publish
  // happens strictly after the pause).
  PollUntil([&] {
    const ServerStats stats = server.Stats();
    return stats.live_now > 0 || stats.completed > 0;
  });
  server.PauseServingForTest();

  std::atomic<bool> published{false};
  // lint: allow(raw-thread): publisher must block independently
  std::thread publisher([&] {
    EXPECT_TRUE(server.PublishCheckpoint(v2));
    published.store(true);
  });
  // The publish cannot apply while the old scan is parked live.
  EXPECT_FALSE(published.load());
  server.ResumeServingForTest();
  // lint: allow(raw-thread): joining the helper threads spawned above
  tenant.join();
  publisher.join();

  ASSERT_EQ(response.status, AdmissionStatus::kOk);
  EXPECT_EQ(response.stats.net_version, 1u);
  EXPECT_EQ(response.mask, selector_v1.SelectForRepresentation(repr));
  EXPECT_EQ(server.Stats().net_version, 2u);
  EXPECT_EQ(server.Stats().swaps_applied, 1u);
}

TEST(SelectionServerTest, PublishRejectsBadCheckpointAndBadFile) {
  const AgentCheckpoint v1 = MakeTestCheckpoint(12, 0.5, 101);
  SelectionServer server(v1);

  AgentCheckpoint broken = MakeTestCheckpoint(12, 0.5, 102);
  broken.parameters.pop_back();
  std::string error;
  EXPECT_FALSE(server.PublishCheckpoint(broken, &error));
  EXPECT_NE(error.find("does not fit the architecture"), std::string::npos)
      << error;

  // The serving state is untouched by rejected publishes.
  EXPECT_EQ(server.Stats().net_version, 1u);
  EXPECT_EQ(server.Stats().swaps_applied, 0u);
  const std::vector<float> repr = MakeRepresentation(12, 5);
  EXPECT_EQ(server.Select(repr).status, AdmissionStatus::kOk);
}

TEST(SelectionServerTest, PublishFromFileServes) {
  const AgentCheckpoint v1 = MakeTestCheckpoint(12, 0.5, 111);
  const AgentCheckpoint v2 = MakeTestCheckpoint(12, 0.5, 112);
  const std::string path = ::testing::TempDir() + "/pafeat_serve_swap.ckpt";
  ASSERT_TRUE(SaveCheckpoint(v2, path));

  SelectionServer server(v1);
  const std::optional<AgentCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(server.PublishCheckpoint(*loaded));
  EXPECT_EQ(server.Stats().net_version, 2u);
  const CheckpointedSelector selector_v2(v2);
  const std::vector<float> repr = MakeRepresentation(12, 6);
  const SelectionResponse response = server.Select(repr);
  ASSERT_EQ(response.status, AdmissionStatus::kOk);
  EXPECT_EQ(response.mask, selector_v2.SelectForRepresentation(repr));
  std::remove(path.c_str());
}

TEST(SelectionServerTest, ShutdownRejectsQueuedAndSubsequentRequests) {
  const AgentCheckpoint checkpoint = MakeTestCheckpoint(10, 0.5, 121);
  SelectionServer server(checkpoint);
  server.PauseServingForTest();

  constexpr int kQueued = 3;
  std::vector<SelectionResponse> responses(kQueued);
  // lint: allow(raw-thread): blocked tenants must be unmanaged threads
  std::vector<std::thread> threads;
  for (int c = 0; c < kQueued; ++c) {
    threads.emplace_back([&, c] {
      responses[c] = server.Select(MakeRepresentation(10, 900 + c));
    });
  }
  PollUntil([&] { return server.Stats().queued_now == kQueued; });

  server.Shutdown();
  // lint: allow(raw-thread): joining the tenant threads spawned above
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kQueued; ++c) {
    EXPECT_EQ(responses[c].status, AdmissionStatus::kShutdown);
    EXPECT_TRUE(responses[c].mask.empty());
  }
  EXPECT_EQ(server.Select(MakeRepresentation(10, 999)).status,
            AdmissionStatus::kShutdown);
  EXPECT_EQ(server.Stats().rejected_shutdown,
            static_cast<uint64_t>(kQueued) + 1);
}

TEST(SelectionServerTest, StatusNamesAreStable) {
  EXPECT_STREQ(AdmissionStatusName(AdmissionStatus::kOk), "ok");
  EXPECT_STREQ(AdmissionStatusName(AdmissionStatus::kQueueFull),
               "queue-full");
  EXPECT_STREQ(AdmissionStatusName(AdmissionStatus::kBadRequest),
               "bad-request");
  EXPECT_STREQ(AdmissionStatusName(AdmissionStatus::kShutdown), "shutdown");
}

}  // namespace
}  // namespace pafeat
