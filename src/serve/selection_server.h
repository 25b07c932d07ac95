#ifndef PAFEAT_SERVE_SELECTION_SERVER_H_
#define PAFEAT_SERVE_SELECTION_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/greedy_policy.h"
#include "data/feature_mask.h"
#include "nn/dueling_net.h"
#include "nn/quantized_net.h"

namespace pafeat {

// Knobs for the multi-tenant serving plane (DESIGN.md "Selection serving
// plane"). Defaults favor throughput under concurrency without letting a
// lone request stall: a lone arrival waits at most max_wait_us for peers
// before its scan starts.
struct ServerConfig {
  // fp32 (default, bitwise-deterministic) or int8 quantized tier.
  ServeConfig serve;
  // Widest coalesced forward pass. Requests beyond this wait at step
  // boundaries for a live scan to retire (continuous batching).
  int max_batch = 64;
  // Admission bound on in-flight requests (queued + live). Arrivals beyond
  // it are rejected with kQueueFull instead of queuing unboundedly.
  int max_queue = 256;
  // How long an arrival may sit waiting for peers to coalesce with before
  // the serving loop starts its scan anyway. Only applies while no scan is
  // live; once scanning, new arrivals join at the next step boundary.
  int max_wait_us = 200;
};

// Why a Select call did or did not produce a subset.
enum class AdmissionStatus {
  kOk = 0,
  kQueueFull,    // max_queue in-flight requests already admitted
  kBadRequest,   // representation dim mismatch or invalid ratio override
  kShutdown,     // server shut down before the request could be served
};

const char* AdmissionStatusName(AdmissionStatus status);

// Per-request latency breakdown and serving context, returned with every
// completed response.
struct RequestStats {
  double queue_us = 0.0;    // enqueue -> joined a live scan batch
  double compute_us = 0.0;  // joined -> subset finished
  double total_us = 0.0;    // enqueue -> subset finished
  std::uint64_t net_version = 0;  // checkpoint version that served the scan
  int joined_batch_width = 0;     // live-batch width at the first step
};

struct SelectionResponse {
  AdmissionStatus status = AdmissionStatus::kShutdown;
  FeatureMask mask;  // empty unless status == kOk
  RequestStats stats;
};

// Server-lifetime counters, snapshotted by Stats(). All counts are
// cumulative since construction.
struct ServerStats {
  std::uint64_t admitted = 0;   // requests accepted into the queue
  std::uint64_t completed = 0;  // requests that returned a subset
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_bad_request = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t swaps_applied = 0;   // checkpoint hot-swaps taken
  std::uint64_t net_version = 0;     // version currently serving
  std::uint64_t steps = 0;           // coalesced forward passes run
  std::uint64_t step_rows = 0;       // total rows across those passes
  int queued_now = 0;  // waiting for admission at this instant
  int live_now = 0;    // mid-scan at this instant
  // hist[w] = steps whose coalesced batch held w requests (w <= max_batch).
  std::vector<std::uint64_t> batch_width_hist;
  double compute_us_sum = 0.0;

  double MeanBatchWidth() const {
    return steps == 0 ? 0.0
                      : static_cast<double>(step_rows) /
                            static_cast<double>(steps);
  }
};

// Long-lived multi-tenant selection service over one checkpoint-restored
// Q-network (DESIGN.md "Selection serving plane"). Concurrent callers block
// in Select while a dedicated serving thread coalesces their greedy scans
// into shared batched forward passes: every live request contributes one
// observation row per step, one PredictBatchInto decides the step for all
// of them, and new arrivals join at step boundaries (continuous batching —
// a request never waits for unrelated scans to finish, only for the current
// step). Because batched-kernel rows are bit-stable against batch
// composition and every path drives the same GreedyScanState machine, each
// fp32 response is bit-identical to a standalone GreedySelectSubset of the
// same representation no matter which tenants it coalesced with.
//
// Checkpoint hot-swap: PublishCheckpoint validates and builds the new
// network off the serving loop, then the loop swaps it in at a scan
// boundary — in-flight requests finish on the network that admitted them;
// requests admitted after the swap see the new one. Publish blocks until
// its checkpoint serves (or a newer publish supersedes it), so a trainer
// can alternate train/publish phases without racing itself.
//
// All public methods are thread-safe. The server must outlive every
// in-flight Select call; the destructor shuts down (rejecting queued
// requests, finishing live ones) and joins the serving thread.
class SelectionServer {
 public:
  // Dies (PF_CHECK) on a checkpoint BuildServingNets rejects, mirroring
  // CheckpointedSelector. Validate first via
  // CheckpointConsistencyError(checkpoint, config.serve.quantized).
  explicit SelectionServer(const AgentCheckpoint& checkpoint,
                           const ServerConfig& config = {});
  ~SelectionServer();

  SelectionServer(const SelectionServer&) = delete;
  SelectionServer& operator=(const SelectionServer&) = delete;

  // Blocks until the subset is ready (or the request is rejected). The
  // representation must match the serving network's feature count;
  // max_feature_ratio overrides the checkpoint's ratio for this request
  // (0 = use the checkpoint's; NaN or values outside (0, 1] are
  // kBadRequest).
  // The representation buffer is read by the serving thread until the call
  // returns — it must not be mutated concurrently (the blocking API makes
  // that automatic for the caller's own vector).
  SelectionResponse Select(const std::vector<float>& representation,
                           double max_feature_ratio = 0.0);

  // Validates and builds the new serving network on the calling thread,
  // then blocks until the serving loop swaps it in (live scans finish on
  // the old network first) or a newer publish supersedes it. Returns false
  // without touching the serving state on a bad checkpoint or a shut-down
  // server; `error` (when non-null) receives the reason.
  bool PublishCheckpoint(const AgentCheckpoint& checkpoint,
                         std::string* error = nullptr);

  // Stops admission immediately (subsequent Selects return kShutdown),
  // lets live scans finish, rejects queued requests with kShutdown,
  // unblocks pending publishers with failure, and joins the serving
  // thread. Idempotent; also run by the destructor.
  void Shutdown();

  ServerStats Stats() const;

  // Feature count of the network currently serving (changes on hot-swap).
  int num_features() const;
  double max_feature_ratio() const;
  bool quantized() const { return config_.serve.quantized; }
  const ServerConfig& config() const { return config_; }

  // Test hooks: freeze/unfreeze the serving loop at a step boundary.
  // While paused the loop neither admits nor steps, so tests can fill the
  // queue to provoke kQueueFull, or park a live scan mid-flight to overlap
  // it with a publish, deterministically.
  void PauseServingForTest();
  void ResumeServingForTest();

 private:
  // One serving network generation: the fp32 net or, for the int8 tier,
  // only its quantized twin, and the checkpoint metadata requests fall
  // back to.
  struct NetBundle {
    ServingNets nets;
    double max_feature_ratio = 0.5;
    int num_features = 0;
    std::uint64_t version = 0;
  };

  // Preallocated per-request state. Slots are recycled through free_, so
  // the steady state re-binds warm buffers instead of allocating.
  struct RequestSlot {
    const float* representation = nullptr;  // caller-owned, caller blocked
    int m = 0;
    double max_feature_ratio = 0.0;  // <= 0: use the serving bundle's
    std::vector<float> observation;  // 2m + 3 scan scratch
    FeatureMask mask;
    GreedyScanState scan;
    AdmissionStatus status = AdmissionStatus::kOk;
    bool done = false;
    std::uint64_t net_version = 0;
    int joined_batch_width = 0;
    std::chrono::steady_clock::time_point enqueued_at;
    std::chrono::steady_clock::time_point live_at;
    std::chrono::steady_clock::time_point done_at;
  };

  // Builds a NetBundle off the serving loop (BuildServingNets). Returns
  // nullptr and sets `error` when the checkpoint fails the screen.
  std::unique_ptr<NetBundle> BuildBundle(const AgentCheckpoint& checkpoint,
                                         std::string* error) const;

  void ServeLoop();
  // One coalesced scan step over the first `width` entries of live_:
  // emit rows, one batched forward, apply decisions, collect finished
  // requests into finished_scratch_. Runs outside the mutex; touches no
  // heap (the serving plane's steady-state hot path).
  void ServeStep(int width);

  // The pieces of ServeLoop that run under mutex_:
  void ApplySwapLocked();
  void AdmitWaitingLocked();
  void CommitStepLocked(int width);
  void RejectQueuedLocked();
  void FinishSlotLocked(int slot_index, AdmissionStatus status);

  const ServerConfig config_;
  const int max_live_;  // min(max_batch, max_queue)

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // wakes the serving loop
  std::condition_variable done_cv_;  // wakes blocked Select callers
  std::condition_variable swap_cv_;  // wakes blocked publishers

  // Serving-generation state (guarded by mutex_ for cross-thread fields;
  // current_ is only rebound by the serving thread while it holds mutex_
  // and only dereferenced on the serving thread, so ServeStep reads it
  // without the lock).
  std::unique_ptr<NetBundle> current_;
  std::unique_ptr<NetBundle> pending_;  // latest unapplied publish
  std::uint64_t publish_seq_ = 1;       // version of the newest bundle built
  std::uint64_t applied_seq_ = 1;       // version currently serving

  bool shutdown_ = false;
  bool paused_ = false;

  // Request plumbing (guarded by mutex_): slot pool + FIFO admission ring +
  // dense live set. All containers are sized once in the constructor.
  std::vector<RequestSlot> slots_;
  std::vector<int> free_;        // stack of recyclable slot indices
  std::vector<int> queue_ring_;  // FIFO of enqueued slot indices
  int queue_head_ = 0;
  int queued_count_ = 0;
  std::vector<int> live_;  // slot indices mid-scan, batch row order
  int live_count_ = 0;

  // Serving-thread scratch (touched only by the serving thread).
  std::vector<float> batch_;  // max_batch x (2m + 3)
  std::vector<float> q_;      // max_batch x kNumActions
  std::vector<int> finished_scratch_;  // rows finished by the last step
  int finished_count_ = 0;

  ServerStats stats_;

  // Declared last so every member above outlives the loop it drives;
  // started as the constructor's final act.
  DedicatedThread loop_;
};

}  // namespace pafeat

#endif  // PAFEAT_SERVE_SELECTION_SERVER_H_
