#ifndef PAFEAT_COMMON_THREAD_POOL_H_
#define PAFEAT_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pafeat {

// Persistent worker-thread pool shared process-wide: FEAT's buffer-filling
// phase submits its episode plans here instead of spawning fresh
// std::threads every iteration, and the tensor kernel layer splits large
// GEMMs into row panels over the same threads. Workers are created once and
// parked on a condition variable between jobs, so the per-iteration cost is
// a wake/sleep instead of thread construction.
//
// Determinism contract: ParallelFor only distributes *indices*; which thread
// executes an index never feeds back into results. Callers that need
// bit-identical output across thread counts (Feat::RunIteration, the GEMM
// row split) must keep any order-sensitive work out of the parallel region —
// FEAT plans episodes sequentially before the ParallelFor and commits
// results in plan order after it; GEMM panels write disjoint output rows
// with a fixed per-element accumulation order.
class ThreadPool {
 public:
  // Creates `num_workers` parked threads (0 is valid: ParallelFor then runs
  // entirely on the calling thread).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Safe to call concurrently with EnsureGlobalWorkers (atomic snapshot;
  // the vector itself is only touched under submit_mutex_).
  int num_workers() const {
    return num_workers_.load(std::memory_order_acquire);
  }

  // Runs fn(i) for every i in [0, count), distributing indices over at most
  // `max_parallelism` executors (the calling thread participates and counts
  // toward the cap). Blocks until every index has finished. Reentrant calls
  // from inside a pool task — and concurrent calls from other threads while
  // a job is active — degrade gracefully to running inline on the caller,
  // so nested parallelism cannot deadlock.
  //
  // Tasks are expected not to throw (the project uses PF_CHECK, not
  // exceptions), but a throwing task cannot wedge or kill the pool: the
  // remaining indices still run, pool state stays consistent, and the first
  // captured exception is rethrown on the submitting thread after the job
  // drains (tests rely on this to assert with gtest inside tasks).
  void ParallelFor(int count, int max_parallelism,
                   const std::function<void(int)>& fn);

  // The process-wide shared pool, created on first use with
  // hardware_concurrency - 1 workers (the caller is the extra executor).
  static ThreadPool* Global();

  // Grows the global pool to at least `num_workers` workers (never shrinks;
  // a live pool's parked threads are cheap). Used by FeatConfig wiring so
  // `num_threads = 8` delivers eight executors even on first use.
  static void EnsureGlobalWorkers(int num_workers);

 private:
  void WorkerLoop();
  // Pulls indices from the active job until it is drained.
  void RunJobShare();

  std::mutex mutex_;
  std::condition_variable job_available_;
  std::condition_variable job_done_;

  // Active job state (valid while job_active_ is true; the plain ints are
  // guarded by mutex_).
  const std::function<void(int)>* job_fn_ = nullptr;
  int job_count_ = 0;
  int job_max_workers_ = 0;  // pool workers allowed to join the current job
  int job_joined_ = 0;       // pool workers that joined the current job
  int job_runners_ = 0;      // executors currently inside the job
  std::atomic<int> next_index_{0};
  std::atomic<int> pending_{0};
  bool job_active_ = false;
  uint64_t job_epoch_ = 0;
  bool shutdown_ = false;
  // First exception a task threw during the active job (guarded by mutex_);
  // rethrown on the submitter once the job has fully drained.
  std::exception_ptr job_exception_;

  // Serializes ParallelFor callers: one job at a time; losers run inline.
  std::mutex submit_mutex_;

  std::vector<std::thread> workers_;
  // Mirrors workers_.size(); lets ParallelFor size a job without taking
  // submit_mutex_ while EnsureGlobalWorkers grows the pool.
  std::atomic<int> num_workers_{0};
};

// A single long-lived thread for loops that cannot be expressed as pool
// jobs: ParallelFor distributes bounded index ranges and blocks until they
// drain, but a serving loop (src/serve/SelectionServer) runs until shutdown
// and must never hold a pool worker hostage. Living in this TU keeps the
// raw-thread lint rule meaningful — every thread in the process is still
// constructed behind src/common/thread_pool.*.
//
// The owner is responsible for making the loop function return (e.g. via a
// shutdown flag + condition variable) before Join()/destruction; Join
// blocks until it does. Determinism note: a dedicated thread is outside the
// ParallelFor index-distribution contract — whatever runs on it must manage
// its own ordering (the SelectionServer serializes all episode state on
// this one thread, which is exactly how it stays deterministic).
class DedicatedThread {
 public:
  DedicatedThread() = default;
  ~DedicatedThread();

  DedicatedThread(const DedicatedThread&) = delete;
  DedicatedThread& operator=(const DedicatedThread&) = delete;

  // Launches `fn` on the dedicated thread. Must be called at most once, and
  // only while no thread is running (PF_CHECK'd).
  void Start(std::function<void()> fn);

  // Blocks until the loop function returns. Idempotent; safe without Start.
  void Join();


 private:
  std::thread thread_;
};

}  // namespace pafeat

#endif  // PAFEAT_COMMON_THREAD_POOL_H_
