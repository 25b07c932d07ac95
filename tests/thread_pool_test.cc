#include "common/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

namespace pafeat {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(1000, 4, [&](int i) { counts[i].fetch_add(1); });
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  // The pool is persistent: back-to-back jobs must not leak state from one
  // job into the next (index counters, lingering workers).
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(round + 1, 3, [&](int i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), (round + 1) * (round + 2) / 2) << round;
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsInlineOnCaller) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  pool.ParallelFor(8, 4, [&](int i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, MaxParallelismOneRunsInline) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  pool.ParallelFor(8, 1, [&](int i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A task that itself calls ParallelFor (episode -> large GEMM) must not
  // deadlock: the nested call degrades to inline execution.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(6, 3, [&](int) {
    pool.ParallelFor(5, 3, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 30);
}

TEST(ThreadPoolTest, ZeroOrNegativeCountIsANoOp) {
  ThreadPool pool(1);
  int calls = 0;
  pool.ParallelFor(0, 2, [&](int) { ++calls; });
  pool.ParallelFor(-3, 2, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, GlobalPoolGrowsButNeverShrinks) {
  ThreadPool::EnsureGlobalWorkers(2);
  const int before = ThreadPool::Global()->num_workers();
  EXPECT_GE(before, 2);
  ThreadPool::EnsureGlobalWorkers(4);
  EXPECT_GE(ThreadPool::Global()->num_workers(), 4);
  ThreadPool::EnsureGlobalWorkers(1);  // no shrink
  EXPECT_GE(ThreadPool::Global()->num_workers(), 4);
  std::atomic<int> sum{0};
  ThreadPool::Global()->ParallelFor(100, 8, [&](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(DedicatedThreadTest, RunsLoopUntilToldToStopAndJoinIsIdempotent) {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  int ticks = 0;
  DedicatedThread loop;
  loop.Start([&] {
    std::unique_lock<std::mutex> lock(mu);
    ++ticks;
    cv.notify_all();
    while (!stop) cv.wait(lock);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ticks >= 1; });  // loop is alive and parked
    stop = true;
  }
  cv.notify_all();
  loop.Join();
  EXPECT_EQ(ticks, 1);
  loop.Join();  // idempotent after the thread is gone
}

TEST(DedicatedThreadTest, DestructorJoinsAnUnjoinedThread) {
  std::atomic<bool> ran{false};
  {
    DedicatedThread loop;
    loop.Start([&] { ran.store(true); });
  }  // ~DedicatedThread must join, not terminate
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace pafeat
