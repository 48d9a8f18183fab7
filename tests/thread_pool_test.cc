#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace sdci {
namespace {

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&](size_t) { ran.fetch_add(1); }).ok());
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.Completed(), 100u);
}

TEST(ThreadPool, WorkerIndexIsStablePerThread) {
  // The contract the collector's per-worker DelayBudgets rely on: worker i
  // is one thread for the pool's lifetime, so state indexed by i has one
  // owner. Record the thread id seen by each index and check consistency.
  constexpr size_t kWorkers = 3;
  ThreadPool pool(kWorkers);
  std::vector<std::atomic<std::thread::id>> seen(kWorkers);
  std::atomic<int> mismatches{0};
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(pool.Submit([&](size_t worker) {
      ASSERT_LT(worker, kWorkers);
      std::thread::id expected{};
      if (!seen[worker].compare_exchange_strong(expected,
                                                std::this_thread::get_id())) {
        if (seen[worker].load() != std::this_thread::get_id()) {
          mismatches.fetch_add(1);
        }
      }
    }).ok());
  }
  pool.Shutdown();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadPool, ShutdownDrainsAcceptedTasks) {
  ThreadPool pool(2, 64);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pool.Submit([&](size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran.fetch_add(1);
    }).ok());
  }
  pool.Shutdown();  // must not drop queued tasks
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, SubmitAfterShutdownFails) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_EQ(pool.Submit([](size_t) {}).code(), StatusCode::kClosed);
  pool.Shutdown();  // idempotent
}

TEST(ThreadPool, SpscFeedModeDrainsEveryTask) {
  // The lock-free feed the collector reader and aggregator receiver use:
  // one submitter thread, per-worker rings, worker indices stable, and
  // shutdown drains every accepted task. TSan runs this against the ring's
  // release/acquire publication (see check.sh).
  constexpr size_t kWorkers = 3;
  ThreadPool pool(kWorkers);
  std::atomic<int> ran{0};
  std::vector<std::atomic<int>> per_worker(kWorkers);
  constexpr int kTasks = 3000;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.Submit([&](size_t worker) {
      ASSERT_LT(worker, kWorkers);
      per_worker[worker].fetch_add(1);
      ran.fetch_add(1);
    }).ok());
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(pool.Completed(), static_cast<uint64_t>(kTasks));
  // Round-robin: the feed spreads exactly evenly across workers.
  for (size_t i = 0; i < kWorkers; ++i) {
    EXPECT_EQ(per_worker[i].load(), kTasks / static_cast<int>(kWorkers));
  }
  EXPECT_EQ(pool.Submit([](size_t) {}).code(), StatusCode::kClosed);
}

TEST(ThreadPool, ZeroWorkersClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 1u);
  std::atomic<bool> ran{false};
  ASSERT_TRUE(pool.Submit([&](size_t worker) {
    EXPECT_EQ(worker, 0u);
    ran.store(true);
  }).ok());
  pool.Shutdown();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace sdci
