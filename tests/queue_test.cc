#include "common/queue.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/spsc.h"

namespace sdci {
namespace {

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.Push(i).ok());
  for (int i = 0; i < 5; ++i) {
    auto v = queue.Pop();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueue, TryPushFailsWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1).ok());
  EXPECT_TRUE(queue.TryPush(2).ok());
  EXPECT_EQ(queue.TryPush(3).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueue, TryPopOnEmpty) {
  BoundedQueue<int> queue(2);
  EXPECT_FALSE(queue.TryPop().has_value());
}

TEST(BoundedQueue, PopForTimesOut) {
  BoundedQueue<int> queue(2);
  const auto r = queue.PopFor(std::chrono::milliseconds(5));
  EXPECT_EQ(r.status().code(), StatusCode::kTimedOut);
}

TEST(BoundedQueue, CloseWakesBlockedPop) {
  BoundedQueue<int> queue(2);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.Close();
  });
  const auto r = queue.Pop();
  EXPECT_EQ(r.status().code(), StatusCode::kClosed);
  closer.join();
}

TEST(BoundedQueue, CloseDrainsRemainingItems) {
  BoundedQueue<int> queue(8);
  ASSERT_TRUE(queue.Push(1).ok());
  ASSERT_TRUE(queue.Push(2).ok());
  queue.Close();
  EXPECT_EQ(queue.Push(3).code(), StatusCode::kClosed);
  EXPECT_EQ(*queue.Pop(), 1);
  EXPECT_EQ(*queue.Pop(), 2);
  EXPECT_EQ(queue.Pop().status().code(), StatusCode::kClosed);
}

TEST(BoundedQueue, PushBlocksUntilRoom) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1).ok());
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(queue.Push(2).ok());
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(*queue.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(*queue.Pop(), 2);
}

TEST(BoundedQueue, MpmcDeliversEverythingExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 500;
  BoundedQueue<int> queue(32);
  std::atomic<int64_t> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        auto v = queue.Pop();
        if (!v.ok()) return;
        sum.fetch_add(*v);
        received.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kItemsEach; ++i) {
        ASSERT_TRUE(queue.Push(p * kItemsEach + i).ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  while (received.load() < kProducers * kItemsEach) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.Close();
  for (auto& t : consumers) t.join();

  const int64_t n = kProducers * kItemsEach;
  EXPECT_EQ(received.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(BoundedQueue, ZeroCapacityClampsToOne) {
  BoundedQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.TryPush(1).ok());
  EXPECT_FALSE(queue.TryPush(2).ok());
}

TEST(BoundedQueue, MoveOnlyItems) {
  BoundedQueue<std::unique_ptr<int>> queue(4);
  ASSERT_TRUE(queue.Push(std::make_unique<int>(9)).ok());
  auto v = queue.Pop();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, 9);
}

TEST(BoundedQueue, PushAllKeepsOrder) {
  BoundedQueue<int> queue(8);
  ASSERT_TRUE(queue.PushAll({1, 2, 3, 4, 5}).ok());
  for (int i = 1; i <= 5; ++i) {
    auto v = queue.Pop();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueue, PushAllLargerThanCapacityWavesThrough) {
  BoundedQueue<int> queue(3);
  std::vector<int> items(20);
  std::iota(items.begin(), items.end(), 0);
  std::thread consumer([&] {
    for (int i = 0; i < 20; ++i) {
      auto v = queue.Pop();
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(*v, i) << "bulk order preserved across waves";
    }
  });
  EXPECT_TRUE(queue.PushAll(std::move(items)).ok());
  consumer.join();
}

TEST(BoundedQueue, PushAllFailsClosed) {
  BoundedQueue<int> queue(4);
  queue.Close();
  EXPECT_EQ(queue.PushAll({1, 2}).code(), StatusCode::kClosed);
}

TEST(BoundedQueue, PopAllTakesUpToMax) {
  BoundedQueue<int> queue(8);
  ASSERT_TRUE(queue.PushAll({1, 2, 3, 4, 5}).ok());
  auto first = queue.PopAll(3);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, (std::vector<int>{1, 2, 3}));
  auto rest = queue.PopAll(100);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(*rest, (std::vector<int>{4, 5}));
}

TEST(BoundedQueue, PopAllZeroMaxTakesOne) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.PushAll({7, 8}).ok());
  auto v = queue.PopAll(0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, std::vector<int>{7});
}

TEST(BoundedQueue, PopAllDrainsThenCloses) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(1).ok());
  queue.Close();
  auto v = queue.PopAll(10);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, std::vector<int>{1});
  EXPECT_EQ(queue.PopAll(10).status().code(), StatusCode::kClosed);
}

TEST(BoundedQueue, BulkProducerConsumerLosesNothing) {
  BoundedQueue<int> queue(7);  // deliberately misaligned with batch sizes
  constexpr int kBatches = 50;
  constexpr int kPerBatch = 13;
  std::atomic<int64_t> sum{0};
  std::thread consumer([&] {
    int64_t local = 0;
    size_t seen = 0;
    while (seen < kBatches * kPerBatch) {
      auto items = queue.PopAll(5);
      ASSERT_TRUE(items.ok());
      seen += items->size();
      for (int v : *items) local += v;
    }
    sum.store(local);
  });
  int next = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<int> batch(kPerBatch);
    for (int& v : batch) v = next++;
    ASSERT_TRUE(queue.PushAll(std::move(batch)).ok());
  }
  consumer.join();
  const int64_t n = kBatches * kPerBatch;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(SpscRing, FifoOrderSingleThread) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.TryPush(i).ok());
  EXPECT_EQ(ring.TryPush(99).code(), StatusCode::kResourceExhausted);
  for (int i = 0; i < 4; ++i) {
    auto item = ring.TryPop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
}

TEST(SpscRing, CloseDrainsThenFails) {
  SpscRing<int> ring(4);
  ASSERT_TRUE(ring.Push(1).ok());
  ASSERT_TRUE(ring.Push(2).ok());
  ring.Close();
  EXPECT_EQ(ring.TryPush(3).code(), StatusCode::kClosed);
  EXPECT_EQ(ring.Pop().value(), 1);
  EXPECT_EQ(ring.Pop().value(), 2);
  EXPECT_EQ(ring.Pop().status().code(), StatusCode::kClosed);
}

TEST(SpscRing, CloseWakesBlockedPop) {
  SpscRing<int> ring(2);
  std::thread consumer([&] {
    EXPECT_EQ(ring.Pop().status().code(), StatusCode::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ring.Close();
  consumer.join();
}

TEST(SpscRing, MoveOnlyItems) {
  SpscRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.Push(std::make_unique<int>(7)).ok());
  auto item = ring.Pop();
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(**item, 7);
}

TEST(SpscRing, BlockingPushSurvivesFullRounds) {
  // Regression: a blocking Push that finds the ring full must retry with
  // the ORIGINAL item, not a moved-from shell.
  SpscRing<std::string> ring(2);
  ASSERT_TRUE(ring.Push(std::string("a")).ok());
  ASSERT_TRUE(ring.Push(std::string("b")).ok());
  std::thread producer([&] {
    ASSERT_TRUE(ring.Push(std::string("c")).ok());  // blocks until a pop
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(*ring.TryPop(), "a");
  producer.join();
  EXPECT_EQ(*ring.TryPop(), "b");
  EXPECT_EQ(*ring.TryPop(), "c");
}

TEST(SpscRing, StressPreservesFifo) {
  // One producer, one consumer, a deliberately tiny ring: every value
  // arrives exactly once, in order, under sustained wrap-around. This is
  // the test TSan runs against the lock-free fast path (see check.sh).
  SpscRing<uint64_t> ring(8);
  constexpr uint64_t kCount = 200000;
  std::thread consumer([&] {
    for (uint64_t expected = 0; expected < kCount; ++expected) {
      auto item = ring.Pop();
      ASSERT_TRUE(item.ok());
      ASSERT_EQ(*item, expected);
    }
    EXPECT_EQ(ring.Pop().status().code(), StatusCode::kClosed);
  });
  for (uint64_t i = 0; i < kCount; ++i) ASSERT_TRUE(ring.Push(i).ok());
  ring.Close();
  consumer.join();
}

// Lost-wakeup harness for the parking rings. A pause of a random kind
// (none, a short spin, a yield, or a sleep long enough for the peer to
// exhaust its spin and yield phases and park) lands the peer in every
// window of the park handshake.
void RandomPause(Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0:
      return;
    case 1: {
      volatile uint64_t sink = 0;
      const uint64_t spins = rng.NextBelow(2000);
      for (uint64_t i = 0; i < spins; ++i) sink = sink + i;
      return;
    }
    case 2:
      std::this_thread::yield();
      return;
    default:
      std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

// Waits for `done`; a side stuck in a park that missed its wake fails the
// test, and Close() (which wakes both sides) then frees it so the test
// still terminates.
template <typename R, typename T>
bool FinishesInTime(std::future<R>& done, SpscRing<T>& ring) {
  if (done.wait_for(std::chrono::seconds(30)) == std::future_status::ready) {
    return true;
  }
  ring.Close();
  return false;
}

// Runs a producer and a consumer of 0..count-1 on their own threads, the
// slow side pausing at random every fourth item, and checks exact FIFO
// delivery. A
// missed wake parks one side for good, and then the other once the ring
// fills or drains, so both are watched.
void RaceProducerAndConsumer(SpscRing<uint64_t>& ring, uint64_t count,
                             bool slow_producer) {
  auto producer = std::async(std::launch::async, [&] {
    Rng rng(7);
    for (uint64_t i = 0; i < count; ++i) {
      if (slow_producer && i % 4 == 0) RandomPause(rng);
      ASSERT_TRUE(ring.Push(i).ok());
    }
  });
  auto consumer = std::async(std::launch::async, [&] {
    Rng rng(11);
    for (uint64_t expected = 0; expected < count; ++expected) {
      if (!slow_producer && expected % 4 == 0) RandomPause(rng);
      auto item = ring.Pop();
      ASSERT_TRUE(item.ok());
      ASSERT_EQ(*item, expected);
    }
  });
  EXPECT_TRUE(FinishesInTime(consumer, ring)) << "a side missed a wakeup";
  EXPECT_TRUE(FinishesInTime(producer, ring)) << "a side missed a wakeup";
  producer.get();
  consumer.get();
}

TEST(SpscRing, ProducerRacesParkingConsumer) {
  // The consumer keeps draining the ring dry and parking; the producer
  // pushes at random moments. Every value arrives exactly once, in order.
  SpscRing<uint64_t> ring(8);
  RaceProducerAndConsumer(ring, 20000, /*slow_producer=*/true);
}

TEST(SpscRing, ParkedProducerOnFullRingWakesOnPop) {
  // A two-slot ring and a slow consumer: the producer keeps finding the
  // ring full and parking until a pop frees a slot.
  SpscRing<uint64_t> ring(2);
  RaceProducerAndConsumer(ring, 20000, /*slow_producer=*/false);
}

TEST(SpscRing, CloseWakesParkedConsumerAndProducer) {
  // Parked for sure: a consumer on an empty ring and a producer on a full
  // one, each left long enough to spend its spin and yield phases.
  SpscRing<int> empty(2);
  SpscRing<int> full(2);
  ASSERT_TRUE(full.TryPush(1).ok());
  ASSERT_TRUE(full.TryPush(2).ok());
  auto consumer = std::async(std::launch::async, [&] {
    EXPECT_EQ(empty.Pop().status().code(), StatusCode::kClosed);
  });
  auto producer = std::async(std::launch::async, [&] {
    EXPECT_EQ(full.Push(3).code(), StatusCode::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  empty.Close();
  full.Close();
  EXPECT_TRUE(FinishesInTime(consumer, empty)) << "Close missed the parked consumer";
  EXPECT_TRUE(FinishesInTime(producer, full)) << "Close missed the parked producer";
  EXPECT_EQ(full.Pop().value(), 1);
  EXPECT_EQ(full.Pop().value(), 2);

  // Racing, as ThreadPool::Shutdown does it: the producer closes after
  // its last push, while the consumer races into its park. The consumer
  // gets exactly the pushed values, in order, then kClosed.
  Rng rng(3);
  for (int round = 0; round < 200; ++round) {
    SpscRing<uint64_t> ring(2);
    const uint64_t count = rng.NextBelow(16);
    auto push_side = std::async(std::launch::async, [&ring, count, round] {
      Rng pauses(static_cast<uint64_t>(round) + 500);
      for (uint64_t i = 0; i < count; ++i) {
        RandomPause(pauses);
        if (!ring.Push(i).ok()) return;
      }
      RandomPause(pauses);
      ring.Close();
    });
    auto pop_side = std::async(std::launch::async, [&ring] {
      for (uint64_t expected = 0;; ++expected) {
        auto item = ring.Pop();
        if (!item.ok()) {
          EXPECT_EQ(item.status().code(), StatusCode::kClosed);
          return expected;
        }
        EXPECT_EQ(*item, expected);
      }
    });
    ASSERT_TRUE(FinishesInTime(pop_side, ring)) << "round " << round;
    ASSERT_TRUE(FinishesInTime(push_side, ring)) << "round " << round;
    push_side.get();
    EXPECT_EQ(pop_side.get(), count) << "round " << round;
  }

  // Racing from a third thread while both sides run and park. Both wake
  // and the consumer gets exactly the accepted values, in order: a push
  // that raced the close was either refused or is drained.
  for (int round = 0; round < 200; ++round) {
    SpscRing<uint64_t> ring(2);
    std::atomic<uint64_t> accepted{0};
    auto push_side = std::async(std::launch::async, [&ring, &accepted, round] {
      Rng pauses(static_cast<uint64_t>(round) + 100);
      for (uint64_t i = 0;; ++i) {
        if (i % 4 == 0) RandomPause(pauses);
        if (!ring.Push(i).ok()) return;
        accepted.store(i + 1, std::memory_order_relaxed);
      }
    });
    auto pop_side = std::async(std::launch::async, [&ring, round] {
      Rng pauses(static_cast<uint64_t>(round) + 900);
      for (uint64_t expected = 0;; ++expected) {
        if (expected % 4 == 0) RandomPause(pauses);
        auto item = ring.Pop();
        if (!item.ok()) {
          EXPECT_EQ(item.status().code(), StatusCode::kClosed);
          return expected;
        }
        EXPECT_EQ(*item, expected);
      }
    });
    RandomPause(rng);
    ring.Close();
    ASSERT_TRUE(FinishesInTime(push_side, ring)) << "round " << round;
    ASSERT_TRUE(FinishesInTime(pop_side, ring)) << "round " << round;
    push_side.get();
    const uint64_t popped = pop_side.get();
    EXPECT_EQ(popped, accepted.load()) << "round " << round;
  }
}

TEST(SpscRing, SizeTracksOccupancy) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  ASSERT_TRUE(ring.Push(1).ok());
  ASSERT_TRUE(ring.Push(2).ok());
  EXPECT_EQ(ring.size(), 2u);
  (void)ring.TryPop();
  EXPECT_EQ(ring.size(), 1u);
}

}  // namespace
}  // namespace sdci
