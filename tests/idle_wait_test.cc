// Idle waits park instead of polling: a blocked FleetSubscriber wakes on a
// delivery to any shard, a zero timeout still takes what is queued, and
// parked threads burn no CPU.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "monitor/consumer.h"
#include "monitor/event.h"
#include "monitor/federation.h"
#include "msgq/context.h"

namespace sdci::monitor {
namespace {

std::chrono::nanoseconds ProcessCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::chrono::seconds(ts.tv_sec) + std::chrono::nanoseconds(ts.tv_nsec);
}

// One sequenced event as the aggregator would publish it.
msgq::Message LiveMessage(uint32_t shard, uint64_t seq) {
  FsEvent event;
  event.mdt_index = shard;
  event.record_index = seq;
  event.global_seq = seq;
  event.type = lustre::ChangeLogType::kCreate;
  event.time = Micros(static_cast<int64_t>(seq));
  event.hlc.origin = shard;
  event.path = "/s" + std::to_string(shard) + "/f" + std::to_string(seq);
  event.name = "f" + std::to_string(seq);
  return msgq::Message(std::string(kEventStreamTopic), EncodeEventBatch({event}));
}

// Endpoint-only shards: the test publishes straight onto each shard's
// event stream; no history API answers (nothing here leaves a gap).
struct TwoShards {
  std::vector<std::string> publish = {"inproc://idle.pub.0", "inproc://idle.pub.1"};
  std::vector<std::string> api = {"inproc://idle.api.0", "inproc://idle.api.1"};
};

TEST(RecoveringSubscriberTimeout, ZeroTimeoutTakesAQueuedMessage) {
  // EventSubscriber's contract: a spent deadline still takes a message
  // that is already queued. The recovering subscriber used to return
  // kTimedOut before looking at the socket.
  msgq::Context context;
  auto pub = context.CreatePub("inproc://zero.pub");
  RecoveringSubscriber sub(context, "inproc://zero.pub", "inproc://zero.api");
  EXPECT_EQ(sub.NextBatchFor(std::chrono::nanoseconds(0)).status().code(),
            StatusCode::kTimedOut);
  ASSERT_EQ(pub->Publish(LiveMessage(0, 1)), 1u);
  auto batch = sub.NextBatchFor(std::chrono::nanoseconds(0));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ(batch->events().front().global_seq, 1u);
  EXPECT_EQ(sub.NextBatchFor(std::chrono::nanoseconds(0)).status().code(),
            StatusCode::kTimedOut);
}

TEST(FleetSubscriberWake, DeliveryToEitherShardWakesNextBatchFor) {
  // The consumer asks for the next batch as soon as it has the last one,
  // so it races into its park while the publisher, after a random pause,
  // delivers to one shard or the other. A lost wakeup shows as a call
  // that runs into its (long) timeout.
  msgq::Context context;
  const TwoShards shards;
  std::vector<std::shared_ptr<msgq::PubSocket>> pubs;
  for (const std::string& endpoint : shards.publish) {
    pubs.push_back(context.CreatePub(endpoint));
  }
  FleetSubscriber sub(context, shards.publish, shards.api);
  constexpr int kRounds = 400;
  std::atomic<int> delivered{0};
  auto consumer = std::async(std::launch::async, [&] {
    std::vector<uint64_t> next = {1, 1};
    for (int round = 0; round < kRounds; ++round) {
      const uint32_t shard = static_cast<uint32_t>(round % 2);
      auto batch = sub.NextBatchFor(std::chrono::seconds(20));
      if (!batch.ok()) {
        ADD_FAILURE() << "round " << round << ": " << batch.status().ToString();
        return;
      }
      ASSERT_EQ(batch->size(), 1u);
      const FsEvent event = batch->events().front();
      EXPECT_EQ(event.hlc.origin, shard) << "round " << round;
      EXPECT_EQ(event.global_seq, next[shard]++) << "round " << round;
      delivered.store(round + 1, std::memory_order_release);
    }
  });
  Rng rng(9);
  for (int round = 0; round < kRounds; ++round) {
    switch (rng.NextBelow(3)) {
      case 0:
        break;
      case 1:
        std::this_thread::yield();
        break;
      default:
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    const uint32_t shard = static_cast<uint32_t>(round % 2);
    ASSERT_EQ(pubs[shard]->Publish(LiveMessage(shard, static_cast<uint64_t>(round / 2) + 1)),
              1u);
    // One message in flight at a time: the next delivery races the park
    // that follows this one's receipt.
    const auto wait_until = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (delivered.load(std::memory_order_acquire) <= round &&
           std::chrono::steady_clock::now() < wait_until &&
           consumer.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      std::this_thread::yield();
    }
    ASSERT_GT(delivered.load(std::memory_order_acquire), round)
        << "round " << round << " was never delivered";
  }
  consumer.get();
  sub.Close();
}

TEST(FleetSubscriberWake, CloseWakesABlockedNextBatchFor) {
  msgq::Context context;
  const TwoShards shards;
  FleetSubscriber sub(context, shards.publish, shards.api);
  auto waiter = std::async(std::launch::async, [&] {
    return sub.NextBatchFor(std::chrono::seconds(20)).status().code();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sub.Close();
  ASSERT_EQ(waiter.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "Close did not wake the parked subscriber";
  EXPECT_EQ(waiter.get(), StatusCode::kClosed);
}

TEST(IdleCpu, ParkedPoolAndSubscriberBurnNoCpu) {
  // An idle 4-worker pool and a subscriber blocked on two quiet shards,
  // left alone for 500 ms. Parked threads use no CPU whatever the
  // scheduler does, so this bounds CPU time, not wall time. (A 50 us
  // sleep-poll per pool worker alone costs ~7% of a core per worker.)
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.Submit([&](size_t) { ran.fetch_add(1); }).ok());
  }
  while (ran.load() < 4) std::this_thread::yield();

  msgq::Context context;
  const TwoShards shards;
  FleetSubscriber sub(context, shards.publish, shards.api);
  std::promise<void> blocked;
  auto waiter = std::async(std::launch::async, [&] {
    const auto cpu_before = ThreadCpuNow();
    blocked.set_value();
    const auto status = sub.NextBatchFor(std::chrono::milliseconds(800)).status().code();
    EXPECT_EQ(status, StatusCode::kTimedOut);
    return ThreadCpuNow() - cpu_before;
  });
  blocked.get_future().wait();
  // Let the workers spend their spin and yield phases and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto cpu_before = ProcessCpuNow();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const auto process_cpu = ProcessCpuNow() - cpu_before;
  const auto subscriber_cpu = waiter.get();
  pool.Shutdown();

  const auto ms = [](std::chrono::nanoseconds d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  EXPECT_LT(process_cpu, std::chrono::milliseconds(10))
      << "an idle pool and subscriber burned " << ms(process_cpu) << " ms of CPU in 500 ms";
  EXPECT_LT(subscriber_cpu, std::chrono::milliseconds(10))
      << "the blocked NextBatchFor burned " << ms(subscriber_cpu) << " ms of CPU";
}

}  // namespace
}  // namespace sdci::monitor
