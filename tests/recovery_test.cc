// RecoveringSubscriber: gap detection and history-API backfill, including
// the full kill-mid-stream scenario against a supervised aggregator, and
// the pass-through of received batches (whole when fresh, trimmed to their
// fresh events when partly stale).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "monitor/aggregator.h"
#include "monitor/aggregator_supervisor.h"
#include "monitor/consumer.h"
#include "monitor/wire_v4.h"

namespace sdci::monitor {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : authority_(2000.0), profile_(lustre::TestbedProfile::Test()) {}

  AggregatorConfig Config() {
    AggregatorConfig config;
    config.store_capacity = 1u << 16;
    return config;
  }

  FsEvent Event(int i) {
    FsEvent event;
    event.mdt_index = 0;
    event.record_index = static_cast<uint64_t>(i);
    event.type = lustre::ChangeLogType::kCreate;
    event.time = Micros(i);
    event.path = "/p/f" + std::to_string(i);
    event.name = "f" + std::to_string(i);
    return event;
  }

  void Send(msgq::PubSocket& pub, std::vector<FsEvent> events) {
    pub.Publish(msgq::Message("collect.mdt0", EncodeEventBatch(events)));
  }

  static bool WaitFor(const std::function<bool()>& pred,
                      std::chrono::seconds budget = std::chrono::seconds(10)) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  }

  // Drains `count` events out of the subscriber, asserting they arrive in
  // strictly contiguous sequence order starting at `first_seq`.
  static void ExpectContiguous(RecoveringSubscriber& sub, uint64_t first_seq,
                               size_t count) {
    uint64_t expected = first_seq;
    size_t got = 0;
    while (got < count) {
      auto batch = sub.NextBatchFor(std::chrono::seconds(5));
      ASSERT_TRUE(batch.ok()) << "after " << got << " events: "
                              << batch.status().ToString();
      for (const FsEvent& event : batch->events()) {
        ASSERT_EQ(event.global_seq, expected)
            << "stream must be contiguous and duplicate-free";
        ++expected;
        ++got;
      }
    }
    EXPECT_EQ(got, count);
  }

  TimeAuthority authority_;
  lustre::TestbedProfile profile_;
  msgq::Context context_;
};

TEST_F(RecoveryTest, AdoptsFirstLiveSequenceByDefault) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  // History before the consumer existed...
  Send(*pub, {Event(1), Event(2), Event(3)});
  ASSERT_TRUE(WaitFor([&] { return aggregator.Stats().published >= 3; }));

  // ...is not this consumer's responsibility with start_seq = 0.
  RecoveringSubscriber sub(context_, config.publish_endpoint, config.api_endpoint);
  Send(*pub, {Event(4), Event(5)});
  ExpectContiguous(sub, 4, 2);
  EXPECT_EQ(sub.gaps_detected(), 0u);
  EXPECT_EQ(sub.events_backfilled(), 0u);
  EXPECT_EQ(sub.next_expected(), 6u);
  aggregator.Stop();
}

TEST_F(RecoveryTest, NextBatchForTimesOutOnSilence) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  aggregator.Start();
  RecoveringSubscriber sub(context_, config.publish_endpoint, config.api_endpoint);
  auto batch = sub.NextBatchFor(std::chrono::milliseconds(10));
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kTimedOut);
  aggregator.Stop();
}

TEST_F(RecoveryTest, WireDropGapIsDetectedAndBackfilled) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();
  RecoveringSubscriber sub(context_, config.publish_endpoint, config.api_endpoint);

  // Batch A arrives live.
  Send(*pub, {Event(1), Event(2), Event(3)});
  ExpectContiguous(sub, 1, 3);

  // Batch B is eaten by the wire: the aggregator believes it published
  // (the sender cannot tell), the store still has it.
  msgq::FaultConfig faults;
  faults.drop_prob = 1.0;
  context_.InjectFaults(config.publish_endpoint, faults);
  Send(*pub, {Event(4), Event(5), Event(6)});
  ASSERT_TRUE(WaitFor([&] { return aggregator.Stats().published >= 6; }));
  context_.ClearFaults(config.publish_endpoint);

  // Batch C arrives live; its minimum sequence (7) outruns the watermark
  // (4), proving 4..6 were lost. The subscriber pages them from the
  // history API and delivers them *before* C.
  Send(*pub, {Event(7), Event(8), Event(9)});
  ExpectContiguous(sub, 4, 6);

  EXPECT_EQ(sub.gaps_detected(), 1u);
  EXPECT_EQ(sub.events_backfilled(), 3u) << "exactly the lost range, no more";
  EXPECT_EQ(sub.events_unrecoverable(), 0u);
  EXPECT_EQ(sub.next_expected(), 10u);
  aggregator.Stop();
}

TEST_F(RecoveryTest, StartSeqOneBackfillsPreAttachHistory) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  // Wait for both pipeline legs: `published` guarantees the events went
  // out *before* the subscriber attaches (so they are genuinely missed),
  // `stored` guarantees the history API can serve them.
  Send(*pub, {Event(1), Event(2), Event(3), Event(4), Event(5)});
  ASSERT_TRUE(WaitFor([&] {
    const auto stats = aggregator.Stats();
    return stats.stored >= 5 && stats.published >= 5;
  }));

  // A consumer accountable for the whole stream: its first live message
  // reveals everything it missed.
  RecoveringSubscriberConfig sub_config;
  sub_config.start_seq = 1;
  RecoveringSubscriber sub(context_, config.publish_endpoint, config.api_endpoint,
                           sub_config);
  Send(*pub, {Event(6), Event(7), Event(8)});
  ExpectContiguous(sub, 1, 8);
  EXPECT_EQ(sub.gaps_detected(), 1u);
  EXPECT_EQ(sub.events_backfilled(), 5u);
  aggregator.Stop();
}

TEST_F(RecoveryTest, RotatedOutSequencesAreCountedUnrecoverable) {
  auto config = Config();
  config.store_capacity = 4;  // tiny catalog: old events rotate out
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  std::vector<FsEvent> batch;
  for (int i = 1; i <= 10; ++i) batch.push_back(Event(i));
  Send(*pub, batch);
  // Both legs must complete pre-attach: published so the events are
  // genuinely missed, stored so rotation has already evicted 1..6.
  ASSERT_TRUE(WaitFor([&] {
    const auto stats = aggregator.Stats();
    return stats.stored >= 10 && stats.published >= 10;
  }));

  RecoveringSubscriberConfig sub_config;
  sub_config.start_seq = 1;
  RecoveringSubscriber sub(context_, config.publish_endpoint, config.api_endpoint,
                           sub_config);
  Send(*pub, {Event(11)});

  // 1..6 rotated out of the history window (and possibly 7 too: storing
  // the live event itself may rotate the window one further before the
  // backfill fetch lands); the survivors backfill, then 11 arrives live.
  std::vector<uint64_t> seqs;
  while (seqs.empty() || seqs.back() < 11) {
    auto delivered = sub.NextBatchFor(std::chrono::seconds(5));
    ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
    for (const FsEvent& event : delivered->events()) {
      seqs.push_back(event.global_seq);
    }
  }
  EXPECT_GE(seqs.front(), 7u);
  EXPECT_LE(seqs.front(), 8u);
  for (size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], seqs[i - 1] + 1) << "delivery must stay contiguous";
  }
  EXPECT_EQ(seqs.back(), 11u);
  EXPECT_EQ(sub.gaps_detected(), 1u);
  EXPECT_EQ(sub.events_backfilled() + sub.events_unrecoverable(), 10u)
      << "every missing sequence is accounted for, recovered or reported";
  EXPECT_GE(sub.events_unrecoverable(), 6u)
      << "losses beyond the retention window are reported, not hidden";
  EXPECT_EQ(sub.next_expected(), 12u);
  aggregator.Stop();
}

// The acceptance scenario: kill the aggregator mid-stream and prove the
// subscriber heals the exact lost range across the restart.
class RecoveryKillMidStreamTest : public RecoveryTest {
 protected:
  // The full kill-mid-stream scenario, parameterized by aggregator config
  // so the serial loop and the parallel ingest path face the same script.
  void RunKillMidStream(const AggregatorConfig& config);
};

void RecoveryKillMidStreamTest::RunKillMidStream(const AggregatorConfig& config) {
  AggregatorSupervisorConfig sup_config;
  sup_config.check_interval = Millis(5);
  AggregatorSupervisor supervisor(profile_, authority_, context_, config, sup_config);
  supervisor.Start();
  auto pub = context_.CreatePub(config.collect_endpoint);
  RecoveringSubscriberConfig sub_config;
  sub_config.start_seq = 1;
  RecoveringSubscriber sub(context_, config.publish_endpoint, config.api_endpoint,
                           sub_config);

  // Batch A flows normally.
  Send(*pub, {Event(1), Event(2), Event(3)});
  ExpectContiguous(sub, 1, 3);

  // Batch B is checkpointed but its publication is eaten by the wire —
  // the deterministic stand-in for "crashed with batches in the publish
  // queue" (same observable outcome, no timing race).
  msgq::FaultConfig faults;
  faults.drop_prob = 1.0;
  context_.InjectFaults(config.publish_endpoint, faults);
  Send(*pub, {Event(4), Event(5), Event(6)});
  ASSERT_TRUE(WaitFor([&] { return supervisor.Stats().published >= 6; }));
  context_.ClearFaults(config.publish_endpoint);

  // Kill it. Batch C is handed off while nobody is home; the supervisor's
  // ingest socket holds it for the next incarnation.
  supervisor.InjectCrash();
  Send(*pub, {Event(7), Event(8), Event(9)});
  ASSERT_TRUE(WaitFor([&] { return supervisor.restarts() >= 1; }));

  // C arrives live from the new incarnation; the subscriber spots the
  // 4..6 hole and fills it from the WAL-restored store. The stream the
  // consumer sees is indistinguishable from one where nothing crashed.
  ExpectContiguous(sub, 4, 6);
  EXPECT_GE(sub.gaps_detected(), 1u);
  EXPECT_EQ(sub.events_backfilled(), 3u) << "exactly the lost range";
  EXPECT_EQ(sub.events_unrecoverable(), 0u);
  EXPECT_EQ(supervisor.crashes(), 1u);
  supervisor.Stop();
}

TEST_F(RecoveryKillMidStreamTest, KillMidStreamBackfillsExactRangeAcrossRestart) {
  RunKillMidStream(Config());
}

// The same crash/backfill contract with the parallel hot path switched
// on: decode pool and group-commit WAL must not change a
// single observable byte of the recovery story.
TEST_F(RecoveryKillMidStreamTest, KillMidStreamHoldsWithParallelIngest) {
  auto config = Config();
  config.ingest_workers = 4;
  config.wal_group_max = 8;
  RunKillMidStream(config);
}

// A sequenced batch as the aggregator publishes it, carrying `seqs` in
// order. No history API answers these tests' subscribers: no delivery
// below leaves a gap.
std::shared_ptr<const std::string> SequencedPayload(const std::vector<uint64_t>& seqs) {
  std::vector<FsEvent> events;
  for (const uint64_t seq : seqs) {
    FsEvent event;
    event.record_index = seq;
    event.global_seq = seq;
    event.type = lustre::ChangeLogType::kCreate;
    event.time = Micros(static_cast<int64_t>(seq));
    event.path = "/p/f" + std::to_string(seq);
    event.name = "f" + std::to_string(seq);
    events.push_back(std::move(event));
  }
  return std::make_shared<const std::string>(EncodeEventBatch(events));
}

TEST(RecoveringPassThrough, WhollyFreshBatchIsDeliveredWithTheMessagePayload) {
  // A live batch with no stale event is handed on as received: the
  // consumer reads the message's own bytes, not a rebuilt copy.
  msgq::Context context;
  auto pub = context.CreatePub("inproc://pass.pub");
  RecoveringSubscriber sub(context, "inproc://pass.pub", "inproc://pass.api");
  for (const std::vector<uint64_t>& seqs :
       {std::vector<uint64_t>{1, 2, 3}, std::vector<uint64_t>{4, 5}}) {
    const auto payload = SequencedPayload(seqs);
    ASSERT_EQ(pub->Publish(msgq::Message(std::string(kEventStreamTopic), payload)), 1u);
    auto batch = sub.NextBatchFor(std::chrono::seconds(5));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->payload().get(), payload.get()) << "re-encoded instead of passed through";
    ASSERT_EQ(batch->size(), seqs.size());
    for (size_t i = 0; i < seqs.size(); ++i) {
      EXPECT_EQ(batch->view().global_seq(i), seqs[i]);
    }
  }
  EXPECT_EQ(sub.next_expected(), 6u);
  EXPECT_EQ(sub.gaps_detected(), 0u);
}

TEST(RecoveringPassThrough, PartlyStaleDeliveryYieldsExactlyTheFreshEventsInOrder) {
  // 1, 2 and an out-of-order 4 arrive first. The next delivery repeats 2
  // (behind the watermark) and 4 (already delivered ahead of it) around
  // the fresh 3, 5 and 6: those three, and only those, come out, in
  // order, as one well-formed batch. A wholly stale repeat yields nothing.
  msgq::Context context;
  auto pub = context.CreatePub("inproc://stale.pub");
  RecoveringSubscriber sub(context, "inproc://stale.pub", "inproc://stale.api");
  const auto publish = [&](const std::vector<uint64_t>& seqs) {
    const auto payload = SequencedPayload(seqs);
    EXPECT_EQ(pub->Publish(msgq::Message(std::string(kEventStreamTopic), payload)), 1u);
    return payload;
  };
  publish({1, 2, 4});
  auto first = sub.NextBatchFor(std::chrono::seconds(5));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->size(), 3u);
  EXPECT_EQ(sub.next_expected(), 3u);

  const auto repeated = publish({2, 3, 4, 5, 6});
  auto batch = sub.NextBatchFor(std::chrono::seconds(5));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_NE(batch->payload().get(), repeated.get());
  auto view = wire::EventBatchView::Bind(*batch->payload());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const std::vector<uint64_t> want = {3, 5, 6};
  ASSERT_EQ(view->size(), want.size());
  ASSERT_EQ(batch->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(view->global_seq(i), want[i]);
    EXPECT_EQ((*view)[i].path(), "/p/f" + std::to_string(want[i]));
    EXPECT_EQ((*view)[i].time(), Micros(static_cast<int64_t>(want[i])));
  }
  EXPECT_EQ(sub.next_expected(), 7u);

  publish({5, 6});
  EXPECT_EQ(sub.NextBatchFor(std::chrono::nanoseconds(0)).status().code(),
            StatusCode::kTimedOut);
  EXPECT_EQ(sub.received(), 6u);
  EXPECT_EQ(sub.gaps_detected(), 0u);
}

}  // namespace
}  // namespace sdci::monitor
