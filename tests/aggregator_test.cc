#include "monitor/aggregator.h"

#include <gtest/gtest.h>

#include "monitor/consumer.h"
#include "monitor/flow_ledger.h"

namespace sdci::monitor {
namespace {

class AggregatorTest : public ::testing::Test {
 protected:
  AggregatorTest() : authority_(2000.0), profile_(lustre::TestbedProfile::Test()) {}

  AggregatorConfig Config() {
    AggregatorConfig config;
    config.store_capacity = 64;
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

  // Publishes a batch into the aggregator's collect endpoint.
  void Send(msgq::PubSocket& pub, std::vector<FsEvent> events) {
    pub.Publish(msgq::Message("collect.mdt0", EncodeEventBatch(events)));
  }

  void WaitForReceived(Aggregator& aggregator, uint64_t n) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (aggregator.Stats().stored < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  TimeAuthority authority_;
  lustre::TestbedProfile profile_;
  msgq::Context context_;
};

TEST_F(AggregatorTest, AssignsGlobalSequenceAndFansOut) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  EventSubscriber consumer(context_, config.publish_endpoint);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  Send(*pub, {Event(1), Event(2)});
  Send(*pub, {Event(3)});

  for (uint64_t expected_seq = 1; expected_seq <= 3; ++expected_seq) {
    auto event = consumer.NextFor(std::chrono::seconds(5));
    ASSERT_TRUE(event.ok());
    EXPECT_EQ(event->global_seq, expected_seq);
  }
  WaitForReceived(aggregator, 3);
  aggregator.Stop();

  const auto stats = aggregator.Stats();
  EXPECT_EQ(stats.received, 3u);
  EXPECT_EQ(stats.published, 3u);
  EXPECT_EQ(stats.stored, 3u);
  EXPECT_EQ(stats.decode_errors, 0u);
  // Two collector messages in, two published messages out.
  EXPECT_EQ(stats.batches_received, 2u);
  EXPECT_EQ(stats.batches_published, 2u);
}

TEST_F(AggregatorTest, PublishesEachSequencedBatchAsOneMessage) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  // Raw subscribers: see the actual wire messages, not the per-event view.
  auto raw = context_.CreateSub(config.publish_endpoint);
  raw->Subscribe("fsevent.");
  // Types are filtered at EventSubscriber, not by msgq topic: a raw SUB on
  // a per-type prefix gets nothing rather than a partial stream.
  auto raw_creates = context_.CreateSub(config.publish_endpoint);
  raw_creates->Subscribe("fsevent.CREAT");
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  // One collector batch of interleaved types, as create-then-write
  // traffic produces.
  const lustre::ChangeLogType types[] = {
      lustre::ChangeLogType::kCreate, lustre::ChangeLogType::kMtime,
      lustre::ChangeLogType::kUnlink, lustre::ChangeLogType::kCreate,
      lustre::ChangeLogType::kMtime,  lustre::ChangeLogType::kCreate,
      lustre::ChangeLogType::kUnlink, lustre::ChangeLogType::kMtime};
  std::vector<FsEvent> batch;
  for (int i = 1; i <= 8; ++i) {
    FsEvent event = Event(i);
    event.type = types[i - 1];
    batch.push_back(std::move(event));
  }
  Send(*pub, batch);

  // Exactly one message reaches subscribers, carrying every event in
  // global_seq order.
  auto message = raw->ReceiveFor(std::chrono::seconds(5));
  ASSERT_TRUE(message.ok());
  EXPECT_EQ(message->topic, kEventStreamTopic);
  auto events = DecodeEventBatch(message->bytes());
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 8u);
  for (size_t i = 0; i < events->size(); ++i) {
    EXPECT_EQ((*events)[i].global_seq, i + 1);
    EXPECT_EQ((*events)[i].type, types[i]);
  }

  WaitForReceived(aggregator, 8);
  aggregator.Stop();
  EXPECT_FALSE(raw->TryReceive().has_value()) << "expected exactly 1 message";
  EXPECT_FALSE(raw_creates->TryReceive().has_value());

  const auto stats = aggregator.Stats();
  EXPECT_EQ(stats.batches_received, 1u);
  EXPECT_EQ(stats.batches_published, 1u);
  EXPECT_EQ(stats.published, 8u);
  EXPECT_EQ(stats.stored, 8u);
}

TEST_F(AggregatorTest, ZeroEventBatchCountedAsDecodeError) {
  auto config = Config();
  config.expected_decode_errors = 1;  // fed on purpose below
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();
  // Valid encoding of zero events: the wire contract is >= 1, so this is
  // counted with the malformed payloads rather than silently dropped.
  pub->Publish(msgq::Message("collect.mdt0", EncodeEventBatch({})));
  Send(*pub, {Event(1)});
  WaitForReceived(aggregator, 1);
  aggregator.Stop();
  EXPECT_EQ(aggregator.Stats().decode_errors, 1u);
  EXPECT_EQ(aggregator.Stats().batches_received, 1u);
  EXPECT_EQ(aggregator.Stats().stored, 1u);
}

TEST_F(AggregatorTest, TypeTopicsAllowFiltering) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  EventSubscriber creates_only(context_, config.publish_endpoint, "fsevent.CREAT");
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  FsEvent unlink_event = Event(1);
  unlink_event.type = lustre::ChangeLogType::kUnlink;
  Send(*pub, {Event(2), unlink_event, Event(3)});

  auto first = creates_only.NextFor(std::chrono::seconds(5));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, lustre::ChangeLogType::kCreate);
  auto second = creates_only.NextFor(std::chrono::seconds(5));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, lustre::ChangeLogType::kCreate);
  aggregator.Stop();
}

TEST_F(AggregatorTest, SubscriberTypeFilterKeepsOrderAndTimeout) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  EventSubscriber creates(context_, config.publish_endpoint, "fsevent.CREAT");
  // A prefix selects every type whose topic starts with it.
  EventSubscriber c_types(context_, config.publish_endpoint, "fsevent.C");
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();

  const auto typed = [this](int i, lustre::ChangeLogType type) {
    FsEvent event = Event(i);
    event.type = type;
    return event;
  };
  using lustre::ChangeLogType;
  Send(*pub, {typed(1, ChangeLogType::kCreate), typed(2, ChangeLogType::kMtime),
              typed(3, ChangeLogType::kClose), typed(4, ChangeLogType::kUnlink),
              typed(5, ChangeLogType::kCreate), typed(6, ChangeLogType::kCtime)});

  // Batch API: only the matching events of the mixed batch, in order.
  auto batch = creates.NextBatchFor(std::chrono::seconds(5));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_EQ(batch->events()[0].global_seq, 1u);
  EXPECT_EQ(batch->events()[1].global_seq, 5u);
  for (const FsEvent& event : batch->events()) {
    EXPECT_EQ(event.type, ChangeLogType::kCreate);
  }

  // Per-event API over the same stream: CREAT, CLOSE, CREAT, CTIME.
  const std::pair<uint64_t, ChangeLogType> expected[] = {
      {1, ChangeLogType::kCreate},
      {3, ChangeLogType::kClose},
      {5, ChangeLogType::kCreate},
      {6, ChangeLogType::kCtime}};
  for (const auto& [seq, type] : expected) {
    auto event = c_types.NextFor(std::chrono::seconds(5));
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    EXPECT_EQ(event->global_seq, seq);
    EXPECT_EQ(event->type, type);
  }

  // A batch with no matching event is skipped: the call neither returns it
  // nor gives up before its timeout.
  Send(*pub, {typed(7, ChangeLogType::kMtime), typed(8, ChangeLogType::kUnlink)});
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (aggregator.Stats().published < 8 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(aggregator.Stats().published, 8u);
  constexpr auto kWait = std::chrono::milliseconds(100);
  const auto start = std::chrono::steady_clock::now();
  auto none = creates.NextBatchFor(kWait);
  EXPECT_EQ(none.status().code(), StatusCode::kTimedOut);
  EXPECT_GE(std::chrono::steady_clock::now() - start, kWait);

  // Skipped batches ahead of a matching one do not end the wait either.
  Send(*pub, {typed(9, ChangeLogType::kMtime)});
  Send(*pub, {typed(10, ChangeLogType::kCreate)});
  auto next = creates.NextBatchFor(std::chrono::seconds(5));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_EQ(next->size(), 1u);
  EXPECT_EQ(next->events()[0].global_seq, 10u);
  aggregator.Stop();
}

TEST_F(AggregatorTest, MalformedPayloadCountedNotFatal) {
  auto config = Config();
  config.expected_decode_errors = 1;  // fed on purpose below
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();
  pub->Publish(msgq::Message("collect.mdt0", "not an event batch"));
  Send(*pub, {Event(1)});
  WaitForReceived(aggregator, 1);
  aggregator.Stop();
  EXPECT_EQ(aggregator.Stats().decode_errors, 1u);
  EXPECT_EQ(aggregator.Stats().stored, 1u);
}

TEST_F(AggregatorTest, RetiredCodecVersionRejectedBetweenValidBatches) {
  // A collector still speaking the retired field-wise codec (version 3)
  // sends between two v4 batches. Its payload is counted as one decode
  // error; both v4 batches are sequenced densely around it and the flow
  // ledger stays balanced (a rejected message is never sequenced).
  auto config = Config();
  config.expected_decode_errors = 1;  // fed on purpose below
  auto flow = std::make_shared<FlowLedger>();
  config.flow = flow;
  Aggregator aggregator(profile_, authority_, context_, config);
  EventSubscriber consumer(context_, config.publish_endpoint);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();
  Send(*pub, {Event(1), Event(2)});
  // A well-formed v3 batch of one minimal event: u16 version, u32 count,
  // then the 109 fixed bytes of one record with every string empty.
  std::string v3("\x03\x00\x01\x00\x00\x00", 6);
  v3.append(109, '\0');
  pub->Publish(msgq::Message("collect.mdt0", v3));
  Send(*pub, {Event(3)});
  for (uint64_t expected_seq = 1; expected_seq <= 3; ++expected_seq) {
    auto event = consumer.NextFor(std::chrono::seconds(5));
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    EXPECT_EQ(event->global_seq, expected_seq);
    EXPECT_EQ(event->path, "/p/f" + std::to_string(expected_seq));
  }
  WaitForReceived(aggregator, 3);
  aggregator.Stop();
  EXPECT_EQ(aggregator.Stats().decode_errors, 1u);
  EXPECT_EQ(aggregator.Stats().batches_received, 2u);
  EXPECT_EQ(aggregator.Stats().stored, 3u);
  const auto audit = flow->Audit();
  EXPECT_TRUE(audit.balanced);
  for (const FlowLedger::Row& row : audit.rows) {
    EXPECT_EQ(row.imbalance, 0) << row.boundary << "/" << row.instance;
  }
}

TEST_F(AggregatorTest, HistoryApiServesQueries) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  HistoryClient history(context_, config.api_endpoint);
  aggregator.Start();

  std::vector<FsEvent> batch;
  for (int i = 1; i <= 10; ++i) batch.push_back(Event(i));
  Send(*pub, batch);
  WaitForReceived(aggregator, 10);

  auto page = history.Fetch(4, 3);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->last_seq, 10u);
  ASSERT_EQ(page->events.size(), 3u);
  EXPECT_EQ(page->events[0].global_seq, 4u);
  EXPECT_EQ(page->events[0].path, "/p/f4");

  auto range = history.FetchTimeRange(Micros(2), Micros(5), 100);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->events.size(), 3u);  // times 2,3,4 us
  aggregator.Stop();
}

TEST_F(AggregatorTest, HistoryApiReportsRotationGap) {
  auto config = Config();
  config.store_capacity = 4;
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  HistoryClient history(context_, config.api_endpoint);
  aggregator.Start();
  std::vector<FsEvent> batch;
  for (int i = 1; i <= 10; ++i) batch.push_back(Event(i));
  Send(*pub, batch);
  WaitForReceived(aggregator, 10);

  auto page = history.Fetch(1, 100);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->first_available, 7u) << "seqs 1..6 rotated out";
  ASSERT_EQ(page->events.size(), 4u);
  aggregator.Stop();
}

TEST_F(AggregatorTest, PushPullTransport) {
  auto config = Config();
  config.transport = CollectTransport::kPushPull;
  Aggregator aggregator(profile_, authority_, context_, config);
  EventSubscriber consumer(context_, config.publish_endpoint);
  auto push = context_.CreatePush(config.collect_endpoint);
  aggregator.Start();
  ASSERT_TRUE(push->Push(msgq::Message("collect.mdt0",
                                       EncodeEventBatch({Event(1)}))).ok());
  auto event = consumer.NextFor(std::chrono::seconds(5));
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->global_seq, 1u);
  aggregator.Stop();
}

TEST_F(AggregatorTest, StopDrainsInFlightEvents) {
  const auto config = Config();
  Aggregator aggregator(profile_, authority_, context_, config);
  auto pub = context_.CreatePub(config.collect_endpoint);
  aggregator.Start();
  std::vector<FsEvent> batch;
  for (int i = 1; i <= 50; ++i) batch.push_back(Event(i));
  Send(*pub, batch);
  // Stop immediately: the drain logic must still account everything.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  aggregator.Stop();
  EXPECT_EQ(aggregator.Stats().stored, 50u);
  EXPECT_EQ(aggregator.Stats().published, 50u);
}

}  // namespace
}  // namespace sdci::monitor
