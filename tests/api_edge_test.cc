// Edge cases on the service surfaces: malformed API requests, missing
// services, and shutdown while peers are blocked.
#include <gtest/gtest.h>

#include <thread>

#include "monitor/aggregator.h"
#include "monitor/consumer.h"

namespace sdci::monitor {
namespace {

TEST(ApiEdge, MalformedQueryGetsErrorEnvelope) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  msgq::Context context;
  AggregatorConfig config;
  Aggregator aggregator(profile, authority, context, config);
  aggregator.Start();

  auto req = context.CreateReq(config.api_endpoint);
  auto reply = req->RequestReply(msgq::Message("api.query", "{{{not json"),
                                 std::chrono::seconds(5));
  ASSERT_TRUE(reply.ok());
  auto parsed = json::Parse(reply->bytes());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Has("error"));
  aggregator.Stop();
}

// The stats op answers with the shard's fleet position and catalog head,
// on the same socket as history pages.
TEST(ApiEdge, StatsOpRepliesWithFleetPositionAndLastSeq) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  msgq::Context context;
  AggregatorConfig config;
  config.shard_index = 1;
  config.shard_count = 3;
  Aggregator aggregator(profile, authority, context, config);
  aggregator.Start();
  auto pub = context.CreatePub(config.collect_endpoint);
  std::vector<FsEvent> batch(4);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].record_index = i + 1;
    batch[i].path = "/s" + std::to_string(i);
  }
  pub->Publish(msgq::Message("collect.mdt0", EncodeEventBatch(batch)));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (aggregator.Stats().stored < batch.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(aggregator.Stats().stored, batch.size());

  auto req = context.CreateReq(config.api_endpoint);
  auto reply = req->RequestReply(msgq::Message("api.query", R"({"op":"stats"})"),
                                 std::chrono::seconds(5));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->topic, "api.stats");
  auto parsed = json::Parse(reply->bytes());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, *json::Parse(R"({"shard":1,"shards":3,"last_seq":4})"));
  aggregator.Stop();
}

// Page arguments are JSON numbers: a negative max or from_seq gets the
// error envelope (a negative max once wrapped to a huge size_t and
// returned the whole catalog), and out-of-range values saturate instead
// of hitting an undefined double-to-integer cast.
TEST(ApiEdge, RejectsMalformedPageArguments) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  msgq::Context context;
  AggregatorConfig config;
  Aggregator aggregator(profile, authority, context, config);
  aggregator.Start();
  auto pub = context.CreatePub(config.collect_endpoint);
  constexpr int kEvents = 40;
  std::vector<FsEvent> batch;
  for (int i = 1; i <= kEvents; ++i) {
    FsEvent event;
    event.record_index = static_cast<uint64_t>(i);
    event.type = lustre::ChangeLogType::kCreate;
    event.time = Millis(i);
    event.path = "/m" + std::to_string(i);
    batch.push_back(std::move(event));
  }
  pub->Publish(msgq::Message("collect.mdt0", EncodeEventBatch(batch)));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (aggregator.Stats().stored < kEvents && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(aggregator.Stats().stored, static_cast<uint64_t>(kEvents));

  auto req = context.CreateReq(config.api_endpoint);
  const auto ask = [&](const std::string& query) {
    auto reply = req->RequestReply(msgq::Message("api.query", query), std::chrono::seconds(5));
    EXPECT_TRUE(reply.ok()) << query;
    auto parsed = json::Parse(reply.ok() ? reply->bytes() : "null");
    EXPECT_TRUE(parsed.ok()) << query;
    return parsed.ok() ? *parsed : json::Value();
  };
  const auto events_in = [](const json::Value& reply) -> int64_t {
    return reply["events"].is_array() ? static_cast<int64_t>(reply["events"].AsArray().size())
                                      : -1;
  };

  EXPECT_EQ(events_in(ask(R"({"from_seq":1,"max":10})")), 10);
  for (const char* bad : {R"({"from_seq":1,"max":-1})", R"({"from_seq":-5})",
                          R"({"max":-1e300})", R"({"from_seq":-1e300,"max":10})",
                          R"({"from_time_ns":0,"max":-1})"}) {
    const json::Value reply = ask(bad);
    EXPECT_TRUE(reply.Has("error")) << bad;
    EXPECT_EQ(events_in(reply), -1) << bad;
  }
  // Saturated, not undefined: a huge max is "everything retained", a
  // huge from_seq is past the end.
  EXPECT_EQ(events_in(ask(R"({"from_seq":1,"max":1e300})")), kEvents);
  const json::Value past = ask(R"({"from_seq":1e300,"max":10})");
  EXPECT_FALSE(past.Has("error"));
  EXPECT_EQ(events_in(past), 0);
  aggregator.Stop();
}

TEST(ApiEdge, HistoryClientWithoutAggregatorIsUnavailable) {
  msgq::Context context;
  HistoryClient history(context, "inproc://nobody.home");
  const auto page = history.Fetch(1, 10, std::chrono::milliseconds(50));
  EXPECT_EQ(page.status().code(), StatusCode::kUnavailable);
}

TEST(ApiEdge, HistoryClientSurfacesServerErrors) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  msgq::Context context;
  AggregatorConfig config;
  Aggregator aggregator(profile, authority, context, config);
  aggregator.Start();
  // Empty store: valid query, empty result (not an error).
  HistoryClient history(context, config.api_endpoint);
  auto page = history.Fetch(1, 10);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page->events.empty());
  EXPECT_EQ(page->last_seq, 0u);
  aggregator.Stop();
}

TEST(ApiEdge, PullSocketCloseWakesBlockedPusher) {
  msgq::Context context;
  auto push = context.CreatePush("inproc://pp");
  auto pull = context.CreatePull("inproc://pp", /*hwm=*/1);
  ASSERT_TRUE(push->Push(msgq::Message("t", "fill")).ok());
  std::atomic<bool> returned{false};
  std::thread pusher([&] {
    // Blocks: the only puller is full.
    (void)push->Push(msgq::Message("t", "blocked"));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(returned.load());
  pull->Close();
  pusher.join();
  EXPECT_TRUE(returned.load());
}

TEST(ApiEdge, SubscriberCloseWakesBlockedPublisher) {
  msgq::Context context;
  auto pub = context.CreatePub("inproc://bp");
  auto sub = context.CreateSub("inproc://bp", /*hwm=*/1, msgq::HwmPolicy::kBlock);
  sub->Subscribe("");
  pub->Publish(msgq::Message("t", "fill"));
  std::atomic<bool> returned{false};
  std::thread publisher([&] {
    pub->Publish(msgq::Message("t", "blocked"));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(returned.load());
  sub->Close();
  publisher.join();
  EXPECT_TRUE(returned.load());
}

TEST(ApiEdge, RequestReplyIsSingleShot) {
  msgq::Context context;
  auto rep = context.CreateRep("inproc://once");
  auto req = context.CreateReq("inproc://once");
  std::thread server([&] {
    auto request = rep->Receive();
    ASSERT_TRUE(request.ok());
    request->Reply(msgq::Message("r", "first"));
    request->Reply(msgq::Message("r", "second"));  // silently ignored
  });
  auto reply = req->RequestReply(msgq::Message("q", "x"), std::chrono::seconds(5));
  server.join();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->bytes(), "first");
}

TEST(ApiEdge, TimeRangeQueryOverApi) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  msgq::Context context;
  AggregatorConfig config;
  Aggregator aggregator(profile, authority, context, config);
  aggregator.Start();
  auto pub = context.CreatePub(config.collect_endpoint);
  std::vector<FsEvent> batch;
  for (int i = 1; i <= 6; ++i) {
    FsEvent event;
    event.record_index = static_cast<uint64_t>(i);
    event.type = lustre::ChangeLogType::kCreate;
    event.time = Millis(i * 10);
    event.path = "/t" + std::to_string(i);
    batch.push_back(std::move(event));
  }
  pub->Publish(msgq::Message("collect.mdt0", EncodeEventBatch(batch)));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (aggregator.Stats().stored < 6 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  HistoryClient history(context, config.api_endpoint);
  auto page = history.FetchTimeRange(Millis(20), Millis(50), 100);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->events.size(), 3u);  // 20, 30, 40 ms
  aggregator.Stop();
}

}  // namespace
}  // namespace sdci::monitor
