// Odds and ends: logger levels, subscriber batch ordering, monitor status
// document.
#include <gtest/gtest.h>

#include "common/log.h"
#include "monitor/consumer.h"
#include "monitor/monitor.h"
#include "ripple/fleet.h"

namespace sdci {
namespace {

TEST(Log, LevelGateIsRespected) {
  const auto saved = log::MinLevel();
  log::SetMinLevel(log::Level::kError);
  EXPECT_EQ(log::MinLevel(), log::Level::kError);
  // These must be cheap no-ops (cannot assert output; assert no crash and
  // that level comparisons behave).
  log::Debug("test", "dropped {}", 1);
  log::Info("test", "dropped {}", 2);
  log::Warn("test", "dropped {}", 3);
  log::SetMinLevel(log::Level::kOff);
  log::Error("test", "dropped {}", 4);
  log::SetMinLevel(saved);
}

TEST(EventSubscriber, MultiEventMessagePreservesOrder) {
  msgq::Context context;
  auto pub = context.CreatePub("inproc://batched");
  monitor::EventSubscriber subscriber(context, "inproc://batched");
  std::vector<monitor::FsEvent> batch(5);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].global_seq = i + 1;
    batch[i].type = lustre::ChangeLogType::kCreate;
    batch[i].path = "/f" + std::to_string(i + 1);
  }
  pub->Publish(msgq::Message("fsevent.CREAT", monitor::EncodeEventBatch(batch)));
  for (uint64_t expected = 1; expected <= 5; ++expected) {
    auto event = subscriber.NextFor(std::chrono::seconds(1));
    ASSERT_TRUE(event.ok());
    EXPECT_EQ(event->global_seq, expected);
  }
  EXPECT_EQ(subscriber.received(), 5u);
}

TEST(MonitorStatus, JsonDocumentIsComplete) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  lustre::FileSystem fs(lustre::FileSystemConfig::FromProfile(profile), authority);
  msgq::Context context;
  monitor::MonitorConfig config;
  config.collector.poll_interval = Millis(1);
  monitor::Monitor mon(fs, profile, authority, context, config);
  mon.Start();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fs.Create("/s" + std::to_string(i)).ok());
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (mon.Stats().aggregator.published < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  mon.Stop();

  ripple::FleetComponents components;
  components.collectors = mon.collectors();
  components.aggregators = &mon.fleet();
  const json::Value status = ripple::FleetStatusJson(components);
  ASSERT_TRUE(status.is_object());
  const json::Value& collectors = status["collectors"]["mdts"];
  ASSERT_TRUE(collectors.is_array());
  EXPECT_EQ(collectors.AsArray().size(), fs.MdsCount());
  EXPECT_EQ(collectors.AsArray()[0].GetInt("extracted"), 5);
  EXPECT_FALSE(collectors.AsArray()[0].GetString("detection_latency").empty());
  EXPECT_EQ(status["aggregator"].GetInt("published"), 5);
  ASSERT_EQ(status["aggregator_shards"].AsArray().size(), 1u);
  EXPECT_FALSE(
      status["aggregator_shards"].AsArray()[0].GetString("delivery_latency").empty());
  // The document survives a serialization round trip.
  auto reparsed = json::Parse(status.Dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*reparsed, status);
}

}  // namespace
}  // namespace sdci
