// Integration tests of the full monitor: N MDS -> N Collectors ->
// Aggregator -> consumers, including the fault-tolerance path (consumer
// crash + historic recovery) and property-style ordering checks.
#include "monitor/monitor.h"

#include <gtest/gtest.h>

#include <map>

#include "common/metrics.h"
#include "common/rng.h"
#include "monitor/consumer.h"
#include "monitor/federation.h"
#include "monitor/flow_ledger.h"
#include "ripple/fleet.h"

namespace sdci::monitor {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : authority_(2000.0), profile_(lustre::TestbedProfile::Test()) {}

  std::unique_ptr<lustre::FileSystem> MakeFs(uint32_t mds_count) {
    auto config = lustre::FileSystemConfig::FromProfile(profile_);
    config.mds_count = mds_count;
    config.dir_placement = lustre::DirPlacement::kRoundRobin;
    return std::make_unique<lustre::FileSystem>(config, authority_);
  }

  MonitorConfig Config() {
    MonitorConfig config;
    config.collector.poll_interval = Millis(1);
    return config;
  }

  void WaitUntilDrained(lustre::FileSystem& fs, Monitor& monitor) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      uint64_t appended = 0;
      for (size_t m = 0; m < fs.MdsCount(); ++m) {
        appended += fs.Mds(m).changelog().TotalAppended();
      }
      // Both downstream threads: the publish thread can finish a batch
      // before the store thread has appended it for the history API.
      const auto stats = monitor.Stats().aggregator;
      if (stats.published == appended && stats.stored == appended) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    FAIL() << "monitor did not drain in time";
  }

  TimeAuthority authority_;
  lustre::TestbedProfile profile_;
  msgq::Context context_;
};

TEST_F(MonitorTest, DeliversEveryEventAcrossMds) {
  auto fs = MakeFs(3);
  const auto config = Config();
  Monitor monitor(*fs, profile_, authority_, context_, config);
  EventSubscriber consumer(context_, config.aggregator.publish_endpoint, "fsevent.",
                           1u << 16, msgq::HwmPolicy::kBlock);
  monitor.Start();

  Rng rng(99);
  std::vector<std::string> files;
  size_t expected = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fs->Mkdir("/d" + std::to_string(i)).ok());
    ++expected;
    for (int j = 0; j < 5; ++j) {
      const std::string path = "/d" + std::to_string(i) + "/f" + std::to_string(j);
      ASSERT_TRUE(fs->Create(path).ok());
      files.push_back(path);
      ++expected;
    }
  }
  for (const auto& path : files) {
    if (rng.NextBool(0.5)) {
      ASSERT_TRUE(fs->WriteFile(path, 1024).ok());
      ++expected;
    }
  }

  WaitUntilDrained(*fs, monitor);
  monitor.Stop();

  // Consumer got exactly one copy of each event.
  std::map<std::pair<int, uint64_t>, int> copies;
  size_t received = 0;
  while (auto event = consumer.TryNext()) {
    ++received;
    ++copies[{event->mdt_index, event->record_index}];
  }
  EXPECT_EQ(received, expected);
  for (const auto& [key, count] : copies) {
    EXPECT_EQ(count, 1) << "mdt " << key.first << " record " << key.second;
  }

  // All 3 MDS actually produced events (DNE round-robin).
  const auto stats = monitor.Stats();
  for (size_t m = 0; m < 3; ++m) {
    EXPECT_GT(stats.collectors[m].extracted, 0u) << m;
  }
  EXPECT_EQ(stats.total_extracted, expected);
  EXPECT_EQ(stats.aggregator.received, expected);
}

TEST_F(MonitorTest, PerMdsOrderIsPreserved) {
  auto fs = MakeFs(2);
  const auto config = Config();
  Monitor monitor(*fs, profile_, authority_, context_, config);
  EventSubscriber consumer(context_, config.aggregator.publish_endpoint, "fsevent.",
                           1u << 16, msgq::HwmPolicy::kBlock);
  monitor.Start();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fs->Create("/ordered" + std::to_string(i)).ok());
  }
  WaitUntilDrained(*fs, monitor);
  monitor.Stop();

  std::map<int, uint64_t> last_index;
  std::map<int, uint64_t> last_seq;
  while (auto event = consumer.TryNext()) {
    auto& prev = last_index[event->mdt_index];
    EXPECT_GT(event->record_index, prev)
        << "per-MDS changelog order must survive the pipeline";
    prev = event->record_index;
    auto& seq = last_seq[event->mdt_index];
    EXPECT_GT(event->global_seq, seq);
    seq = event->global_seq;
  }
}

TEST_F(MonitorTest, CrashedConsumerRecoversViaHistoryApi) {
  auto fs = MakeFs(1);
  auto config = Config();
  config.aggregator.store_capacity = 10000;
  Monitor monitor(*fs, profile_, authority_, context_, config);
  monitor.Start();

  // Phase 1: consumer alive for the first 10 events.
  auto consumer = std::make_unique<EventSubscriber>(
      context_, config.aggregator.publish_endpoint, "fsevent.", 1u << 16,
      msgq::HwmPolicy::kBlock);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs->Create("/pre" + std::to_string(i)).ok());
  }
  WaitUntilDrained(*fs, monitor);
  uint64_t last_seen_seq = 0;
  while (auto event = consumer->TryNext()) last_seen_seq = event->global_seq;
  EXPECT_EQ(last_seen_seq, 10u);

  // Phase 2: consumer crashes; events keep flowing.
  consumer.reset();
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(fs->Create("/during" + std::to_string(i)).ok());
  }
  WaitUntilDrained(*fs, monitor);

  // Phase 3: consumer restarts, resubscribes, then backfills the gap from
  // the historic-events API.
  EventSubscriber revived(context_, config.aggregator.publish_endpoint, "fsevent.",
                          1u << 16, msgq::HwmPolicy::kBlock);
  HistoryClient history(context_, config.aggregator.api_endpoint);
  auto page = history.Fetch(last_seen_seq + 1, 1000);
  ASSERT_TRUE(page.ok());
  EXPECT_LE(page->first_available, last_seen_seq + 1) << "no rotation gap";
  EXPECT_EQ(page->events.size(), 15u);
  EXPECT_EQ(page->events.front().global_seq, 11u);
  EXPECT_EQ(page->events.back().global_seq, 25u);

  // New live events flow to the revived subscriber.
  ASSERT_TRUE(fs->Create("/post").ok());
  auto live = revived.NextFor(std::chrono::seconds(5));
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->path, "/post");
  monitor.Stop();
}

TEST_F(MonitorTest, UsageReportsAllComponents) {
  auto fs = MakeFs(2);
  Monitor monitor(*fs, profile_, authority_, context_, Config());
  monitor.Start();
  ASSERT_TRUE(fs->Create("/u1").ok());
  WaitUntilDrained(*fs, monitor);
  monitor.Stop();
  const auto usage = monitor.Usage(Seconds(1.0));
  ASSERT_EQ(usage.size(), 3u);  // 2 collectors + aggregator
  EXPECT_EQ(usage[0].component, "collector.0");
  EXPECT_EQ(usage[2].component, "aggregator.0");
}

TEST_F(MonitorTest, ShardedFleetRoutesMdtsAndDeliversEverything) {
  auto fs = MakeFs(4);
  auto config = Config();
  config.aggregator_shards = 2;
  Monitor monitor(*fs, profile_, authority_, context_, config);
  ASSERT_EQ(monitor.fleet().shards(), 2u);
  // A federated subscriber across both shards' live feeds.
  FleetSubscriber consumer(context_, monitor.fleet().publish_endpoints(),
                           monitor.fleet().api_endpoints(),
                           RecoveringSubscriberConfig{});
  monitor.Start();

  size_t expected = 0;
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(fs->Mkdir("/s" + std::to_string(i)).ok());
    ++expected;
    ASSERT_TRUE(fs->Create("/s" + std::to_string(i) + "/f").ok());
    ++expected;
  }
  WaitUntilDrained(*fs, monitor);

  // Every event arrives exactly once across the fleet, fleet-wide HLC
  // sorted, and each event's origin matches its MDT's routing shard.
  auto merged = consumer.DrainMergedFor(std::chrono::seconds(10));
  ASSERT_TRUE(merged.ok()) << merged.status().message();
  EXPECT_EQ(merged->events().size(), expected);
  std::map<std::pair<int, uint64_t>, int> copies;
  HlcStamp last{};
  for (const FsEvent& event : merged->events()) {
    EXPECT_LT(last, event.hlc);
    last = event.hlc;
    ++copies[{event.mdt_index, event.record_index}];
    EXPECT_EQ(event.hlc.origin,
              monitor.fleet().ShardForMdt(static_cast<uint32_t>(event.mdt_index)));
  }
  EXPECT_EQ(copies.size(), expected);

  const auto stats = monitor.Stats();
  EXPECT_EQ(stats.aggregator.received, expected);
  ASSERT_EQ(stats.aggregator_shards.size(), 2u);
  EXPECT_GT(stats.aggregator_shards[0].received, 0u);
  EXPECT_GT(stats.aggregator_shards[1].received, 0u);
  EXPECT_EQ(stats.aggregator_shards[0].received + stats.aggregator_shards[1].received,
            expected);

  // Status document breaks the fleet out per shard; usage reports
  // per-shard components.
  ripple::FleetComponents components;
  components.collectors = monitor.collectors();
  components.aggregators = &monitor.fleet();
  const auto status = ripple::FleetStatusJson(components);
  ASSERT_TRUE(status.Has("aggregator_shards"));
  EXPECT_EQ(status["aggregator_shards"].AsArray().size(), 2u);
  const auto usage = monitor.Usage(Seconds(1.0));
  ASSERT_EQ(usage.size(), 6u);  // 4 collectors + 2 shards
  EXPECT_EQ(usage[4].component, "aggregator.0");
  EXPECT_EQ(usage[5].component, "aggregator.1");

  consumer.Close();
  monitor.Stop();
}

// One shard shape: a fleet of one and a fleet of two give the same status
// document, label every aggregator series with its shard, and book the
// ledger under "shard<i>".
TEST_F(MonitorTest, OneAndTwoShardFleetsShareOneShape) {
  for (const size_t shards : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(shards);
    msgq::Context context;
    auto fs = MakeFs(2);
    auto config = Config();
    config.aggregator_shards = shards;
    auto registry = std::make_shared<MetricsRegistry>();
    auto flow = std::make_shared<FlowLedger>();
    config.SetMetrics(registry);
    config.SetFlowLedger(flow);
    Monitor monitor(*fs, profile_, authority_, context, config);
    monitor.Start();
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(fs->Mkdir("/d" + std::to_string(i)).ok());
    WaitUntilDrained(*fs, monitor);
    monitor.Stop();

    ripple::FleetComponents components;
    components.collectors = monitor.collectors();
    components.aggregators = &monitor.fleet();
    const json::Value status = ripple::FleetStatusJson(components);
    const auto& shard_docs = status["aggregator_shards"].AsArray();
    ASSERT_EQ(shard_docs.size(), shards);
    int64_t received = 0;
    for (size_t i = 0; i < shards; ++i) {
      const json::Value& shard = shard_docs.at(i);
      EXPECT_EQ(shard.GetInt("shard"), static_cast<int64_t>(i));
      EXPECT_EQ(shard.GetString("verdict"), "up");
      EXPECT_EQ(shard.GetInt("received"),
                static_cast<int64_t>(monitor.fleet().shard(i).Stats().received));
      EXPECT_EQ(shard.GetInt("store_last_seq"), shard.GetInt("received"));
      EXPECT_FALSE(shard.GetString("delivery_latency").empty());
      received += shard.GetInt("received");
    }
    EXPECT_EQ(received, 4);
    EXPECT_EQ(status["aggregator"].GetInt("shards"), static_cast<int64_t>(shards));
    EXPECT_EQ(status["aggregator"].GetInt("received"), 4);
    EXPECT_EQ(status["collectors"]["mdts"].AsArray().size(), 2u);
    EXPECT_EQ(status.GetString("overall"), "up");

    // Every aggregator series carries its shard label; shard 0's counts
    // are its Stats().
    const json::Value metrics = registry->ToJson();
    const auto& series = metrics["counters"]["sdci_aggregator_received_total"].AsArray();
    ASSERT_EQ(series.size(), shards);
    EXPECT_EQ(series.at(0)["labels"], *json::Parse(R"({"shard":"0"})"));
    EXPECT_EQ(series.at(0).GetInt("value"),
              static_cast<int64_t>(monitor.fleet().shard(0).Stats().received));

    // The ledger books shard i as "shard<i>", balanced at quiesce.
    size_t shard0_rows = 0;
    for (const FlowLedger::Row& row : flow->Audit().rows) {
      EXPECT_NE(row.instance, "aggregator");
      if (row.instance != "shard0") continue;
      ++shard0_rows;
      EXPECT_EQ(row.imbalance, 0) << row.boundary;
    }
    EXPECT_EQ(shard0_rows, 2u) << "store and publish; no WAL without a checkpoint";
  }
}

TEST_F(MonitorTest, StopIsIdempotentAndRestartable) {
  auto fs = MakeFs(1);
  Monitor monitor(*fs, profile_, authority_, context_, Config());
  monitor.Start();
  monitor.Stop();
  monitor.Stop();
  // A stopped monitor leaves records in place for a future instance
  // (nothing was generated after stop, so just assert no crash).
  SUCCEED();
}

}  // namespace
}  // namespace sdci::monitor
