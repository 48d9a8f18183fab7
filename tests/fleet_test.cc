// AggregatorFleet + federation layer: shard routing, the HLC-merged
// federated views, and shard-aware crash recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "monitor/federation.h"
#include "monitor/fleet.h"
#include "ripple/agent.h"
#include "ripple/fleet.h"

namespace sdci::monitor {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  FleetTest() : authority_(2000.0), profile_(lustre::TestbedProfile::Test()) {}

  AggregatorFleetConfig Config(size_t shards) {
    AggregatorFleetConfig config;
    config.shards = shards;
    config.shard.store_capacity = 1u << 16;
    return config;
  }

  FsEvent Event(uint32_t mdt, int i) {
    FsEvent event;
    event.mdt_index = mdt;
    event.record_index = static_cast<uint64_t>(i);
    event.type = lustre::ChangeLogType::kCreate;
    event.time = Micros(i);
    event.path = "/p/m" + std::to_string(mdt) + "/f" + std::to_string(i);
    event.name = "f" + std::to_string(i);
    return event;
  }

  void Send(msgq::PubSocket& pub, uint32_t mdt, std::vector<FsEvent> events) {
    pub.Publish(msgq::Message("collect.mdt" + std::to_string(mdt),
                              EncodeEventBatch(events)));
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

  // Drains `count` events from the federated subscriber, asserting each
  // shard's sub-stream stays contiguous (per-shard sequences are dense;
  // the shard identity rides the HLC origin).
  static void ExpectPerShardContiguous(FleetSubscriber& sub,
                                       std::map<uint32_t, uint64_t>& next_per_shard,
                                       size_t count) {
    size_t got = 0;
    while (got < count) {
      auto batch = sub.NextBatchFor(std::chrono::seconds(5));
      ASSERT_TRUE(batch.ok()) << "after " << got
                              << " events: " << batch.status().ToString();
      for (const FsEvent& event : batch->events()) {
        ASSERT_FALSE(event.hlc.IsZero()) << "fleet events must carry HLC stamps";
        uint64_t& expected = next_per_shard[event.hlc.origin];
        ASSERT_EQ(event.global_seq, expected)
            << "shard " << event.hlc.origin << " stream must stay contiguous";
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

TEST_F(FleetTest, FleetOfOneIsEndpointCompatibleWithSingleAggregator) {
  const auto config = Config(1);
  AggregatorFleet fleet(profile_, authority_, context_, config);
  // No ".0" suffix: existing collectors, subscribers and tools keep their
  // endpoint strings.
  EXPECT_EQ(fleet.collect_endpoint(0), config.shard.collect_endpoint);
  EXPECT_EQ(fleet.publish_endpoint(0), config.shard.publish_endpoint);
  EXPECT_EQ(fleet.api_endpoint(0), config.shard.api_endpoint);
  EXPECT_EQ(fleet.ShardForMdt(0), 0u);
  EXPECT_EQ(fleet.ShardForMdt(17), 0u);
  EXPECT_EQ(fleet.shard(0).config().shard_count, 1u);
  fleet.Start();
  auto pub = context_.CreatePub(fleet.collect_endpoint(0));
  Send(*pub, 0, {Event(0, 1), Event(0, 2)});
  ASSERT_TRUE(WaitFor([&] { return fleet.Stats().published >= 2; }));
  fleet.Stop();
}

TEST_F(FleetTest, RoutesMdtsAcrossShardsAndSumsStats) {
  AggregatorFleet fleet(profile_, authority_, context_, Config(2));
  EXPECT_EQ(fleet.ShardForMdt(0), 0u);
  EXPECT_EQ(fleet.ShardForMdt(1), 1u);
  EXPECT_EQ(fleet.ShardForMdt(2), 0u);
  fleet.Start();
  auto pub0 = context_.CreatePub(fleet.collect_endpoint(0));
  auto pub1 = context_.CreatePub(fleet.collect_endpoint(1));
  // 3 events on mdt0 (shard 0), 2 on mdt1 (shard 1).
  Send(*pub0, 0, {Event(0, 1), Event(0, 2), Event(0, 3)});
  Send(*pub1, 1, {Event(1, 1), Event(1, 2)});
  ASSERT_TRUE(WaitFor([&] { return fleet.Stats().stored >= 5; }));
  EXPECT_EQ(fleet.shard(0).Stats().received, 3u);
  EXPECT_EQ(fleet.shard(1).Stats().received, 2u);
  const auto total = fleet.Stats();
  EXPECT_EQ(total.received, 5u);
  EXPECT_EQ(total.stored, 5u);
  // Per-shard sequences are dense and independent.
  EXPECT_EQ(fleet.shard(0).NextSeq(), 4u);
  EXPECT_EQ(fleet.shard(1).NextSeq(), 3u);
  // Usage reports one labelled component per shard.
  const auto usage = fleet.Usage(Seconds(1));
  ASSERT_EQ(usage.size(), 2u);
  EXPECT_EQ(usage[0].component, "aggregator.0");
  EXPECT_EQ(usage[1].component, "aggregator.1");
  fleet.Stop();
}

TEST_F(FleetTest, FederatedRangeQueryReturnsExactHlcMerge) {
  AggregatorFleet fleet(profile_, authority_, context_, Config(2));
  fleet.Start();
  auto pub0 = context_.CreatePub(fleet.collect_endpoint(0));
  auto pub1 = context_.CreatePub(fleet.collect_endpoint(1));
  // Interleave sends so the two shards' HLC stamps interleave in wall time.
  for (int i = 1; i <= 10; ++i) {
    Send(*pub0, 0, {Event(0, i)});
    Send(*pub1, 1, {Event(1, i)});
  }
  ASSERT_TRUE(WaitFor([&] { return fleet.Stats().stored >= 20; }));

  FleetHistoryClient client(context_, fleet.api_endpoints());
  // Finite upper bound: JSON numbers are doubles, so INT64_MAX would not
  // survive the wire round-trip.
  auto page = client.FetchTimeRange(VirtualTime(0), Micros(1'000'000), 1024);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  ASSERT_EQ(page->events.size(), 20u);
  ASSERT_EQ(page->shard_pages.size(), 2u);

  // Exactness: the merge is precisely the concatenation of the per-shard
  // pages, reordered by HLC — same multiset, totally ordered, each
  // shard's relative order preserved.
  const auto hlc_less = [](const FsEvent& a, const FsEvent& b) { return a.hlc < b.hlc; };
  EXPECT_TRUE(std::is_sorted(page->events.begin(), page->events.end(), hlc_less));
  std::vector<FsEvent> expected;
  for (const auto& shard_page : page->shard_pages) {
    EXPECT_EQ(shard_page.events.size(), 10u);
    expected.insert(expected.end(), shard_page.events.begin(),
                    shard_page.events.end());
  }
  std::sort(expected.begin(), expected.end(), hlc_less);
  ASSERT_EQ(expected.size(), page->events.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(page->events[i].hlc, expected[i].hlc);
    EXPECT_EQ(page->events[i].global_seq, expected[i].global_seq);
    EXPECT_EQ(page->events[i].path, expected[i].path);
  }
  // Per-shard streams embed in the merge in sequence order.
  std::map<uint32_t, uint64_t> last_seq;
  for (const FsEvent& event : page->events) {
    ASSERT_FALSE(event.hlc.IsZero());
    uint64_t& last = last_seq[event.hlc.origin];
    EXPECT_GT(event.global_seq, last);
    last = event.global_seq;
  }
  fleet.Stop();
}

TEST_F(FleetTest, DrainMergedForReturnsFleetWideHlcOrder) {
  AggregatorFleet fleet(profile_, authority_, context_, Config(2));
  fleet.Start();
  FleetSubscriber sub(context_, fleet.publish_endpoints(), fleet.api_endpoints());
  auto pub0 = context_.CreatePub(fleet.collect_endpoint(0));
  auto pub1 = context_.CreatePub(fleet.collect_endpoint(1));
  for (int i = 1; i <= 8; ++i) {
    Send(*pub0, 0, {Event(0, i)});
    Send(*pub1, 1, {Event(1, i)});
  }
  auto merged = sub.DrainMergedFor(std::chrono::seconds(10));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->size(), 16u);
  const auto& events = merged->events();
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const FsEvent& a, const FsEvent& b) { return a.hlc < b.hlc; }));
  // Both shards contributed, and each shard's run is in sequence order.
  std::map<uint32_t, uint64_t> next{{0, 1}, {1, 1}};
  std::map<uint32_t, size_t> per_shard;
  for (const FsEvent& event : events) {
    EXPECT_EQ(event.global_seq, next[event.hlc.origin]++);
    ++per_shard[event.hlc.origin];
  }
  EXPECT_EQ(per_shard[0], 8u);
  EXPECT_EQ(per_shard[1], 8u);
  sub.Close();
  fleet.Stop();
}

// Regression: DrainMergedFor used to check the deadline once per round
// while polling every shard with a full 1 ms slice, so a wide fleet
// overshot a small timeout by up to (shards - 1) slices — and a shard late
// in the rotation was polled with budget that was already spent. Shards
// are now swept without blocking and the one wait is bounded by the
// deadline, so a wide quiet fleet still stops on time.
TEST_F(FleetTest, DrainMergedForRespectsDeadlineAcrossWideRotation) {
  // 32 endpoint-only shards (no aggregators behind them): every poll can
  // only time out, which is exactly the worst case for the rotation.
  std::vector<std::string> pub_endpoints;
  std::vector<std::string> api_endpoints;
  for (int i = 0; i < 32; ++i) {
    pub_endpoints.push_back("inproc://clamp.pub." + std::to_string(i));
    api_endpoints.push_back("inproc://clamp.api." + std::to_string(i));
  }
  FleetSubscriber sub(context_, pub_endpoints, api_endpoints);
  const auto start = std::chrono::steady_clock::now();
  auto drained = sub.DrainMergedFor(std::chrono::milliseconds(2));
  const auto wall = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(drained.ok());
  // One round of 1 ms slices alone would be >= 32ms; the drain must stop
  // within the deadline (margin for scheduling).
  EXPECT_LT(wall, std::chrono::milliseconds(20))
      << "drain overshot its deadline by "
      << std::chrono::duration_cast<std::chrono::milliseconds>(wall).count()
      << "ms";
  // NextBatchFor makes the same promise: its wait is bounded by the
  // remaining budget, and an exhausted budget times out.
  const auto poll_start = std::chrono::steady_clock::now();
  EXPECT_FALSE(sub.NextBatchFor(std::chrono::milliseconds(2)).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - poll_start,
            std::chrono::milliseconds(20));
  sub.Close();
}

// The msgq fault injector's delay mode under federation: one shard's
// publish leg is consistently delivered late, so batches arrive at the
// subscriber interleaved out of wall order across shards. The HLC merge
// must still produce the fleet-wide total order, with both shards'
// sub-streams contiguous and nothing lost.
TEST_F(FleetTest, DelayedShardDeliveryStillMergesInFleetHlcOrder) {
  AggregatorFleet fleet(profile_, authority_, context_, Config(2));
  fleet.Start();
  msgq::FaultConfig faults;
  faults.delay_prob = 1.0;
  faults.delay = std::chrono::milliseconds(3);
  faults.seed = 11;
  context_.InjectFaults(fleet.publish_endpoint(0), faults);

  RecoveringSubscriberConfig sub_config;
  sub_config.start_seq = 1;
  FleetSubscriber sub(context_, fleet.publish_endpoints(), fleet.api_endpoints(),
                      sub_config);
  auto pub0 = context_.CreatePub(fleet.collect_endpoint(0));
  auto pub1 = context_.CreatePub(fleet.collect_endpoint(1));
  for (int i = 1; i <= 20; ++i) {
    Send(*pub0, 0, {Event(0, i)});
    Send(*pub1, 1, {Event(1, i)});
  }
  auto merged = sub.DrainMergedFor(std::chrono::seconds(20),
                                   std::chrono::milliseconds(200));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->size(), 40u);
  const auto& events = merged->events();
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const FsEvent& a, const FsEvent& b) { return a.hlc < b.hlc; }));
  std::map<uint32_t, uint64_t> next{{0, 1}, {1, 1}};
  for (const FsEvent& event : events) {
    EXPECT_EQ(event.global_seq, next[event.hlc.origin]++)
        << "delay must reorder nothing within a shard";
  }
  EXPECT_GT(context_.FaultStatsFor(fleet.publish_endpoint(0)).delayed, 0u)
      << "the injector must actually have delayed deliveries";
  EXPECT_EQ(sub.events_unrecoverable(), 0u);
  context_.ClearFaults(fleet.publish_endpoint(0));
  sub.Close();
  fleet.Stop();
}

// The issue-6 acceptance scenario: a crash takes out BOTH shards with
// dropped publications in flight, and the shard-aware backfill heals each
// shard's exact gap across the restart — a kill-mid-stream gap spanning
// two shards.
TEST_F(FleetTest, TwoShardKillMidStreamBackfillHealsBothShards) {
  auto config = Config(2);
  config.supervised = true;
  config.supervisor.check_interval = Millis(5);
  AggregatorFleet fleet(profile_, authority_, context_, config);
  fleet.Start();
  auto pub0 = context_.CreatePub(fleet.collect_endpoint(0));
  auto pub1 = context_.CreatePub(fleet.collect_endpoint(1));
  RecoveringSubscriberConfig sub_config;
  sub_config.start_seq = 1;
  FleetSubscriber sub(context_, fleet.publish_endpoints(), fleet.api_endpoints(),
                      sub_config);

  // Batch A flows normally through both shards.
  Send(*pub0, 0, {Event(0, 1), Event(0, 2), Event(0, 3)});
  Send(*pub1, 1, {Event(1, 1), Event(1, 2), Event(1, 3)});
  std::map<uint32_t, uint64_t> next{{0, 1}, {1, 1}};
  ExpectPerShardContiguous(sub, next, 6);

  // Batch B is checkpointed on both shards but both publications are eaten
  // by the wire — the deterministic stand-in for "crashed with batches in
  // the publish queue", now spanning two shards.
  msgq::FaultConfig faults;
  faults.drop_prob = 1.0;
  context_.InjectFaults(fleet.publish_endpoint(0), faults);
  context_.InjectFaults(fleet.publish_endpoint(1), faults);
  Send(*pub0, 0, {Event(0, 4), Event(0, 5), Event(0, 6)});
  Send(*pub1, 1, {Event(1, 4), Event(1, 5), Event(1, 6)});
  ASSERT_TRUE(WaitFor([&] {
    return fleet.supervisor(0)->Stats().published >= 6 &&
           fleet.supervisor(1)->Stats().published >= 6;
  }));
  context_.ClearFaults(fleet.publish_endpoint(0));
  context_.ClearFaults(fleet.publish_endpoint(1));

  // Kill both shards. Batch C is handed off while nobody is home; each
  // supervisor's ingest socket holds it for the next incarnation.
  fleet.supervisor(0)->InjectCrash();
  fleet.supervisor(1)->InjectCrash();
  Send(*pub0, 0, {Event(0, 7), Event(0, 8), Event(0, 9)});
  Send(*pub1, 1, {Event(1, 7), Event(1, 8), Event(1, 9)});
  ASSERT_TRUE(WaitFor([&] {
    return fleet.supervisor(0)->restarts() >= 1 && fleet.supervisor(1)->restarts() >= 1;
  }));

  // C arrives live from the new incarnations; each shard's subscriber
  // spots its 4..6 hole and fills it from that shard's WAL-restored
  // store. The federated stream is indistinguishable from one where
  // nothing crashed.
  ExpectPerShardContiguous(sub, next, 12);
  EXPECT_EQ(next[0], 10u);
  EXPECT_EQ(next[1], 10u);
  EXPECT_GE(sub.gaps_detected(), 2u) << "one healed gap per shard";
  EXPECT_EQ(sub.events_backfilled(), 6u) << "exactly the lost range, both shards";
  EXPECT_EQ(sub.events_unrecoverable(), 0u);
  EXPECT_EQ(fleet.supervisor(0)->crashes(), 1u);
  EXPECT_EQ(fleet.supervisor(1)->crashes(), 1u);
  sub.Close();
  fleet.Stop();
}

// Exercised under TSan by scripts/check.sh: federated history queries and
// a federated live drain race ongoing ingest across both shards.
TEST_F(FleetTest, ConcurrentFederatedQueriesDuringIngest) {
  AggregatorFleet fleet(profile_, authority_, context_, Config(2));
  fleet.Start();
  auto pub0 = context_.CreatePub(fleet.collect_endpoint(0));
  auto pub1 = context_.CreatePub(fleet.collect_endpoint(1));
  FleetSubscriber sub(context_, fleet.publish_endpoints(), fleet.api_endpoints());
  std::atomic<bool> stop{false};

  std::thread feeder([&] {
    for (int i = 1; i <= 200 && !stop.load(); ++i) {
      Send(*pub0, 0, {Event(0, i)});
      Send(*pub1, 1, {Event(1, i)});
    }
  });
  std::thread querier([&] {
    FleetHistoryClient client(context_, fleet.api_endpoints());
    while (!stop.load()) {
      auto page = client.FetchTimeRange(VirtualTime(0), Micros(1'000'000), 256);
      if (page.ok()) {
        EXPECT_TRUE(std::is_sorted(
            page->events.begin(), page->events.end(),
            [](const FsEvent& a, const FsEvent& b) { return a.hlc < b.hlc; }));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  uint64_t drained = 0;
  while (drained < 400) {
    auto batch = sub.NextBatchFor(std::chrono::seconds(10));
    ASSERT_TRUE(batch.ok()) << "after " << drained
                            << " events: " << batch.status().ToString();
    drained += batch->size();
  }
  stop.store(true);
  feeder.join();
  querier.join();
  EXPECT_EQ(drained, 400u);
  EXPECT_EQ(sub.events_unrecoverable(), 0u);
  sub.Close();
  fleet.Stop();
}

// Ripple integration: an Agent fed by the federated fleet subscriber sees
// both shards' events through one source, and FleetStatusJson breaks the
// supervised fleet out per shard with a fleet-total rollup.
TEST_F(FleetTest, AgentConsumesFederatedFeedAndStatusBreaksOutShards) {
  auto config = Config(2);
  config.supervised = true;
  AggregatorFleet fleet(profile_, authority_, context_, config);
  fleet.Start();

  lustre::FileSystem fs(lustre::FileSystemConfig::FromProfile(profile_), authority_);
  ripple::CloudService cloud(authority_);
  ripple::EndpointRegistry endpoints;
  ripple::AgentConfig agent_config;
  agent_config.name = "fleet-agent";
  ripple::Agent agent(agent_config, fs, cloud, endpoints, authority_);
  agent.AttachSource(std::make_unique<FleetSubscriber>(
      context_, fleet.publish_endpoints(), fleet.api_endpoints(),
      RecoveringSubscriberConfig{}));
  ASSERT_NE(agent.fleet_source(), nullptr);
  agent.Start();

  auto pub0 = context_.CreatePub(fleet.collect_endpoint(0));
  auto pub1 = context_.CreatePub(fleet.collect_endpoint(1));
  Send(*pub0, 0, {Event(0, 1), Event(0, 2), Event(0, 3)});
  Send(*pub1, 1, {Event(1, 1), Event(1, 2)});
  ASSERT_TRUE(WaitFor([&] { return agent.Stats().events_seen >= 5; }));
  EXPECT_EQ(agent.fleet_source()->received(), 5u);
  ASSERT_TRUE(WaitFor([&] { return fleet.Stats().stored >= 5; }));

  ripple::FleetComponents components;
  components.aggregator_shards = {fleet.supervisor(0), fleet.supervisor(1)};
  const json::Value status = ripple::FleetStatusJson(components);
  EXPECT_EQ(status.GetString("overall"), "up");
  ASSERT_TRUE(status.Has("aggregator_shards"));
  const auto& shards = status["aggregator_shards"].AsArray();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards.at(0).GetInt("shard"), 0);
  EXPECT_EQ(shards.at(0).GetString("verdict"), "up");
  EXPECT_EQ(shards.at(0).GetInt("received"), 3);
  EXPECT_EQ(shards.at(1).GetString("verdict"), "up");
  EXPECT_EQ(shards.at(1).GetInt("received"), 2);
  EXPECT_EQ(status["aggregator"].GetInt("shards"), 2);
  EXPECT_EQ(status["aggregator"].GetInt("received"), 5);
  EXPECT_EQ(status["aggregator"].GetString("verdict"), "up");

  agent.Stop();
  fleet.Stop();
}

}  // namespace
}  // namespace sdci::monitor
