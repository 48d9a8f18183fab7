// Fleet chaos harness: shard outages against the degraded-mode federation
// stack. A shard that is hard-down past its supervisor's restart budget
// must cost the fleet availability of THAT shard's events only: federated
// queries keep answering with correctly-labeled partial pages (circuit
// breakers skip the dead shard), the live feed keeps flowing from the
// healthy shards, collectors spool accepted-but-unreportable events
// instead of stalling, and recovery replays the spool in order — zero
// events lost, zero Ripple actions duplicated.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/slo.h"
#include "lustre/client.h"
#include "monitor/collector.h"
#include "monitor/federation.h"
#include "monitor/fleet.h"
#include "monitor/flow_ledger.h"
#include "monitor/shard_health.h"
#include "monitor/spool.h"
#include "monitor/watermarks.h"
#include "ripple/agent.h"
#include "ripple/cloud.h"
#include "ripple/fleet.h"

namespace sdci {
namespace {

using monitor::CircuitState;
using monitor::ShardFetchVerdict;

bool WaitFor(const std::function<bool()>& pred,
             std::chrono::seconds budget = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// A time-range upper bound beyond any event this test produces, finite so
// it survives the JSON wire (doubles).
constexpr VirtualTime kFarFuture = Micros(1'000'000'000'000);

std::shared_ptr<monitor::ShardHealthTracker> TrackerFor(
    monitor::AggregatorFleet& fleet,
    std::shared_ptr<MetricsRegistry> metrics = nullptr) {
  monitor::ShardHealthConfig config;
  config.failure_threshold = 2;
  config.open_cooldown = std::chrono::milliseconds(10);
  config.metrics = std::move(metrics);
  auto health =
      std::make_shared<monitor::ShardHealthTracker>(fleet.shards(), config);
  for (size_t shard = 0; shard < fleet.shards(); ++shard) {
    monitor::AggregatorSupervisor* sup = fleet.supervisor(shard);
    health->AttachDownSignal(shard, [sup] { return sup->InOutage(); });
  }
  return health;
}

// The acceptance scenario: a 4-shard supervised fleet with real collectors
// (spooling armed) feeding it from a 4-MDT filesystem, a Ripple agent on
// the federated feed, and shard 1 torn out past its restart budget while
// traffic keeps flowing everywhere.
TEST(FleetChaos, SingleShardOutageSpoolsReplaysAndServesLabeledPartials) {
  TimeAuthority authority(2000.0);
  auto profile = lustre::TestbedProfile::Test();
  profile.mds_count = 4;  // one MDT per shard
  auto fs_config = lustre::FileSystemConfig::FromProfile(profile);
  // Round-robin directory placement spreads /hot/d0../d3 across all four
  // MDTs, so every shard carries traffic.
  fs_config.dir_placement = lustre::DirPlacement::kRoundRobin;
  lustre::FileSystem fs(fs_config, authority);
  msgq::Context context;

  // Observability plane shared by every component: one registry, the
  // conservation ledger, the watermark table, and the stock fleet SLO
  // rules (per-shard breaker rules included). The lag budget is 60s of
  // *virtual* time — generous against steady-state cross-shard skew but
  // dwarfed by the outage window, whose staleness grows at wall speed
  // times the 2000x dilation.
  auto registry = std::make_shared<MetricsRegistry>();
  auto flow = std::make_shared<FlowLedger>();
  auto watermarks = std::make_shared<WatermarkRegistry>();
  flow->AttachMetrics(registry);
  watermarks->AttachMetrics(registry);
  FleetSloOptions slo_options;
  slo_options.lag_threshold = std::chrono::seconds(60);
  slo_options.shard_count = 4;
  SloEvaluator slo(registry, DefaultFleetRules(slo_options));
  const auto alert_state = [&](const std::string& name) {
    for (const auto& status : slo.Current()) {
      if (status.name == name) return status.state;
    }
    return AlertState::kOk;
  };

  monitor::AggregatorFleetConfig fleet_config;
  fleet_config.shards = 4;
  fleet_config.shard.store_capacity = 1u << 16;
  fleet_config.shard.metrics = registry;
  fleet_config.shard.flow = flow;
  fleet_config.shard.watermarks = watermarks;
  fleet_config.supervised = true;
  fleet_config.supervisor.check_interval = Millis(5);
  monitor::AggregatorFleet fleet(profile, authority, context, fleet_config);
  fleet.Start();
  ASSERT_EQ(fleet.ShardForMdt(1), 1u) << "mdt i maps to shard i at 4/4";

  // One collector per MDT, routed to the shard that owns it, with a short
  // restart budget so the outage spills to the spool quickly.
  std::vector<std::unique_ptr<monitor::Collector>> collectors;
  for (size_t mdt = 0; mdt < fs.MdsCount(); ++mdt) {
    monitor::CollectorConfig config;
    config.collect_endpoint = monitor::AggregatorFleet::ShardEndpoint(
        config.collect_endpoint, fleet.ShardForMdt(static_cast<uint32_t>(mdt)),
        fleet.shards());
    config.poll_interval = Millis(1);
    config.read_batch = 16;
    config.retry_backoff_min = Millis(2);
    config.retry_backoff_max = Millis(20);
    config.spool_capacity = 1u << 14;
    config.spool_after = Millis(10);
    config.metrics = registry;
    config.flow = flow;
    config.watermarks = watermarks;
    collectors.push_back(std::make_unique<monitor::Collector>(
        fs, static_cast<int>(mdt), profile, authority, context,
        std::move(config)));
  }

  auto health = TrackerFor(fleet, registry);
  monitor::FleetHistoryClient history(context, fleet.api_endpoints(), nullptr,
                                      nullptr, health);

  // Ripple half: agent on the federated feed, one audit rule.
  ripple::CloudConfig cloud_config;
  cloud_config.metrics = registry;
  cloud_config.flow = flow;
  ripple::CloudService cloud(authority, cloud_config);
  cloud.Start();
  ripple::EndpointRegistry endpoints;
  endpoints.Register("site", fs);
  ripple::AgentConfig agent_config;
  agent_config.name = "site";
  agent_config.report_backoff = Millis(1);
  agent_config.metrics = registry;
  agent_config.flow = flow;
  agent_config.watermarks = watermarks;
  ripple::Agent agent(agent_config, fs, cloud, endpoints, authority);
  monitor::RecoveringSubscriberConfig rec_config;
  rec_config.start_seq = 1;
  rec_config.hwm = 1u << 18;
  rec_config.policy = msgq::HwmPolicy::kBlock;
  rec_config.metrics = registry;
  rec_config.flow = flow;
  rec_config.watermarks = watermarks;
  agent.AttachSource(std::make_unique<monitor::FleetSubscriber>(
      context, fleet.publish_endpoints(), fleet.api_endpoints(), rec_config,
      health));
  auto rule = ripple::Rule::Parse(R"({
    "id": "audit",
    "trigger": {"events": ["created"], "path": "/hot/**"},
    "action": {"type": "email", "agent": "site", "params": {"to": "audit@site"}}
  })");
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE(cloud.RegisterRule(*rule).ok());
  agent.Start();
  for (auto& collector : collectors) collector->Start();

  lustre::Client client(fs, profile, authority);
  ASSERT_TRUE(client.MkdirAll("/hot").ok());
  std::vector<std::string> dirs;
  for (int d = 0; d < 4; ++d) {
    dirs.push_back("/hot/d" + std::to_string(d));
    ASSERT_TRUE(client.MkdirAll(dirs.back()).ok());
  }

  // Phase A: healthy fleet, 10 files per directory = 40 matching creates.
  constexpr int kPhaseA = 10;
  for (int i = 0; i < kPhaseA; ++i) {
    for (const auto& dir : dirs) {
      ASSERT_TRUE(client.Create(dir + "/a" + std::to_string(i)).ok());
    }
  }
  client.FlushDelay();
  ASSERT_TRUE(WaitFor([&] { return agent.outbox().Count() >= 40; }));
  EXPECT_EQ(agent.outbox().Count(), 40u);

  // Shard 1 drops off the network, past any restart: its supervisor stops
  // restarting and its ingest socket refuses deliveries.
  constexpr size_t kDownShard = 1;
  fleet.supervisor(kDownShard)->BeginOutage();
  ASSERT_TRUE(WaitFor([&] { return !fleet.supervisor(kDownShard)->IsUp(); }));

  // Phase B: traffic keeps flowing to every MDT during the outage.
  constexpr int kPhaseB = 10;
  for (int i = 0; i < kPhaseB; ++i) {
    for (const auto& dir : dirs) {
      ASSERT_TRUE(client.Create(dir + "/b" + std::to_string(i)).ok());
    }
  }
  client.FlushDelay();

  // The dead shard's collector exhausts its restart budget and spills to
  // the spool — the pipeline (and the ChangeLog purge) is not hostage.
  monitor::Collector& down_collector = *collectors[kDownShard];
  ASSERT_TRUE(
      WaitFor([&] { return down_collector.Stats().events_spooled > 0; }))
      << "collector for the dead shard must spool, not stall";
  EXPECT_EQ(down_collector.Stats().spool_rejects, 0u);

  // The three healthy shards' phase-B actions land; the dead shard's are
  // pending, not lost. One file-bearing directory sits on each MDT, so
  // exactly 3 * kPhaseB arrive during the outage.
  ASSERT_TRUE(WaitFor(
      [&] { return agent.outbox().Count() >= 40 + 3 * kPhaseB; }));
  EXPECT_EQ(agent.outbox().Count(), 40u + 3 * kPhaseB);

  // Federated queries during the outage: a labeled partial page, not an
  // error. The down-signal trips the breaker, so the dead shard is skipped
  // without spending deadline budget on it.
  auto partial = history.FetchTimeRange(VirtualTime(0), kFarFuture, 4096,
                                        std::chrono::seconds(2));
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial->partial);
  ASSERT_EQ(partial->missing_shards.size(), 1u);
  EXPECT_EQ(partial->missing_shards[0], kDownShard);
  ASSERT_EQ(partial->shard_verdicts.size(), 4u);
  EXPECT_EQ(partial->shard_verdicts[kDownShard],
            ShardFetchVerdict::kSkippedOpenCircuit);
  for (size_t shard = 0; shard < 4; ++shard) {
    if (shard == kDownShard) continue;
    EXPECT_EQ(partial->shard_verdicts[shard], ShardFetchVerdict::kOk);
  }
  EXPECT_TRUE(std::is_sorted(
      partial->events.begin(), partial->events.end(),
      [](const monitor::FsEvent& a, const monitor::FsEvent& b) {
        return a.hlc < b.hlc;
      }));
  EXPECT_EQ(health->StateOf(kDownShard), CircuitState::kOpen);

  // The freshness plane sees the outage: the dead shard's watermarks
  // froze at phase A while fresh traffic keeps moving the stream's
  // frontier, so fleet e2e lag grows without bound until the SLO fires —
  // and the breaker rule fires for exactly the dead shard. The tick
  // files sit outside /hot on purpose: they advance watermarks without
  // adding actions to the exactly-once tallies this test asserts on.
  ASSERT_TRUE(client.MkdirAll("/tick").ok());
  int tick = 0;
  ASSERT_TRUE(WaitFor([&] {
    if (!client.Create("/tick/t" + std::to_string(tick++)).ok()) return false;
    client.FlushDelay();
    slo.Evaluate(authority.Now());
    return alert_state("e2e_lag") == AlertState::kFiring &&
           alert_state("degraded_availability.shard1") == AlertState::kFiring;
  })) << "lag " << watermarks->FleetLag().count() << "ns";
  EXPECT_EQ(alert_state("degraded_availability.shard0"), AlertState::kOk);
  EXPECT_EQ(alert_state("flow_conservation"), AlertState::kOk);
  EXPECT_GT(watermarks->InstanceLag("shard1"),
            std::chrono::duration_cast<VirtualDuration>(
                slo_options.lag_threshold));

  // Status document: the shard outage, the breaker, and the firing
  // alerts are all visible in one read.
  ripple::FleetComponents components;
  components.aggregators = &fleet;
  components.shard_health = health.get();
  components.watermarks = watermarks.get();
  components.flow = flow.get();
  components.slo = &slo;
  const json::Value status = ripple::FleetStatusJson(components);
  EXPECT_EQ(status.GetString("overall"), "down");
  EXPECT_TRUE(status["slo"].GetBool("firing"));
  EXPECT_EQ(status["slo"].GetString("verdict"), "degraded");
  bool saw_lag_alert = false;
  for (const json::Value& alert : status["alerts"].AsArray()) {
    if (alert.GetString("name") != "e2e_lag") continue;
    saw_lag_alert = true;
    EXPECT_EQ(alert.GetString("state"), "firing");
    EXPECT_EQ(alert.GetString("severity"), "page");
  }
  EXPECT_TRUE(saw_lag_alert) << "e2e_lag missing from the alerts array";
  // Outage is staleness, not duplication: the conservation plane is clean.
  EXPECT_EQ(status["flow_ledger"].GetInt("total_duplication"), 0);
  EXPECT_TRUE(status.Has("watermarks"));
  const auto& shard_docs = status["aggregator_shards"].AsArray();
  EXPECT_TRUE(shard_docs.at(kDownShard).GetBool("in_outage"));
  EXPECT_EQ(shard_docs.at(kDownShard).GetString("verdict"), "down");
  const auto& health_docs = status["shard_health"].AsArray();
  EXPECT_EQ(health_docs.at(kDownShard).GetString("state"), "open");
  EXPECT_TRUE(health_docs.at(kDownShard).GetBool("down_signal"));
  EXPECT_EQ(health_docs.at(2).GetString("state"), "closed");
  EXPECT_EQ(status["shard_health_total"].GetString("verdict"), "degraded");

  // Recovery: the host comes back, the supervisor restarts the shard at
  // the next health check, the spool replays in order, and the breaker
  // heals through its half-open probe.
  fleet.supervisor(kDownShard)->EndOutage();
  ASSERT_TRUE(WaitFor([&] { return fleet.supervisor(kDownShard)->IsUp(); }));
  ASSERT_TRUE(WaitFor([&] {
    const auto stats = down_collector.Stats();
    return stats.spool_depth == 0 && stats.events_replayed > 0 &&
           stats.events_replayed == stats.events_spooled;
  })) << "spool must replay fully after recovery";

  // Every phase-B action lands exactly once — replay did not duplicate,
  // the outage did not lose.
  ASSERT_TRUE(WaitFor(
      [&] { return agent.outbox().Count() >= 40 + 4 * kPhaseB; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(agent.outbox().Count(), 40u + 4 * kPhaseB);
  EXPECT_EQ(agent.Stats().report_failures, 0u);
  ASSERT_NE(agent.fleet_source(), nullptr);
  EXPECT_EQ(agent.fleet_source()->events_unrecoverable(), 0u);

  // Federated reads are whole again: breaker closed via probe, no partial
  // marker, all four shards in the merge with per-shard order intact.
  monitor::FleetHistoryClient::FederatedPage full;
  ASSERT_TRUE(WaitFor([&] {
    auto page = history.FetchTimeRange(VirtualTime(0), kFarFuture, 4096,
                                       std::chrono::seconds(2));
    if (!page.ok() || page->partial) return false;
    full = std::move(page.value());
    return full.events.size() >= 85;  // 80 creates + the 5 mkdirs
  }));
  EXPECT_EQ(health->StateOf(kDownShard), CircuitState::kClosed);
  EXPECT_TRUE(full.missing_shards.empty());
  EXPECT_TRUE(std::is_sorted(
      full.events.begin(), full.events.end(),
      [](const monitor::FsEvent& a, const monitor::FsEvent& b) {
        return a.hlc < b.hlc;
      }));
  std::map<uint32_t, uint64_t> last_seq;
  std::map<uint32_t, size_t> per_origin;
  for (const monitor::FsEvent& event : full.events) {
    ASSERT_FALSE(event.hlc.IsZero());
    uint64_t& last = last_seq[event.hlc.origin];
    EXPECT_GT(event.global_seq, last) << "per-shard order must survive replay";
    last = event.global_seq;
    ++per_origin[event.hlc.origin];
  }
  EXPECT_EQ(per_origin.size(), 4u) << "all shards back in the merge";
  EXPECT_GT(per_origin[kDownShard], 0u);

  // Recovery clears the alerts: a fresh round of matching creates into
  // every directory flows through ALL stages (the rule-filtered
  // action.execute stage included), pulling every watermark up to the
  // frontier; the healed breaker reads closed. Both rules then see
  // healthy samples and clear.
  int heal = 0;
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& dir : dirs) {
      if (!client.Create(dir + "/heal" + std::to_string(heal)).ok()) {
        return false;
      }
    }
    ++heal;
    client.FlushDelay();
    slo.Evaluate(authority.Now());
    return !slo.AnyFiring();
  })) << "lag " << watermarks->FleetLag().count() << "ns still over budget";
  EXPECT_EQ(alert_state("e2e_lag"), AlertState::kOk);
  EXPECT_EQ(alert_state("degraded_availability.shard1"), AlertState::kOk);
  const json::Value healed = ripple::FleetStatusJson(components);
  EXPECT_FALSE(healed["slo"].GetBool("firing"));
  EXPECT_EQ(healed["slo"].GetString("verdict"), "up");
  for (const json::Value& alert : healed["alerts"].AsArray()) {
    EXPECT_NE(alert.GetString("state"), "firing") << alert.GetString("name");
    if (alert.GetString("name") == "e2e_lag") {
      EXPECT_GE(alert.GetInt("times_fired"), 1);
    }
  }

  agent.Stop();
  cloud.Stop();
  for (auto& collector : collectors) collector->Stop();
  for (auto& collector : collectors) {
    const auto stats = collector->Stats();
    EXPECT_EQ(stats.terminal, monitor::CollectorTerminal::kCleanStop);
    EXPECT_EQ(stats.reports_abandoned, 0u);
  }
  fleet.Stop();

  // Quiesce-time conservation across the WHOLE chaos scenario: an
  // outage, a hard restart, a spool replay, and a breaker cycle later,
  // every (boundary, instance) ledger row still balances exactly — the
  // fleet neither lost nor duplicated a single event anywhere.
  const auto audit = flow->Audit();
  for (const auto& row : audit.rows) {
    EXPECT_EQ(row.imbalance, 0)
        << row.boundary << "/" << row.instance << ": in=" << row.in
        << " out=" << row.out << " held=" << row.held;
  }
  EXPECT_TRUE(audit.balanced);
  EXPECT_EQ(audit.total_duplication, 0);
}

// Exercised under TSan by scripts/check.sh: rolling single-shard outages
// while a feeder, a federated querier, and the federated drain all race
// the breaker state. Each outage window must serve a partial page naming
// exactly the dead shard, and after the last recovery every event the
// fleet accepted is delivered.
TEST(FleetChaos, RollingOutagesServeLabeledPartialsUnderConcurrency) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  msgq::Context context;

  monitor::AggregatorFleetConfig fleet_config;
  fleet_config.shards = 4;
  fleet_config.shard.store_capacity = 1u << 16;
  fleet_config.supervised = true;
  fleet_config.supervisor.check_interval = Millis(5);
  monitor::AggregatorFleet fleet(profile, authority, context, fleet_config);
  fleet.Start();
  auto health = TrackerFor(fleet);

  monitor::RecoveringSubscriberConfig rec_config;
  rec_config.start_seq = 1;
  rec_config.hwm = 1u << 18;
  rec_config.policy = msgq::HwmPolicy::kBlock;
  monitor::FleetSubscriber sub(context, fleet.publish_endpoints(),
                               fleet.api_endpoints(), rec_config, health);

  std::vector<std::shared_ptr<msgq::PubSocket>> pubs;
  for (size_t shard = 0; shard < fleet.shards(); ++shard) {
    pubs.push_back(context.CreatePub(fleet.collect_endpoint(shard)));
  }
  const auto send = [&](size_t shard, int i) {
    monitor::FsEvent event;
    event.mdt_index = static_cast<uint32_t>(shard);
    event.record_index = static_cast<uint64_t>(i);
    event.type = lustre::ChangeLogType::kCreate;
    event.time = Micros(i);
    event.path = "/p/s" + std::to_string(shard) + "/f" + std::to_string(i);
    pubs[shard]->Publish(
        msgq::Message("collect.mdt" + std::to_string(shard),
                      monitor::EncodeEventBatch({event})));
  };

  std::atomic<bool> stop{false};
  // Feeder: keeps every shard's ingest busy. Sends into an outage are
  // refused at the socket (this sender drops them — the collector-side
  // spool is covered by the acceptance test above), so the ground truth
  // to reconcile against is what the fleet accepted and stored.
  std::thread feeder([&] {
    for (int i = 1; i <= 400 && !stop.load(); ++i) {
      for (size_t shard = 0; shard < fleet.shards(); ++shard) send(shard, i);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Querier: federated fetches race the breaker transitions; every page —
  // partial or not — must be HLC-sorted.
  std::thread querier([&] {
    monitor::FleetHistoryClient client(context, fleet.api_endpoints(), nullptr,
                                       nullptr, health);
    while (!stop.load()) {
      auto page = client.FetchTimeRange(VirtualTime(0), kFarFuture, 1024,
                                        std::chrono::milliseconds(250));
      if (page.ok()) {
        EXPECT_TRUE(std::is_sorted(
            page->events.begin(), page->events.end(),
            [](const monitor::FsEvent& a, const monitor::FsEvent& b) {
              return a.hlc < b.hlc;
            }));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // Drainer: the only consumer of the federated feed; its rotation skips
  // open circuits while the breaker churns underneath.
  std::thread drainer([&] {
    while (!stop.load()) {
      (void)sub.NextBatchFor(std::chrono::milliseconds(20));
    }
  });

  // Rolling outages: one shard at a time, each window proven to serve a
  // correctly-labeled partial page before the shard is revived.
  monitor::FleetHistoryClient client(context, fleet.api_endpoints(), nullptr,
                                     nullptr, health);
  for (size_t shard = 0; shard < fleet.shards(); ++shard) {
    fleet.supervisor(shard)->BeginOutage();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto page = client.FetchTimeRange(VirtualTime(0), kFarFuture, 1024,
                                      std::chrono::seconds(2));
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_TRUE(page->partial);
    EXPECT_TRUE(std::find(page->missing_shards.begin(),
                          page->missing_shards.end(),
                          shard) != page->missing_shards.end())
        << "the dead shard must be named in shard " << shard << "'s window";
    fleet.supervisor(shard)->EndOutage();
    ASSERT_TRUE(WaitFor([&] { return fleet.supervisor(shard)->IsUp(); }));
  }
  feeder.join();

  // Reconcile against the cumulative checkpoint count: every accepted
  // event is checkpointed before it becomes visible, and events a crash
  // dropped from the publish/store queues live on ONLY there until the
  // subscriber backfills them. A gap at the tail of a shard's stream is
  // only discovered when the next live message arrives, so send heartbeat
  // bursts (each itself accepted and counted) until the subscriber holds
  // everything, letting each burst settle before checking.
  int heartbeat = 1000;  // record range distinct from the feeder's
  bool reconciled = false;
  const auto reconcile_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!reconciled && std::chrono::steady_clock::now() < reconcile_deadline) {
    ++heartbeat;
    for (size_t shard = 0; shard < fleet.shards(); ++shard) {
      send(shard, heartbeat);
    }
    reconciled = WaitFor(
        [&] {
          const uint64_t accepted = fleet.Stats().checkpointed;
          if (sub.received() != accepted) return false;
          // This burst's sends may not all be checkpointed yet; only call
          // it reconciled once the count holds still across a drain window.
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          return fleet.Stats().checkpointed == accepted &&
                 sub.received() == accepted;
        },
        std::chrono::seconds(2));
  }
  ASSERT_TRUE(reconciled) << "received " << sub.received() << " of "
                          << fleet.Stats().checkpointed;
  stop.store(true);
  querier.join();
  drainer.join();

  EXPECT_GT(fleet.Stats().checkpointed, 0u);
  EXPECT_EQ(sub.received(), fleet.Stats().checkpointed)
      << "every accepted event delivered exactly once";
  EXPECT_EQ(sub.events_unrecoverable(), 0u);
  // Heal the breakers deterministically before asserting on them: the
  // querier's tight 250ms fetches can time out on healthy-but-slow shards
  // (sanitizer builds especially), tripping breakers that then need a
  // successful probe to close. A well-budgeted fetch provides it.
  ASSERT_TRUE(WaitFor([&] {
    auto page = client.FetchTimeRange(VirtualTime(0), kFarFuture, 1024,
                                      std::chrono::seconds(10));
    if (!page.ok()) return false;
    for (size_t shard = 0; shard < fleet.shards(); ++shard) {
      if (health->StateOf(shard) != CircuitState::kClosed) return false;
    }
    return true;
  }));
  for (size_t shard = 0; shard < fleet.shards(); ++shard) {
    EXPECT_GE(health->Snapshot(shard).trips, 1u)
        << "shard " << shard << "'s breaker must have tripped";
    EXPECT_EQ(health->StateOf(shard), CircuitState::kClosed)
        << "shard " << shard << " must heal after its window";
  }
  sub.Close();
  fleet.Stop();
}

// Satellite: exhausting report retries at shutdown is now a DISTINCT
// terminal status with its own counter, and the status document calls the
// deployment degraded — it used to be indistinguishable from a clean stop.
TEST(FleetChaos, AbandonedReportsSurfaceAsDistinctTerminalStatus) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  lustre::FileSystem fs(lustre::FileSystemConfig::FromProfile(profile),
                        authority);
  msgq::Context context;
  lustre::Client client(fs, profile, authority);
  ASSERT_TRUE(client.MkdirAll("/a").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.Create("/a/f" + std::to_string(i)).ok());
  }
  client.FlushDelay();

  // Nobody ever binds the collect endpoint: every hand-off is refused, and
  // Stop() cuts the retry loop with events still in hand.
  monitor::CollectorConfig config;
  config.poll_interval = Millis(1);
  config.retry_backoff_min = Millis(1);
  config.retry_backoff_max = Millis(5);
  monitor::SupervisorConfig sup_config;
  sup_config.check_interval = Millis(10);
  monitor::CollectorSupervisor supervisor(fs, profile, authority, context,
                                          config, sup_config);
  supervisor.Start();
  ASSERT_TRUE(WaitFor([&] {
    const auto stats = supervisor.Stats();
    return !stats.empty() && stats[0].report_retries > 0;
  }));
  supervisor.Stop();

  const auto stats = supervisor.Stats();
  ASSERT_EQ(stats.size(), 2u);  // Test profile: two MDTs
  // MDT 0 holds every file (inherit-parent placement from the mdt-0 root):
  // its collector died holding undelivered events. MDT 1 saw nothing and
  // stopped clean — the distinction Stats() could not draw before.
  EXPECT_EQ(stats[0].terminal, monitor::CollectorTerminal::kReportsAbandoned);
  EXPECT_GT(stats[0].reports_abandoned, 0u);
  EXPECT_EQ(stats[1].terminal, monitor::CollectorTerminal::kCleanStop);
  EXPECT_EQ(stats[1].reports_abandoned, 0u);
  EXPECT_EQ(monitor::CollectorTerminalName(stats[0].terminal),
            "reports-abandoned");

  ripple::FleetComponents components;
  components.collector_supervisor = &supervisor;
  const json::Value status = ripple::FleetStatusJson(components);
  EXPECT_EQ(status["collectors"].GetString("verdict"), "degraded");
  EXPECT_GT(status["collectors"].GetInt("reports_abandoned"), 0);
  EXPECT_EQ(status.GetString("overall"), "degraded");
}

// The spool's contract versus the WAL it superficially resembles: at
// capacity it REFUSES (the publisher falls back to blocking retry) rather
// than rotating out the oldest undelivered events.
TEST(FleetChaos, SpoolExertsBackpressureInsteadOfDroppingOldest) {
  monitor::EventSpool spool(10);
  const auto batch = [](int first, size_t count) {
    std::vector<monitor::FsEvent> events;
    for (size_t i = 0; i < count; ++i) {
      monitor::FsEvent event;
      event.record_index = static_cast<uint64_t>(first) + i;
      events.push_back(event);
    }
    return events;
  };
  ASSERT_TRUE(spool.TryAppend(batch(0, 6)));
  ASSERT_TRUE(spool.TryAppend(batch(6, 4)));
  EXPECT_FALSE(spool.TryAppend(batch(10, 1))) << "full spool must refuse";
  EXPECT_EQ(spool.EventCount(), 10u) << "the refused batch left no residue";
  EXPECT_EQ(spool.Rejects(), 1u);
  EXPECT_EQ(spool.PeakDepth(), 10u);

  // Replay head is strictly oldest-first; DropFront models delivery.
  const auto head = spool.PeekFront(4);
  ASSERT_EQ(head.size(), 4u);
  for (size_t i = 0; i < head.size(); ++i) {
    EXPECT_EQ(head[i].record_index, i);
  }
  spool.DropFront(4);
  EXPECT_EQ(spool.PeekFront(1).at(0).record_index, 4u);
  ASSERT_TRUE(spool.TryAppend(batch(10, 4))) << "drained capacity is reusable";
  EXPECT_EQ(spool.TotalSpooled(), 14u);
  EXPECT_EQ(spool.TotalReplayed(), 4u);
  EXPECT_EQ(spool.EventCount(), 10u);
}

// Multi-tenant blast-radius containment: a poison tenant whose rule
// matches at high rate and whose actions ALWAYS fail must not degrade its
// neighbors. With per-tenant action quotas on, the poison tenant's
// overflow parks on the DLQ (its own lane), injected worker crashes force
// redeliveries throughout, and the well-behaved tenants' actions still
// land exactly once each.
TEST(FleetChaos, PoisonTenantThrottlesToDlqWithoutStarvingNeighbors) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  lustre::FileSystem fs(lustre::FileSystemConfig::FromProfile(profile),
                        authority);

  ripple::CloudConfig cloud_config;
  cloud_config.queue.visibility_timeout = Millis(30);
  // Crashes redeliver; they must never exhaust max_receives here, or a
  // report dead-letters through the poison path and pollutes the
  // throttle-only DLQ accounting this test asserts on.
  cloud_config.queue.max_receives = 12;
  cloud_config.worker_poll = Millis(1);
  cloud_config.cleanup_interval = Millis(10);
  cloud_config.worker_crash_prob = 0.2;  // redeliveries all the way through
  cloud_config.fault_seed = 17;
  // Metering on, refill negligible: virtual time tracks wall time at
  // dilation 2000, so any visible rate would re-arm the poison bucket
  // while the chaos runs and erode the throttle accounting below.
  cloud_config.tenant_action_rate = 1e-9;
  cloud_config.tenant_action_burst = 64.0;
  ripple::CloudService cloud(authority, cloud_config);
  ripple::EndpointRegistry endpoints;
  endpoints.Register("site", fs);
  ripple::AgentConfig agent_config;
  agent_config.name = "site";
  agent_config.report_backoff = Millis(1);
  agent_config.action_retry_backoff = Millis(1);
  ripple::Agent agent(agent_config, fs, cloud, endpoints, authority);

  // The poison tenant's executor fails every attempt, transiently — the
  // worst case: the agent burns its full retry budget per action.
  struct AlwaysFailing : ripple::ActionExecutor {
    Result<ripple::ActionOutcome> Execute(const ripple::ActionContext&,
                                          const ripple::ActionRequest&) override {
      return UnavailableError("poison backend is down");
    }
  };
  agent.RegisterExecutor(ripple::ActionType::kContainer,
                         std::make_unique<AlwaysFailing>());

  const auto email_rule = [](const std::string& id, const std::string& tenant,
                             const std::string& glob) {
    ripple::Rule rule;
    rule.id = id;
    rule.tenant = tenant;
    rule.trigger.event_mask = ripple::kCreated;
    rule.trigger.path_glob = Glob(glob);
    rule.action.type = ripple::ActionType::kEmail;
    rule.action.agent = "site";
    json::Object params;
    params["to"] = json::Value(tenant + "@site");
    rule.action.params = json::Value(std::move(params));
    rule.watch_agent = "site";
    return rule;
  };
  ripple::Rule poison = email_rule("poison-rule", "poison", "/p/**");
  poison.action.type = ripple::ActionType::kContainer;
  ASSERT_TRUE(cloud.RegisterRule(poison).ok());
  ASSERT_TRUE(cloud.RegisterRule(email_rule("a-rule", "team-a", "/a/**")).ok());
  ASSERT_TRUE(cloud.RegisterRule(email_rule("b-rule", "team-b", "/b/**")).ok());

  cloud.Start();
  agent.Start();

  const auto deliver = [&](const std::string& path, uint64_t seq) {
    monitor::FsEvent event;
    event.type = lustre::ChangeLogType::kCreate;
    event.path = path;
    event.global_seq = seq;
    event.name = path.substr(path.find_last_of('/') + 1);
    agent.DeliverEvent(event);
  };
  // Interleave so the poison storm brackets the neighbors' traffic.
  uint64_t seq = 1;
  constexpr int kGood = 20;
  constexpr int kPoison = 300;
  for (int i = 0; i < kPoison; ++i) {
    deliver("/p/f" + std::to_string(i), seq++);
    if (i < kGood) {
      deliver("/a/f" + std::to_string(i), seq++);
      deliver("/b/f" + std::to_string(i), seq++);
    }
  }

  // Every report must clear the queue (crashes only delay, via redelivery).
  const uint64_t sent = kPoison + 2 * kGood;
  ASSERT_TRUE(WaitFor([&] {
    return cloud.queue().TotalDeleted() == sent &&
           cloud.queue().VisibleDepth() == 0 && cloud.queue().InFlight() == 0;
  })) << "deleted " << cloud.queue().TotalDeleted() << " of " << sent;
  ASSERT_TRUE(WaitFor([&] { return agent.outbox().Count() >= 2 * kGood; }));
  // Let the action queue reach equilibrium: everything accepted is either
  // executed, failed, or was a dedupe of an earlier delivery.
  ASSERT_TRUE(WaitFor([&] {
    const auto stats = agent.Stats();
    return stats.actions_received - stats.actions_deduped ==
           stats.actions_executed + stats.actions_failed;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  agent.Stop();
  cloud.Stop();

  // Neighbors: exactly once each, despite redeliveries (dedupe absorbed
  // them) and despite the poison storm (their own token buckets never ran
  // dry — burst covers their traffic plus the redelivery re-spends).
  EXPECT_EQ(agent.outbox().Count(), 2u * kGood);
  const auto cloud_stats = cloud.Stats();
  EXPECT_GT(cloud_stats.worker_crashes, 0u) << "the chaos must actually bite";
  EXPECT_GT(cloud_stats.redeliveries, 0u);

  // The poison tenant: at most its burst (plus redelivery re-spends) ever
  // dispatched; the overflow sits on the DLQ, on the poison lane.
  EXPECT_GT(cloud_stats.actions_throttled, 0u);
  EXPECT_GE(cloud_stats.actions_throttled,
            static_cast<uint64_t>(kPoison) - 65u);
  auto dead = cloud.DrainDeadLetters();
  EXPECT_EQ(dead.size(), cloud_stats.actions_throttled);
  for (const auto& message : dead) {
    EXPECT_EQ(message.lane, "poison") << "only poison overflow may dead-letter";
    EXPECT_NE(message.body.find("poison-rule"), std::string::npos);
  }
  // Every poison action that did dispatch failed at the executor; none of
  // the failures leaked into the neighbors' outcomes.
  const auto agent_stats = agent.Stats();
  EXPECT_GT(agent_stats.actions_failed, 0u);
  EXPECT_EQ(agent_stats.actions_failed + 2 * kGood, agent_stats.actions_received -
                                                        agent_stats.actions_deduped)
      << "received = poison failures + neighbor successes (+ dedupes)";
}

}  // namespace
}  // namespace sdci
