// End-to-end observability: one traced event's journey from a synthetic
// ChangeLog record through an executed agent action, the fleet health
// document over the same live deployment, and the monitor status document
// folding supervisor + subscriber telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "common/metrics.h"
#include "common/slo.h"
#include "common/tracing.h"
#include "lustre/client.h"
#include "monitor/aggregator_supervisor.h"
#include "monitor/consumer.h"
#include "monitor/flow_ledger.h"
#include "monitor/monitor.h"
#include "monitor/supervisor.h"
#include "monitor/watermarks.h"
#include "ripple/agent.h"
#include "ripple/cloud.h"
#include "ripple/fleet.h"

namespace sdci {
namespace {

// First span of `name` in the timeline, or nullptr.
const trace::TraceSpan* Find(const std::vector<trace::TraceSpan>& timeline,
                             std::string_view name) {
  for (const trace::TraceSpan& span : timeline) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

TEST(ObservabilityE2E, TracedEventCrossesEveryPipelineStage) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  lustre::FileSystem fs(lustre::FileSystemConfig::FromProfile(profile), authority);
  msgq::Context context;

  // One registry + one tracer shared by every component, 100% sampling,
  // plus the flow ledger and watermark table every stage boundary
  // accounts into.
  auto registry = std::make_shared<MetricsRegistry>();
  auto sink = std::make_shared<trace::TraceCollector>();
  auto tracer = std::make_shared<trace::Tracer>(sink, /*sample_rate=*/1.0);
  auto flow = std::make_shared<FlowLedger>();
  auto watermarks = std::make_shared<WatermarkRegistry>();
  flow->AttachMetrics(registry);
  watermarks->AttachMetrics(registry);
  context.AttachMetrics(registry);
  SloEvaluator slo(registry, DefaultFleetRules());

  // Supervised aggregator (the checkpoint gives wal.append spans).
  monitor::AggregatorConfig agg_config;
  agg_config.store_capacity = 1u << 20;
  agg_config.metrics = registry;
  agg_config.tracer = tracer;
  agg_config.flow = flow;
  agg_config.watermarks = watermarks;
  monitor::AggregatorSupervisor agg_supervisor(profile, authority, context,
                                               agg_config);
  agg_supervisor.Start();

  // Supervised collectors (no fault injection: clean single journey).
  monitor::CollectorConfig collector_config;
  collector_config.poll_interval = Millis(1);
  collector_config.read_batch = 16;
  collector_config.metrics = registry;
  collector_config.tracer = tracer;
  collector_config.flow = flow;
  collector_config.watermarks = watermarks;
  monitor::CollectorSupervisor supervisor(fs, profile, authority, context,
                                          collector_config, {});
  supervisor.Start();

  // Ripple half: cloud + one agent riding a gap-healing subscriber.
  ripple::CloudConfig cloud_config;
  cloud_config.worker_poll = Millis(1);
  cloud_config.cleanup_interval = Millis(5);
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
  agent_config.tracer = tracer;
  agent_config.flow = flow;
  agent_config.watermarks = watermarks;
  ripple::Agent agent(agent_config, fs, cloud, endpoints, authority);
  monitor::RecoveringSubscriberConfig rec_config;
  rec_config.start_seq = 1;
  rec_config.name = "site";
  rec_config.metrics = registry;
  agent.AttachSource(std::make_unique<monitor::RecoveringSubscriber>(
      context, agg_config.publish_endpoint, agg_config.api_endpoint, rec_config));
  auto rule = ripple::Rule::Parse(R"({
    "id": "audit",
    "trigger": {"events": ["created"], "path": "/hot/**"},
    "action": {"type": "email", "agent": "site", "params": {"to": "audit@site"}}
  })");
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE(cloud.RegisterRule(*rule).ok());
  agent.Start();

  lustre::Client client(fs, profile, authority);
  ASSERT_TRUE(client.MkdirAll("/hot").ok());
  constexpr int kFiles = 20;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(client.Create("/hot/f" + std::to_string(i)).ok());
  }
  client.FlushDelay();

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (agent.outbox().Count() < kFiles &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(agent.outbox().Count(), static_cast<size_t>(kFiles));
  // The store thread records store.append beside publish, so a full outbox
  // does not mean every store span is in the sink yet. The catalog books a
  // batch as stored only after recording its spans: wait until it has
  // stored every sequenced event, which covers every create.
  const auto store_caught_up = [&] {
    for (const FlowLedger::Row& row : flow->Audit().rows) {
      if (row.boundary == "shard.store") return row.in >= kFiles && row.imbalance == 0;
    }
    return false;
  };
  while (!store_caught_up() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(store_caught_up()) << flow->ToJson().Dump();

  // The acceptance criterion: some traced event (a /hot create that fired
  // the rule) must have recorded every stage of the taxonomy, in causal
  // order, with non-negative durations.
  constexpr std::string_view kAllStages[] = {
      trace::kChangelogRead,    trace::kCollectorExtract,
      trace::kFid2PathResolve,  trace::kCollectorPublish,
      trace::kAggregatorDecode, trace::kAggregatorIngest,
      trace::kWalAppend,        trace::kAggregatorCommit,
      trace::kAggregatorPublish, trace::kStoreAppend,
      trace::kAgentRuleEval,    trace::kActionExecute};
  std::vector<trace::TraceSpan> full;
  size_t complete_traces = 0;
  for (const uint64_t trace_id : sink->TraceIds()) {
    const auto timeline = sink->Timeline(trace_id);
    const bool complete =
        std::all_of(std::begin(kAllStages), std::end(kAllStages),
                    [&](std::string_view stage) {
                      return Find(timeline, stage) != nullptr;
                    });
    if (!complete) continue;
    ++complete_traces;
    if (full.empty()) full = timeline;
  }
  ASSERT_FALSE(full.empty()) << "no trace covered all " << std::size(kAllStages)
                             << " pipeline stages";
  // Every matched create should have produced a complete journey.
  EXPECT_GE(complete_traces, static_cast<size_t>(kFiles));

  for (const trace::TraceSpan& span : full) {
    EXPECT_GE(span.duration.count(), 0) << span.name;
    EXPECT_NE(span.span_id, 0u) << span.name;
  }
  // Parent closure: every span hangs off another span of the same trace
  // (the changelog read is the root).
  for (const trace::TraceSpan& span : full) {
    if (span.name == trace::kChangelogRead) {
      EXPECT_EQ(span.parent_id, 0u);
      continue;
    }
    const auto parent_present = std::any_of(
        full.begin(), full.end(),
        [&](const trace::TraceSpan& other) { return other.span_id == span.parent_id; });
    EXPECT_TRUE(parent_present) << span.name << " parent " << span.parent_id;
  }
  // Causal order along the pipeline, by span start (virtual time is
  // globally monotone, so cross-thread starts compare meaningfully).
  const auto start_of = [&](std::string_view name) {
    const trace::TraceSpan* span = Find(full, name);
    EXPECT_NE(span, nullptr) << name;
    return span == nullptr ? VirtualTime{} : span->start;
  };
  EXPECT_LE(start_of(trace::kChangelogRead), start_of(trace::kCollectorExtract));
  EXPECT_LE(start_of(trace::kCollectorExtract), start_of(trace::kFid2PathResolve));
  EXPECT_LE(start_of(trace::kFid2PathResolve), start_of(trace::kCollectorPublish));
  EXPECT_LE(start_of(trace::kCollectorPublish), start_of(trace::kAggregatorDecode));
  EXPECT_LE(start_of(trace::kAggregatorDecode), start_of(trace::kAggregatorIngest));
  EXPECT_LE(start_of(trace::kAggregatorIngest), start_of(trace::kAggregatorCommit));
  // The commit span covers the group's WAL append (same interval).
  EXPECT_LE(start_of(trace::kAggregatorCommit), start_of(trace::kWalAppend));
  EXPECT_LE(start_of(trace::kWalAppend), start_of(trace::kAggregatorPublish));
  EXPECT_LE(start_of(trace::kWalAppend), start_of(trace::kStoreAppend));
  EXPECT_LE(start_of(trace::kAggregatorPublish), start_of(trace::kAgentRuleEval));
  EXPECT_LE(start_of(trace::kAgentRuleEval), start_of(trace::kActionExecute));
  EXPECT_EQ(sink->Dropped(), 0u);

  // Stage latency histograms cover the whole taxonomy.
  for (const std::string_view stage : kAllStages) {
    const LatencyHistogram* hist = sink->StageLatency(stage);
    ASSERT_NE(hist, nullptr) << stage;
    EXPECT_GT(hist->Count(), 0u) << stage;
  }

  // The shared registry saw every layer of the pipeline.
  const json::Value metrics = registry->ToJson();
  const auto counter_value = [&](const std::string& name) {
    int64_t total = 0;
    for (const json::Value& series : metrics["counters"][name].AsArray()) {
      total += series.GetInt("value");
    }
    return total;
  };
  EXPECT_GE(counter_value("sdci_collector_extracted_total"), kFiles);
  EXPECT_GE(counter_value("sdci_aggregator_received_total"), kFiles);
  EXPECT_GE(counter_value("sdci_subscriber_received_total"), kFiles);
  EXPECT_GE(counter_value("sdci_agent_events_seen_total"), kFiles);
  EXPECT_EQ(counter_value("sdci_agent_actions_executed_total"), kFiles);
  EXPECT_GE(counter_value("sdci_cloud_actions_dispatched_total"), kFiles);

  // SLO plane over the quiesced pipeline: sample a few times, then every
  // rule must be ok — the stream's frontier and its slowest stage agree,
  // and no ledger row ever went negative.
  std::vector<SloStatus> statuses;
  for (int i = 0; i < 4; ++i) {
    statuses = slo.Evaluate(authority.Now());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(statuses.empty());
  for (const SloStatus& alert : statuses) {
    EXPECT_NE(alert.state, AlertState::kFiring) << alert.name;
  }
  EXPECT_FALSE(slo.AnyFiring());

  // Fleet health over the live deployment: everything healthy.
  ripple::FleetComponents fleet;
  fleet.collector_supervisor = &supervisor;
  fleet.aggregator_supervisor = &agg_supervisor;
  fleet.subscribers = {agent.recovering_source()};
  fleet.cloud = &cloud;
  fleet.context = &context;
  fleet.endpoints = {agg_config.publish_endpoint};
  fleet.metrics = registry.get();
  fleet.watermarks = watermarks.get();
  fleet.flow = flow.get();
  fleet.slo = &slo;
  const json::Value status = ripple::FleetStatusJson(fleet);
  EXPECT_EQ(status.GetString("overall"), "up");
  EXPECT_EQ(status["collectors"].GetString("verdict"), "up");
  EXPECT_EQ(status["aggregator"].GetString("verdict"), "up");
  EXPECT_TRUE(status["aggregator"].GetBool("up"));
  EXPECT_GE(status["aggregator"].GetInt("published"), kFiles);
  EXPECT_EQ(status["subscribers"].AsArray().size(), 1u);
  EXPECT_EQ(status["subscribers"].AsArray().at(0).GetString("verdict"), "up");
  EXPECT_EQ(status["msgq"].AsArray().at(0).GetInt("dropped"), 0);
  EXPECT_EQ(status["cloud"].GetString("verdict"), "up");
  EXPECT_GE(status["cloud"].GetInt("actions_dispatched"), kFiles);
  EXPECT_TRUE(status["metrics"].Has("counters"));
  // The three new planes fold in: the watermark table, the conservation
  // ledger (no duplication → "up"), and the alert array with the rollup.
  EXPECT_TRUE(status.Has("watermarks"));
  EXPECT_GT(status["watermarks"].GetInt("head_ns"), 0);
  EXPECT_EQ(status["flow_ledger"].GetString("verdict"), "up");
  EXPECT_EQ(status["flow_ledger"].GetInt("total_duplication"), 0);
  EXPECT_TRUE(status.Has("alerts"));
  EXPECT_EQ(status["alerts"].AsArray().size(), statuses.size());
  EXPECT_EQ(status["slo"].GetString("verdict"), "up");
  EXPECT_FALSE(status["slo"].GetBool("firing"));

  agent.Stop();
  cloud.Stop();
  supervisor.Stop();
  agg_supervisor.Stop();

  // Quiesce-time conservation: with every component stopped, each
  // (boundary, instance) ledger row must balance exactly — Σin equals
  // Σout + Σheld at every hand-off, so the pipeline provably neither
  // lost nor duplicated an event end to end.
  const auto audit = flow->Audit();
  for (const auto& row : audit.rows) {
    EXPECT_EQ(row.imbalance, 0)
        << row.boundary << "/" << row.instance << ": in=" << row.in
        << " out=" << row.out << " held=" << row.held;
  }
  EXPECT_TRUE(audit.balanced);
  EXPECT_EQ(audit.total_duplication, 0);
  EXPECT_GE(audit.rows.size(), 8u) << "every wired boundary reports";

  // Watermarks advanced in pipeline order: collapsing instances to a
  // per-stage frontier, no stage is ever ahead of its upstream (a stage
  // cannot have processed past what feeds it), and the taxonomy is
  // covered from changelog.read through action.execute.
  std::map<int, VirtualTime> frontier;  // stage rank -> max watermark
  for (const auto& row : watermarks->Snapshot()) {
    if (!row.advanced) continue;
    ASSERT_GE(row.rank, 0) << row.stage << " outside the taxonomy";
    auto [it, inserted] = frontier.emplace(row.rank, row.watermark);
    if (!inserted) it->second = std::max(it->second, row.watermark);
  }
  EXPECT_GE(frontier.size(), 10u) << "stage coverage";
  EXPECT_EQ(frontier.begin()->first,
            WatermarkRegistry::StageRank(trace::kChangelogRead));
  EXPECT_EQ(frontier.rbegin()->first,
            WatermarkRegistry::StageRank(trace::kActionExecute));
  for (auto it = std::next(frontier.begin()); it != frontier.end(); ++it) {
    EXPECT_LE(it->second, std::prev(it)->second)
        << "stage rank " << it->first << " ahead of rank "
        << std::prev(it)->first;
  }
  // At quiesce the frontier and the slowest stage agree: e2e lag is zero.
  EXPECT_EQ(watermarks->FleetLag().count(), 0);
  EXPECT_EQ(watermarks->Head(), frontier.begin()->second);
}

// Satellite: Monitor::StatusJson(MonitorObservability) must surface live
// supervisor and subscriber telemetry, not just zeros.
TEST(ObservabilityE2E, MonitorStatusJsonCarriesLiveObservability) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  lustre::FileSystem fs(lustre::FileSystemConfig::FromProfile(profile), authority);
  msgq::Context context;

  monitor::MonitorConfig config;
  config.collector.poll_interval = Millis(1);
  monitor::Monitor mon(fs, profile, authority, context, config);
  mon.Start();

  // The wire eats some published batches, so the recovering subscriber
  // has real gaps to detect and heal through the history API.
  msgq::FaultConfig wire_faults;
  wire_faults.drop_prob = 0.3;
  wire_faults.seed = 7;
  context.InjectFaults(config.aggregator.publish_endpoint, wire_faults);

  monitor::EventSubscriber plain(context, config.aggregator.publish_endpoint);
  monitor::RecoveringSubscriberConfig rec_config;
  rec_config.start_seq = 1;
  monitor::RecoveringSubscriber rec(context, config.aggregator.publish_endpoint,
                                    config.aggregator.api_endpoint, rec_config);

  // A crash-looping supervised aggregator on its own endpoints, purely to
  // exercise the supervisor section with nonzero counters.
  monitor::AggregatorConfig sup_agg_config;
  sup_agg_config.collect_endpoint = "inproc://statusjson.collect";
  sup_agg_config.publish_endpoint = "inproc://statusjson.events";
  sup_agg_config.api_endpoint = "inproc://statusjson.api";
  monitor::AggregatorSupervisorConfig sup_config;
  sup_config.check_interval = Millis(5);
  sup_config.crash_prob_per_check = 0.5;
  sup_config.fault_seed = 11;
  monitor::AggregatorSupervisor agg_supervisor(profile, authority, context,
                                               sup_agg_config, sup_config);
  agg_supervisor.Start();

  lustre::Client client(fs, profile, authority);
  ASSERT_TRUE(client.MkdirAll("/hot").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client.Create("/hot/f" + std::to_string(i)).ok());
  }
  client.FlushDelay();

  // Pump the subscriber (trickling fresh traffic: a gap at the stream's
  // tail is only discovered when the next live message lands) until it has
  // both detected and healed at least one hole, and the supervisor has
  // crashed its aggregator at least once (its health checks sleep between
  // rounds, so on a loaded host the first crash can come after the heal).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int flush = 0;
  while ((rec.gaps_detected() == 0 || rec.events_backfilled() == 0 ||
          agg_supervisor.crashes() == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(client.Create("/hot/flush" + std::to_string(flush++)).ok());
    client.FlushDelay();
    (void)rec.NextBatchFor(std::chrono::milliseconds(20));
  }
  agg_supervisor.Stop();  // freeze crash/restart counters before asserting

  monitor::MonitorObservability obs;
  obs.aggregator_supervisor = &agg_supervisor;
  obs.subscribers = {&plain};
  obs.recovering_subscribers = {&rec};
  const json::Value status = mon.StatusJson(obs);

  const auto& subscribers = status["subscribers"].AsArray();
  ASSERT_EQ(subscribers.size(), 2u);
  EXPECT_EQ(subscribers.at(0).GetString("type"), "plain");
  EXPECT_TRUE(subscribers.at(0).Has("dropped_at_socket"));
  const json::Value& recovering = subscribers.at(1);
  EXPECT_EQ(recovering.GetString("type"), "recovering");
  EXPECT_EQ(recovering.GetInt("received"), static_cast<int64_t>(rec.received()));
  EXPECT_GT(recovering.GetInt("received"), 0);
  EXPECT_EQ(recovering.GetInt("gaps_detected"),
            static_cast<int64_t>(rec.gaps_detected()));
  EXPECT_GT(recovering.GetInt("gaps_detected"), 0);
  EXPECT_GT(recovering.GetInt("events_backfilled"), 0);
  EXPECT_EQ(recovering.GetInt("next_expected"),
            static_cast<int64_t>(rec.next_expected()));
  EXPECT_GT(recovering.GetInt("next_expected"), 0);

  const json::Value& sup = status["aggregator_supervisor"];
  EXPECT_EQ(sup.GetInt("crashes"), static_cast<int64_t>(agg_supervisor.crashes()));
  EXPECT_GT(sup.GetInt("crashes"), 0);
  EXPECT_EQ(sup.GetInt("restarts"),
            static_cast<int64_t>(agg_supervisor.restarts()));
  EXPECT_GE(sup.GetInt("checkpoint_next_seq"), 1);

  // The plain status document (no observability) must omit the sections.
  const json::Value bare = mon.StatusJson();
  EXPECT_FALSE(bare.Has("subscribers"));
  EXPECT_FALSE(bare.Has("aggregator_supervisor"));

  context.ClearFaults(config.aggregator.publish_endpoint);
  mon.Stop();
}

}  // namespace
}  // namespace sdci
