// CloudService + Agent behaviour, including the reliability machinery the
// paper highlights: report retry on loss, Lambda-crash redelivery
// (at-least-once), dedupe, and rule distribution to agents.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/tracing.h"
#include "monitor/event.h"
#include "ripple/agent.h"
#include "ripple/cloud.h"

namespace sdci::ripple {
namespace {

class CloudAgentTest : public ::testing::Test {
 protected:
  CloudAgentTest()
      : authority_(2000.0),
        profile_(lustre::TestbedProfile::Test()),
        fs_(lustre::FileSystemConfig::FromProfile(profile_), authority_) {}

  CloudConfig FastCloud() {
    CloudConfig config;
    config.queue.visibility_timeout = Millis(30);
    config.worker_poll = Millis(1);
    config.cleanup_interval = Millis(10);
    return config;
  }

  std::unique_ptr<Agent> MakeAgent(CloudService& cloud, const std::string& name) {
    AgentConfig config;
    config.name = name;
    config.report_backoff = Millis(1);
    return std::make_unique<Agent>(config, fs_, cloud, endpoints_, authority_);
  }

  Rule EmailRule(const std::string& id, const std::string& agent,
                 const std::string& glob = "/**") {
    Rule rule;
    rule.id = id;
    rule.trigger.event_mask = kCreated;
    rule.trigger.path_glob = Glob(glob);
    rule.action.type = ActionType::kEmail;
    rule.action.agent = agent;
    json::Object params;
    params["to"] = json::Value("pi@lab.edu");
    rule.action.params = json::Value(std::move(params));
    rule.watch_agent = agent;
    return rule;
  }

  monitor::FsEvent CreateEvent(const std::string& path, uint64_t seq) {
    monitor::FsEvent event;
    event.type = lustre::ChangeLogType::kCreate;
    event.path = path;
    event.global_seq = seq;
    const size_t slash = path.find_last_of('/');
    event.name = path.substr(slash + 1);
    return event;
  }

  TimeAuthority authority_;
  lustre::TestbedProfile profile_;
  lustre::FileSystem fs_;
  EndpointRegistry endpoints_;
};

TEST_F(CloudAgentTest, RuleDistributionInstallsAgentFilter) {
  CloudService cloud(authority_, FastCloud());
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  // Matching event is reported; a MARK-ish unmatched event is not.
  agent->DeliverEvent(CreateEvent("/a.h5", 1));
  monitor::FsEvent unmatched = CreateEvent("/b.h5", 2);
  unmatched.type = lustre::ChangeLogType::kOpen;  // maps to no rule kind
  agent->DeliverEvent(unmatched);
  EXPECT_EQ(agent->Stats().events_seen, 2u);
  EXPECT_EQ(agent->Stats().events_matched, 1u);
  EXPECT_EQ(agent->Stats().events_reported, 1u);
  EXPECT_EQ(cloud.Stats().reports_received, 1u);
}

TEST_F(CloudAgentTest, RuleRegisteredBeforeAgentStillDistributed) {
  CloudService cloud(authority_, FastCloud());
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("early", "hpc")).ok());
  auto agent = MakeAgent(cloud, "hpc");  // registers itself, pulls rules
  agent->DeliverEvent(CreateEvent("/x.h5", 1));
  EXPECT_EQ(agent->Stats().events_matched, 1u);
}

TEST_F(CloudAgentTest, RemoveRuleStopsMatching) {
  CloudService cloud(authority_, FastCloud());
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  ASSERT_TRUE(cloud.RemoveRule("r1").ok());
  EXPECT_EQ(cloud.RemoveRule("r1").code(), StatusCode::kNotFound);
  agent->DeliverEvent(CreateEvent("/a.h5", 1));
  EXPECT_EQ(agent->Stats().events_matched, 0u);
}

TEST_F(CloudAgentTest, EndToEndActionExecution) {
  CloudService cloud(authority_, FastCloud());
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  agent->DeliverEvent(CreateEvent("/data/a.h5", 1));
  EXPECT_EQ(cloud.PumpUntilQuiet(), 1u);
  EXPECT_EQ(agent->DrainActions(), 1u);
  EXPECT_EQ(agent->outbox().Count(), 1u);
  EXPECT_EQ(agent->Stats().actions_executed, 1u);
  EXPECT_EQ(agent->action_log().SuccessCount(), 1u);
}

TEST_F(CloudAgentTest, CrossAgentActionRouting) {
  CloudService cloud(authority_, FastCloud());
  auto hpc = MakeAgent(cloud, "hpc");
  auto laptop = MakeAgent(cloud, "laptop");
  // Watch on hpc, execute on laptop.
  Rule rule = EmailRule("route", "laptop");
  rule.watch_agent = "hpc";
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  hpc->DeliverEvent(CreateEvent("/d/x.h5", 1));
  cloud.PumpUntilQuiet();
  EXPECT_EQ(laptop->DrainActions(), 1u);
  EXPECT_EQ(hpc->DrainActions(), 0u);
  EXPECT_EQ(laptop->outbox().Count(), 1u);
}

TEST_F(CloudAgentTest, ReportRetriesOnInjectedLoss) {
  CloudConfig config = FastCloud();
  config.report_drop_prob = 0.5;
  config.fault_seed = 7;
  CloudService cloud(authority_, config);
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  for (int i = 0; i < 40; ++i) {
    agent->DeliverEvent(CreateEvent("/f" + std::to_string(i) + ".h5",
                                    static_cast<uint64_t>(i + 1)));
  }
  const auto agent_stats = agent->Stats();
  const auto cloud_stats = cloud.Stats();
  EXPECT_EQ(agent_stats.events_reported, 40u) << "retries recover all losses";
  EXPECT_GT(agent_stats.report_retries, 0u);
  EXPECT_GT(cloud_stats.reports_dropped, 0u);
  EXPECT_EQ(cloud_stats.reports_received, 40u);
}

TEST_F(CloudAgentTest, WorkerCrashCausesRedeliveryNotLoss) {
  CloudConfig config = FastCloud();
  config.worker_crash_prob = 0.4;
  config.fault_seed = 13;
  CloudService cloud(authority_, config);
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  for (int i = 0; i < 30; ++i) {
    agent->DeliverEvent(CreateEvent("/g" + std::to_string(i) + ".h5",
                                    static_cast<uint64_t>(i + 1)));
  }
  // Pump repeatedly: crashed entries become visible after their timeout.
  for (int round = 0; round < 50 && cloud.queue().TotalDeleted() < 30; ++round) {
    cloud.PumpUntilQuiet();
    authority_.SleepFor(Millis(40));
  }
  agent->DrainActions();
  const auto stats = cloud.Stats();
  EXPECT_GT(stats.worker_crashes, 0u);
  EXPECT_GT(stats.redeliveries, 0u);
  // At-least-once: every event eventually processed; the agent deduped
  // duplicate deliveries so exactly 30 actions ran.
  EXPECT_EQ(agent->outbox().Count(), 30u);
  EXPECT_GT(agent->Stats().actions_deduped, 0u);
}

TEST_F(CloudAgentTest, DedupeDisabledExecutesDuplicates) {
  CloudConfig config = FastCloud();
  CloudService cloud(authority_, config);
  AgentConfig agent_config;
  agent_config.name = "hpc";
  agent_config.dedupe_actions = false;
  Agent agent(agent_config, fs_, cloud, endpoints_, authority_);
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  // Deliver the same event twice (as a redelivery would).
  agent.DeliverEvent(CreateEvent("/dup.h5", 5));
  agent.DeliverEvent(CreateEvent("/dup.h5", 5));
  cloud.PumpUntilQuiet();
  EXPECT_EQ(agent.DrainActions(), 2u);
  EXPECT_EQ(agent.outbox().Count(), 2u);
}

TEST_F(CloudAgentTest, DeliveriesRefusedAfterStopAreNeverDedupedAndStayBooked) {
  // A delivery that races Stop() is refused with kClosed. Its dedupe key
  // must not outlive the refusal: a redelivery of the same action has to
  // be refused again, not acknowledged as a duplicate of an action that
  // never ran. Both deliveries land in an agent.actions out-term.
  CloudService cloud(authority_, FastCloud());
  auto flow = std::make_shared<FlowLedger>();
  AgentConfig config;
  config.name = "hpc";
  config.flow = flow;
  Agent agent(config, fs_, cloud, endpoints_, authority_);
  agent.Start();
  agent.Stop();
  ActionRequest request;
  request.rule_id = "r1";
  request.spec = EmailRule("r1", "hpc").action;
  request.event = CreateEvent("/late.h5", 7);
  request.event.record_index = 42;
  EXPECT_EQ(agent.EnqueueAction(request).code(), StatusCode::kClosed);
  EXPECT_EQ(agent.EnqueueAction(request).code(), StatusCode::kClosed)
      << "the redelivery was deduped against a refused action";
  EXPECT_EQ(agent.Stats().actions_received, 2u);
  EXPECT_EQ(agent.Stats().actions_deduped, 0u);
  bool found = false;
  for (const FlowLedger::Row& row : flow->Audit().rows) {
    if (row.boundary != "agent.actions") continue;
    found = true;
    EXPECT_EQ(row.in, 2);
    EXPECT_EQ(row.imbalance, 0);
  }
  EXPECT_TRUE(found);
}

TEST_F(CloudAgentTest, ThreadedWorkersProcessQueue) {
  CloudService cloud(authority_, FastCloud());
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  cloud.Start();
  agent->Start();
  for (int i = 0; i < 20; ++i) {
    agent->DeliverEvent(CreateEvent("/w" + std::to_string(i) + ".h5",
                                    static_cast<uint64_t>(i + 1)));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (agent->outbox().Count() < 20 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  agent->Stop();
  cloud.Stop();
  EXPECT_EQ(agent->outbox().Count(), 20u);
}

TEST_F(CloudAgentTest, TransientActionFailuresAreRetried) {
  CloudService cloud(authority_, FastCloud());
  AgentConfig agent_config;
  agent_config.name = "hpc";
  agent_config.action_retries = 5;
  agent_config.action_retry_backoff = Millis(1);
  Agent agent(agent_config, fs_, cloud, endpoints_, authority_);
  // An executor that fails transiently twice, then succeeds.
  struct FlakyExecutor : ActionExecutor {
    int failures_left = 2;
    Result<ActionOutcome> Execute(const ActionContext& context,
                                  const ActionRequest&) override {
      if (failures_left-- > 0) return UnavailableError("backend hiccup");
      ActionOutcome outcome;
      outcome.success = true;
      outcome.completed_at = context.authority->Now();
      return outcome;
    }
  };
  agent.RegisterExecutor(ActionType::kContainer, std::make_unique<FlakyExecutor>());
  Rule rule;
  rule.id = "flaky";
  rule.trigger.event_mask = kCreated;
  rule.action.type = ActionType::kContainer;
  rule.action.agent = "hpc";
  json::Object params;
  params["image"] = json::Value("i");
  rule.action.params = json::Value(std::move(params));
  rule.watch_agent = "hpc";
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  agent.DeliverEvent(CreateEvent("/r.h5", 1));
  cloud.PumpUntilQuiet();
  EXPECT_EQ(agent.DrainActions(), 1u);
  const auto stats = agent.Stats();
  EXPECT_EQ(stats.actions_executed, 1u);
  EXPECT_EQ(stats.actions_retried, 2u);
  EXPECT_EQ(stats.actions_failed, 0u);
}

TEST_F(CloudAgentTest, PermanentActionFailuresAreNotRetried) {
  CloudService cloud(authority_, FastCloud());
  auto agent = MakeAgent(cloud, "hpc");
  Rule rule = EmailRule("bad-params", "hpc");
  rule.action.params = json::Value(json::Object{});  // missing "to"
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  agent->DeliverEvent(CreateEvent("/p.h5", 1));
  cloud.PumpUntilQuiet();
  EXPECT_EQ(agent->DrainActions(), 1u);
  const auto stats = agent->Stats();
  EXPECT_EQ(stats.actions_failed, 1u);
  EXPECT_EQ(stats.actions_retried, 0u) << "invalid params never retried";
}

TEST_F(CloudAgentTest, UnknownTargetAgentIsNotFatal) {
  CloudService cloud(authority_, FastCloud());
  auto agent = MakeAgent(cloud, "hpc");
  Rule rule = EmailRule("ghost", "nonexistent");
  rule.watch_agent = "hpc";
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  agent->DeliverEvent(CreateEvent("/a.h5", 1));
  EXPECT_EQ(cloud.PumpUntilQuiet(), 1u);
  EXPECT_EQ(cloud.Stats().actions_dispatched, 0u);
}

TEST_F(CloudAgentTest, PoisonMessageLandsInDeadLetterQueueAndCanBeDrained) {
  CloudConfig config = FastCloud();
  config.worker_crash_prob = 1.0;  // every processing attempt "crashes"
  config.queue.max_receives = 3;
  CloudService cloud(authority_, config);
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("r1", "hpc")).ok());
  agent->DeliverEvent(CreateEvent("/poison.h5", 1));

  // Redelivery can never succeed; after max_receives the queue routes the
  // message to the dead-letter list instead of looping forever.
  for (int round = 0; round < 50 && cloud.DeadLetterDepth() == 0; ++round) {
    cloud.PumpUntilQuiet();
    authority_.SleepFor(Millis(40));
  }
  EXPECT_EQ(cloud.DeadLetterDepth(), 1u);
  EXPECT_EQ(cloud.Stats().dead_letters, 1u);

  // Operator intervention: drain, inspect, queue goes quiet.
  auto drained = cloud.DrainDeadLetters();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_GE(drained[0].receive_count, config.queue.max_receives);
  EXPECT_NE(drained[0].body.find("/poison.h5"), std::string::npos)
      << "the poison payload is preserved for diagnosis";
  EXPECT_EQ(cloud.DeadLetterDepth(), 0u);
  EXPECT_EQ(cloud.queue().VisibleDepth(), 0u);
  EXPECT_EQ(cloud.queue().InFlight(), 0u);
}

TEST_F(CloudAgentTest, RulesListedFromRegistry) {
  CloudService cloud(authority_, FastCloud());
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("a", "x")).ok());
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("b", "y")).ok());
  EXPECT_EQ(cloud.Rules().size(), 2u);
  EXPECT_FALSE(cloud.RegisterRule(Rule{}).ok()) << "empty id rejected";
}

TEST_F(CloudAgentTest, RulesForWatchAgentUsesSecondaryMap) {
  CloudService cloud(authority_, FastCloud());
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("a1", "hpc")).ok());
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("a2", "hpc")).ok());
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("b1", "laptop")).ok());
  EXPECT_EQ(cloud.RuleCount(), 3u);
  EXPECT_EQ(cloud.RulesForWatchAgent("hpc").size(), 2u);
  EXPECT_EQ(cloud.RulesForWatchAgent("laptop").size(), 1u);
  EXPECT_TRUE(cloud.RulesForWatchAgent("ghost").empty());
  ASSERT_TRUE(cloud.RemoveRule("a1").ok());
  EXPECT_EQ(cloud.RulesForWatchAgent("hpc").size(), 1u);
  EXPECT_EQ(cloud.RulesForWatchAgent("hpc")[0].id, "a2");
}

TEST_F(CloudAgentTest, ReplacingARuleRehomesItsWatchAgentEntry) {
  CloudService cloud(authority_, FastCloud());
  Rule rule = EmailRule("mv", "hpc");
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  EXPECT_EQ(cloud.RulesForWatchAgent("hpc").size(), 1u);
  // Re-register under the same id with a different watch agent: the old
  // secondary-map entry must disappear, not dangle.
  rule.watch_agent = "laptop";
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  EXPECT_EQ(cloud.RuleCount(), 1u);
  EXPECT_TRUE(cloud.RulesForWatchAgent("hpc").empty());
  ASSERT_EQ(cloud.RulesForWatchAgent("laptop").size(), 1u);
  EXPECT_EQ(cloud.RulesForWatchAgent("laptop")[0].id, "mv");
}

TEST_F(CloudAgentTest, TenantOverQuotaActionsParkOnDeadLetterQueue) {
  CloudConfig config = FastCloud();
  // Metering on, but refill is negligible over any real test duration:
  // virtual time tracks wall time at dilation 2000, so a visible rate
  // would quietly re-arm the bucket while the pump runs under load.
  config.tenant_action_rate = 1e-9;
  config.tenant_action_burst = 3.0;
  CloudService cloud(authority_, config);
  auto agent = MakeAgent(cloud, "hpc");
  Rule rule = EmailRule("storm", "hpc");
  rule.tenant = "noisy";
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  for (int i = 0; i < 10; ++i) {
    agent->DeliverEvent(CreateEvent("/s" + std::to_string(i) + ".h5",
                                    static_cast<uint64_t>(i + 1)));
  }
  cloud.PumpUntilQuiet();
  const auto stats = cloud.Stats();
  // The burst lets 3 actions through; the rest are throttled to the DLQ.
  EXPECT_EQ(stats.actions_dispatched, 3u);
  EXPECT_EQ(stats.actions_throttled, 7u);
  EXPECT_EQ(stats.dead_letters, 7u);
  EXPECT_EQ(agent->DrainActions(), 3u);
  const auto dead = cloud.queue().DeadLetters();
  ASSERT_EQ(dead.size(), 7u);
  EXPECT_EQ(dead[0].lane, "noisy");
  EXPECT_NE(dead[0].body.find("\"tenant\""), std::string::npos);
}

TEST_F(CloudAgentTest, TenantQuotaRefillsInVirtualTime) {
  CloudConfig config = FastCloud();
  // The bucket refills off the continuously-advancing virtual clock, so
  // exact counts would race wall time (dilation 2000 ≈ 2 tokens per real
  // second at this rate). The assertions are therefore monotone: the
  // burst bounds the first wave from below, something must throttle, and
  // a deliberate virtual sleep long enough for >= burst worth of tokens
  // guarantees the next action dispatches.
  config.tenant_action_rate = 0.001;
  config.tenant_action_burst = 2.0;
  CloudService cloud(authority_, config);
  auto agent = MakeAgent(cloud, "hpc");
  Rule rule = EmailRule("drip", "hpc");
  rule.tenant = "t";
  ASSERT_TRUE(cloud.RegisterRule(rule).ok());
  for (int i = 0; i < 10; ++i) {
    agent->DeliverEvent(CreateEvent("/a" + std::to_string(i) + ".h5",
                                    static_cast<uint64_t>(i + 1)));
  }
  cloud.PumpUntilQuiet();
  const uint64_t dispatched_before = cloud.Stats().actions_dispatched;
  const uint64_t throttled_before = cloud.Stats().actions_throttled;
  EXPECT_GE(dispatched_before, 2u) << "burst admits at least its size";
  EXPECT_GE(throttled_before, 1u) << "the storm must overrun the bucket";
  EXPECT_EQ(dispatched_before + throttled_before, 10u);
  // 2000 virtual seconds at 0.001 tokens/s = the full burst, regardless
  // of how much incidental wall time also leaked in (capped at burst).
  authority_.SleepFor(Seconds(2000.0));
  agent->DeliverEvent(CreateEvent("/a-late.h5", 11));
  cloud.PumpUntilQuiet();
  EXPECT_EQ(cloud.Stats().actions_dispatched, dispatched_before + 1)
      << "refilled tokens admit the late action";
  EXPECT_EQ(cloud.Stats().actions_throttled, throttled_before);
}

TEST_F(CloudAgentTest, UntenantedRulesAreUnmeteredByDefault) {
  CloudService cloud(authority_, FastCloud());  // tenant_action_rate = 0
  auto agent = MakeAgent(cloud, "hpc");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("free", "hpc")).ok());
  for (int i = 0; i < 100; ++i) {
    agent->DeliverEvent(CreateEvent("/u" + std::to_string(i) + ".h5",
                                    static_cast<uint64_t>(i + 1)));
  }
  cloud.PumpUntilQuiet();
  EXPECT_EQ(cloud.Stats().actions_dispatched, 100u);
  EXPECT_EQ(cloud.Stats().actions_throttled, 0u);
}

TEST_F(CloudAgentTest, TenantRuleReportsRideTheTenantLane) {
  CloudConfig config = FastCloud();
  CloudService cloud(authority_, config);
  auto agent = MakeAgent(cloud, "hpc");
  Rule u1 = EmailRule("lane-u1", "hpc", "/t/u1/**");
  u1.tenant = "u1";
  Rule u2 = EmailRule("lane-u2", "hpc", "/t/u2/**");
  u2.tenant = "u2";
  ASSERT_TRUE(cloud.RegisterRule(u1).ok());
  ASSERT_TRUE(cloud.RegisterRule(u2).ok());
  // Each tenant's reports land on its own lane; distinct tenants =>
  // distinct lanes in the queue.
  agent->DeliverEvent(CreateEvent("/t/u1/a.h5", 1));
  EXPECT_EQ(cloud.queue().LaneCount(), 1u);
  agent->DeliverEvent(CreateEvent("/t/u2/b.h5", 2));
  EXPECT_EQ(cloud.queue().LaneCount(), 2u);
  cloud.PumpUntilQuiet();
  EXPECT_EQ(cloud.queue().LaneCount(), 0u);
  EXPECT_EQ(cloud.Stats().actions_dispatched, 2u);
}

TEST_F(CloudAgentTest, RehomedRuleStopsReportingOnOldWatchAgent) {
  CloudService cloud(authority_, FastCloud());
  auto a = MakeAgent(cloud, "a");
  auto b = MakeAgent(cloud, "b");
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("moving", "a")).ok());
  a->DeliverEvent(CreateEvent("/before.h5", 1));
  ASSERT_EQ(a->Stats().events_reported, 1u);
  // Replace the rule with one watched by b: a must drop its filter.
  ASSERT_TRUE(cloud.RegisterRule(EmailRule("moving", "b")).ok());
  a->DeliverEvent(CreateEvent("/after.h5", 2));
  EXPECT_EQ(a->Stats().events_reported, 1u) << "old watch agent still reports";
  EXPECT_TRUE(a->RuleFilterIds().empty());
  b->DeliverEvent(CreateEvent("/after.h5", 2));
  EXPECT_EQ(b->Stats().events_reported, 1u);
  EXPECT_EQ(b->RuleFilterIds(), std::vector<std::string>{"moving"});
}

// Two control-plane threads register, re-home and remove the same rule
// ids at once. After they quiesce, every agent's filter must hold exactly
// the rules the cloud says it watches.
TEST_F(CloudAgentTest, ConcurrentRuleMutationsKeepAgentFiltersInStep) {
  CloudService cloud(authority_, FastCloud());
  const std::vector<std::string> names = {"a", "b", "c"};
  std::vector<std::unique_ptr<Agent>> agents;
  for (const auto& name : names) agents.push_back(MakeAgent(cloud, name));
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(17 + t);
      for (int op = 0; op < 2000; ++op) {
        const std::string id = "r" + std::to_string(rng.NextBelow(6));
        if (rng.NextBool(0.3)) {
          (void)cloud.RemoveRule(id);  // may race to NotFound
        } else {
          ASSERT_TRUE(
              cloud.RegisterRule(EmailRule(id, names[rng.NextBelow(names.size())])).ok());
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (size_t i = 0; i < names.size(); ++i) {
    std::vector<std::string> expect;
    for (const Rule& rule : cloud.RulesForWatchAgent(names[i])) expect.push_back(rule.id);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(agents[i]->RuleFilterIds(), expect) << "agent " << names[i];
  }
}

TEST_F(CloudAgentTest, BatchDeliveryMatchesPerEventDelivery) {
  // DeliverBatch (the event thread's path: rules probed against the wire
  // view) and DeliverEvent (the inotify watcher's path: one FsEvent at a
  // time) must be indistinguishable. Two agents with the same rules get
  // the same randomized events, some traced, one way each; they must
  // count the same, record the same spans and report the same events,
  // parent spans included (the reports come back as the actions they
  // trigger, each carrying its reported event).
  constexpr auto kTypes = static_cast<uint64_t>(lustre::ChangeLogType::kAtime) + 1;
  const std::vector<std::string> dirs = {"/proj/a", "/proj/a/deep", "/proj/b", "/scratch"};
  Rng rng(20261020);
  std::vector<monitor::FsEvent> events;
  for (uint64_t seq = 1; seq <= 500; ++seq) {
    monitor::FsEvent event;
    event.mdt_index = static_cast<int>(rng.NextBelow(4));
    event.record_index = seq;
    event.global_seq = seq;
    event.type = static_cast<lustre::ChangeLogType>(rng.NextBelow(kTypes));
    event.time = Micros(static_cast<int64_t>(seq));
    const std::string& dir = dirs[rng.NextBelow(dirs.size())];
    event.name = "f" + std::to_string(rng.NextBelow(40)) + (rng.NextBool(0.5) ? ".h5" : ".txt");
    event.path = dir + "/" + event.name;
    if (event.type == lustre::ChangeLogType::kRename) event.source_path = dir + "/old";
    if (rng.NextBool(0.3)) {
      event.trace_id = 1 + rng.NextBelow(1000);
      event.parent_span = 1 + rng.NextBelow(1000);
    }
    events.push_back(std::move(event));
  }
  std::vector<Rule> rules;
  rules.push_back(EmailRule("h5", "hpc", "/proj/**"));
  rules.back().trigger.event_mask = kCreated | kModified;
  rules.back().trigger.name_suffix = ".h5";
  rules.push_back(EmailRule("scratch", "hpc", "/scratch/*"));
  rules.back().trigger.event_mask = kDeleted | kRenamed;
  rules.push_back(EmailRule("deep", "hpc", "/proj/a/deep/**"));
  rules.back().trigger.event_mask = kAnyEvent;

  struct Side {
    std::shared_ptr<trace::TraceCollector> spans = std::make_shared<trace::TraceCollector>();
    std::unique_ptr<CloudService> cloud;
    std::unique_ptr<Agent> agent;
  };
  const auto make_side = [&] {
    Side side;
    side.cloud = std::make_unique<CloudService>(authority_, FastCloud());
    AgentConfig config;
    config.name = "hpc";
    config.report_backoff = Millis(1);
    config.tracer = std::make_shared<trace::Tracer>(side.spans, 0.0);
    side.agent = std::make_unique<Agent>(config, fs_, *side.cloud, endpoints_, authority_);
    for (const Rule& rule : rules) EXPECT_TRUE(side.cloud->RegisterRule(rule).ok());
    return side;
  };
  Side per_event = make_side();
  Side batched = make_side();
  for (const monitor::FsEvent& event : events) per_event.agent->DeliverEvent(event);
  batched.agent->DeliverBatch(monitor::EventBatch(events));

  const AgentStats a = per_event.agent->Stats();
  const AgentStats b = batched.agent->Stats();
  EXPECT_EQ(a.events_seen, events.size());
  EXPECT_EQ(b.events_seen, a.events_seen);
  EXPECT_EQ(b.events_matched, a.events_matched);
  EXPECT_EQ(b.events_reported, a.events_reported);
  EXPECT_EQ(b.report_failures, a.report_failures);
  EXPECT_GT(a.events_matched, 0u);
  EXPECT_LT(a.events_matched, events.size());

  for (Side* side : {&per_event, &batched}) {
    side->cloud->PumpUntilQuiet();
    side->agent->DrainActions();
  }
  const auto actions_a = per_event.agent->action_log().Entries();
  const auto actions_b = batched.agent->action_log().Entries();
  ASSERT_EQ(actions_b.size(), actions_a.size());
  size_t traced = 0;
  for (size_t i = 0; i < actions_a.size(); ++i) {
    const monitor::FsEvent& x = actions_a[i].request.event;
    const monitor::FsEvent& y = actions_b[i].request.event;
    EXPECT_EQ(actions_b[i].request.rule_id, actions_a[i].request.rule_id) << i;
    EXPECT_EQ(y.global_seq, x.global_seq) << i;
    EXPECT_EQ(y.type, x.type) << i;
    EXPECT_EQ(y.path, x.path) << i;
    EXPECT_EQ(y.source_path, x.source_path) << i;
    EXPECT_EQ(y.trace_id, x.trace_id) << i;
    EXPECT_EQ(y.parent_span, x.parent_span) << i;
    traced += x.trace_id != 0 ? 1 : 0;
  }
  EXPECT_GT(traced, 0u) << "no traced event reached an action";

  const auto spans_a = per_event.spans->Snapshot();
  const auto spans_b = batched.spans->Snapshot();
  ASSERT_EQ(spans_b.size(), spans_a.size());
  EXPECT_GT(spans_a.size(), 0u);
  for (size_t i = 0; i < spans_a.size(); ++i) {
    EXPECT_EQ(spans_b[i].trace_id, spans_a[i].trace_id) << i;
    EXPECT_EQ(spans_b[i].span_id, spans_a[i].span_id) << i;
    EXPECT_EQ(spans_b[i].parent_id, spans_a[i].parent_id) << i;
    EXPECT_EQ(spans_b[i].name, spans_a[i].name) << i;
  }
}

}  // namespace
}  // namespace sdci::ripple
