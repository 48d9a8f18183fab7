#include "monitor/aggregator_supervisor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "monitor/consumer.h"

namespace sdci::monitor {
namespace {

class AggregatorSupervisorTest : public ::testing::Test {
 protected:
  AggregatorSupervisorTest()
      : authority_(2000.0), profile_(lustre::TestbedProfile::Test()) {}

  AggregatorConfig Config() {
    AggregatorConfig config;
    config.store_capacity = 1u << 16;
    return config;
  }

  AggregatorSupervisorConfig SupervisorConfig() {
    AggregatorSupervisorConfig config;
    config.check_interval = Millis(5);
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

  // Real-time wait (the supervisor runs on virtual check intervals, but the
  // test observes from outside).
  static bool WaitFor(const std::function<bool()>& pred,
                      std::chrono::seconds budget = std::chrono::seconds(10)) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  }

  TimeAuthority authority_;
  lustre::TestbedProfile profile_;
  msgq::Context context_;
};

TEST_F(AggregatorSupervisorTest, RestartKeepsSequencesMonotoneAndHistoryContiguous) {
  const auto config = Config();
  AggregatorSupervisor supervisor(profile_, authority_, context_, config,
                                  SupervisorConfig());
  supervisor.Start();
  auto pub = context_.CreatePub(config.collect_endpoint);
  HistoryClient history(context_, config.api_endpoint);

  Send(*pub, {Event(1), Event(2), Event(3), Event(4), Event(5)});
  ASSERT_TRUE(WaitFor([&] { return supervisor.NextSeq() == 6; }));

  const uint64_t seq_before_crash = supervisor.NextSeq();
  supervisor.InjectCrash();
  EXPECT_EQ(supervisor.crashes(), 1u);
  ASSERT_TRUE(WaitFor([&] { return supervisor.restarts() >= 1; }));

  // The watermark survived the crash: no sequence is ever reused.
  EXPECT_EQ(supervisor.NextSeq(), seq_before_crash);

  Send(*pub, {Event(6), Event(7), Event(8), Event(9), Event(10)});
  ASSERT_TRUE(WaitFor([&] { return supervisor.NextSeq() == 11; }));

  // A fetch spanning the crash returns one contiguous, gap-free range: the
  // restarted incarnation replayed the WAL into its store.
  HistoryClient::Page page;
  ASSERT_TRUE(WaitFor([&] {
    auto fetched = history.Fetch(1, 100, std::chrono::milliseconds(250));
    if (!fetched.ok() || fetched->events.size() < 10) return false;
    page = std::move(*fetched);
    return true;
  }));
  ASSERT_EQ(page.events.size(), 10u);
  EXPECT_EQ(page.first_available, 1u);
  for (size_t i = 0; i < page.events.size(); ++i) {
    EXPECT_EQ(page.events[i].global_seq, i + 1) << "gap across the crash";
  }
  EXPECT_EQ(page.events[3].path, "/p/f4") << "pre-crash payloads restored";

  supervisor.Stop();
  const auto stats = supervisor.Stats();
  EXPECT_EQ(stats.received, 10u) << "cumulative across incarnations";
  EXPECT_EQ(stats.checkpointed, 10u);
  EXPECT_EQ(stats.decode_errors, 0u);
}

TEST_F(AggregatorSupervisorTest, PreCrashEventsFetchableWithoutNewTraffic) {
  const auto config = Config();
  AggregatorSupervisor supervisor(profile_, authority_, context_, config,
                                  SupervisorConfig());
  supervisor.Start();
  auto pub = context_.CreatePub(config.collect_endpoint);
  HistoryClient history(context_, config.api_endpoint);

  Send(*pub, {Event(1), Event(2), Event(3)});
  ASSERT_TRUE(WaitFor([&] { return supervisor.NextSeq() == 4; }));
  supervisor.InjectCrash();
  ASSERT_TRUE(WaitFor([&] { return supervisor.restarts() >= 1; }));

  // The new incarnation's store was rebuilt from the WAL alone.
  HistoryClient::Page page;
  ASSERT_TRUE(WaitFor([&] {
    auto fetched = history.Fetch(1, 100, std::chrono::milliseconds(250));
    if (!fetched.ok() || fetched->events.size() < 3) return false;
    page = std::move(*fetched);
    return true;
  }));
  EXPECT_EQ(page.events.size(), 3u);
  EXPECT_EQ(page.events[0].global_seq, 1u);
  EXPECT_EQ(page.events[2].global_seq, 3u);
  supervisor.Stop();
}

TEST_F(AggregatorSupervisorTest, HandOffsDuringOutageSurviveInTheIngestSocket) {
  const auto config = Config();
  AggregatorSupervisorConfig sup_config = SupervisorConfig();
  // Slow checks: give the test a wide window where the aggregator is down.
  sup_config.check_interval = Millis(50);
  AggregatorSupervisor supervisor(profile_, authority_, context_, config, sup_config);
  supervisor.Start();
  auto pub = context_.CreatePub(config.collect_endpoint);

  supervisor.InjectCrash();
  // Collectors keep handing off while nobody is home: the supervisor-owned
  // socket queues them like an acked transport would.
  Send(*pub, {Event(1), Event(2)});
  Send(*pub, {Event(3)});
  ASSERT_TRUE(WaitFor([&] { return supervisor.restarts() >= 1; }));
  EXPECT_TRUE(WaitFor([&] { return supervisor.NextSeq() == 4; }))
      << "events accepted during the outage were ingested after restart";
  supervisor.Stop();
}

TEST_F(AggregatorSupervisorTest, CrashProbSelfInjectsAndPipelineKeepsAssigning) {
  const auto config = Config();
  AggregatorSupervisorConfig sup_config = SupervisorConfig();
  sup_config.crash_prob_per_check = 0.5;
  sup_config.fault_seed = 99;
  AggregatorSupervisor supervisor(profile_, authority_, context_, config, sup_config);
  supervisor.Start();
  auto pub = context_.CreatePub(config.collect_endpoint);

  int next = 1;
  ASSERT_TRUE(WaitFor([&] {
    Send(*pub, {Event(next)});
    ++next;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return supervisor.crashes() >= 3 && supervisor.restarts() >= 3;
  }));

  // Despite repeated crashes the watermark only ever moved forward, and
  // every assigned sequence is in the WAL. Both are read once the publisher
  // has stopped sending and the supervisor has quiesced: while a sequencer
  // still runs, a group commit can land between the two reads.
  supervisor.Stop();
  const uint64_t assigned = supervisor.NextSeq() - 1;
  EXPECT_GT(assigned, 0u);
  EXPECT_EQ(supervisor.Stats().checkpointed, assigned);
}

TEST_F(AggregatorSupervisorTest, InjectCrashWhileDownIsHarmless) {
  const auto config = Config();
  AggregatorSupervisorConfig sup_config = SupervisorConfig();
  // A long check interval (~300ms real) keeps the aggregator down across
  // both injections; a short one would let the supervisor restart it in
  // between, making the second injection a legitimate new crash.
  sup_config.check_interval = Seconds(600.0);
  AggregatorSupervisor supervisor(profile_, authority_, context_, config, sup_config);
  supervisor.Start();
  supervisor.InjectCrash();
  supervisor.InjectCrash();  // already down: no double-count, no crash
  EXPECT_EQ(supervisor.crashes(), 1u);
  ASSERT_TRUE(WaitFor([&] { return supervisor.restarts() >= 1; }));
  supervisor.Stop();
}

}  // namespace
}  // namespace sdci::monitor
