#include "monitor/collector.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "lustre/filesystem.h"
#include "msgq/context.h"

namespace sdci::monitor {
namespace {

class CollectorTest : public ::testing::Test {
 protected:
  CollectorTest()
      : authority_(2000.0),
        profile_(lustre::TestbedProfile::Test()),
        fs_(lustre::FileSystemConfig::FromProfile(profile_), authority_) {}

  CollectorConfig Config(ResolveMode mode = ResolveMode::kPerEvent) {
    CollectorConfig config;
    config.resolve_mode = mode;
    config.publish_batch = 4;
    return config;
  }

  // Subscribes to the collect endpoint and decodes everything available.
  std::vector<FsEvent> DrainEndpoint(msgq::SubSocket& sub) {
    std::vector<FsEvent> events;
    while (auto message = sub.TryReceive()) {
      auto batch = DecodeEventBatch(message->bytes());
      EXPECT_TRUE(batch.ok());
      for (auto& event : *batch) events.push_back(std::move(event));
    }
    return events;
  }

  // The virtual duration that lasts `real` on this fixture's clock.
  VirtualDuration VirtualFor(std::chrono::nanoseconds real) const {
    return std::chrono::duration_cast<VirtualDuration>(real * authority_.dilation());
  }

  TimeAuthority authority_;
  lustre::TestbedProfile profile_;
  lustre::FileSystem fs_;
  msgq::Context context_;
};

TEST_F(CollectorTest, DrainOncePublishesResolvedEvents) {
  auto sub = context_.CreateSub("inproc://monitor.collect", 1024);
  sub->Subscribe("");
  Collector collector(fs_, 0, profile_, authority_, context_, Config());

  ASSERT_TRUE(fs_.Mkdir("/data").ok());
  ASSERT_TRUE(fs_.Create("/data/a.h5").ok());
  ASSERT_TRUE(fs_.WriteFile("/data/a.h5", 100).ok());
  ASSERT_TRUE(fs_.Unlink("/data/a.h5").ok());

  EXPECT_EQ(collector.DrainOnce(), 4u);
  const auto events = DrainEndpoint(*sub);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].type, lustre::ChangeLogType::kMkdir);
  EXPECT_EQ(events[0].path, "/data");
  EXPECT_EQ(events[1].type, lustre::ChangeLogType::kCreate);
  EXPECT_EQ(events[1].path, "/data/a.h5");
  EXPECT_EQ(events[2].type, lustre::ChangeLogType::kMtime);
  EXPECT_EQ(events[3].type, lustre::ChangeLogType::kUnlink);
  EXPECT_EQ(events[3].path, "/data/a.h5");
  EXPECT_EQ(events[3].flags, lustre::kFlagLastUnlink);

  const auto stats = collector.Stats();
  EXPECT_EQ(stats.extracted, 4u);
  EXPECT_EQ(stats.processed, 4u);
  EXPECT_EQ(stats.reported, 4u);
  EXPECT_EQ(stats.resolve_failures, 0u);
}

TEST_F(CollectorTest, PurgeClearsChangeLog) {
  auto sub = context_.CreateSub("inproc://monitor.collect", 1024);
  sub->Subscribe("");
  Collector collector(fs_, 0, profile_, authority_, context_, Config());
  ASSERT_TRUE(fs_.Create("/f1").ok());
  ASSERT_TRUE(fs_.Create("/f2").ok());
  collector.DrainOnce();
  EXPECT_EQ(fs_.Mds(0).changelog().RetainedCount(), 0u)
      << "collector is the only consumer; records reclaimed after clear";
  EXPECT_EQ(collector.Stats().last_cleared_index, 2u);
}

TEST_F(CollectorTest, NoPurgeRetainsRecords) {
  auto config = Config();
  config.purge = false;
  auto sub = context_.CreateSub(config.collect_endpoint, 1024);
  sub->Subscribe("");
  Collector collector(fs_, 0, profile_, authority_, context_, config);
  ASSERT_TRUE(fs_.Create("/f1").ok());
  collector.DrainOnce();
  EXPECT_EQ(fs_.Mds(0).changelog().RetainedCount(), 1u);
}

TEST_F(CollectorTest, EveryResolveModeProducesIdenticalPaths) {
  // Build a workload first; all four collectors then read the same log
  // (purging disabled so each sees every record).
  ASSERT_TRUE(fs_.MkdirAll("/m/a").ok());
  ASSERT_TRUE(fs_.MkdirAll("/m/b").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fs_.Create("/m/a/f" + std::to_string(i)).ok());
    ASSERT_TRUE(fs_.Create("/m/b/g" + std::to_string(i)).ok());
  }

  std::vector<std::vector<std::string>> per_mode_paths;
  const ResolveMode kModes[] = {ResolveMode::kPerEvent, ResolveMode::kBatched,
                                ResolveMode::kCached, ResolveMode::kBatchedCached};
  int endpoint_id = 0;
  for (const auto mode : kModes) {
    auto config = Config(mode);
    config.purge = false;
    config.collect_endpoint = "inproc://modes" + std::to_string(endpoint_id++);
    auto sub = context_.CreateSub(config.collect_endpoint, 4096);
    sub->Subscribe("");
    Collector collector(fs_, 0, profile_, authority_, context_, config);
    collector.DrainOnce();
    std::vector<std::string> paths;
    for (const auto& event : DrainEndpoint(*sub)) paths.push_back(event.path);
    per_mode_paths.push_back(std::move(paths));
  }
  for (size_t i = 1; i < per_mode_paths.size(); ++i) {
    EXPECT_EQ(per_mode_paths[i], per_mode_paths[0])
        << "mode " << ResolveModeName(kModes[i]);
  }
}

TEST_F(CollectorTest, CachedModeSurvivesDirectoryRename) {
  auto config = Config(ResolveMode::kCached);
  config.collect_endpoint = "inproc://rename";
  auto sub = context_.CreateSub(config.collect_endpoint, 4096);
  sub->Subscribe("");
  Collector collector(fs_, 0, profile_, authority_, context_, config);

  ASSERT_TRUE(fs_.MkdirAll("/proj/run1").ok());
  ASSERT_TRUE(fs_.Create("/proj/run1/a").ok());
  collector.DrainOnce();
  (void)DrainEndpoint(*sub);

  // Rename the directory, then create inside it: the cached parent path
  // must not leak the stale name.
  ASSERT_TRUE(fs_.Rename("/proj/run1", "/proj/run2").ok());
  ASSERT_TRUE(fs_.Create("/proj/run2/b").ok());
  collector.DrainOnce();
  const auto events = DrainEndpoint(*sub);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, lustre::ChangeLogType::kRename);
  EXPECT_EQ(events[0].path, "/proj/run2");
  EXPECT_EQ(events[0].source_path, "/proj/run1");
  EXPECT_EQ(events[1].path, "/proj/run2/b") << "stale cache would say /proj/run1/b";
}

TEST_F(CollectorTest, DeletedParentReportedWithFidsOnly) {
  auto config = Config();
  config.read_batch = 1000;
  Collector collector(fs_, 0, profile_, authority_, context_, config);
  auto sub = context_.CreateSub(config.collect_endpoint, 4096);
  sub->Subscribe("");

  ASSERT_TRUE(fs_.Mkdir("/tmp2").ok());
  ASSERT_TRUE(fs_.Create("/tmp2/x").ok());
  ASSERT_TRUE(fs_.Unlink("/tmp2/x").ok());
  ASSERT_TRUE(fs_.Rmdir("/tmp2").ok());
  // Only now does the collector see the batch: /tmp2 is already gone, so
  // resolving the UNLNK record's parent fails.
  collector.DrainOnce();
  const auto events = DrainEndpoint(*sub);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_TRUE(events[1].path.empty()) << "create of x: parent gone";
  EXPECT_FALSE(events[1].target_fid.IsZero()) << "FIDs still carried";
  EXPECT_GT(collector.Stats().resolve_failures, 0u);
}

TEST_F(CollectorTest, RestartResumesFromUnclearedRecords) {
  auto config = Config();
  config.collect_endpoint = "inproc://restart";
  auto sub = context_.CreateSub(config.collect_endpoint, 4096);
  sub->Subscribe("");
  {
    Collector first(fs_, 0, profile_, authority_, context_, config);
    ASSERT_TRUE(fs_.Create("/a").ok());
    first.DrainOnce();
    // /b journaled but never drained by `first`.
    ASSERT_TRUE(fs_.Create("/b").ok());
  }
  // `first` deregistered on destruction, but /b is still retained because
  // it was never cleared... actually deregistration drops retention owed
  // to `first`. A production deployment keeps the registration alive; we
  // model restart by creating the new collector while records remain.
  ASSERT_TRUE(fs_.Create("/c").ok());
  Collector second(fs_, 0, profile_, authority_, context_, config);
  second.DrainOnce();
  const auto events = DrainEndpoint(*sub);
  // `second` picks up from the oldest retained record.
  ASSERT_GE(events.size(), 1u);
  EXPECT_EQ(events.back().path, "/c");
}

TEST_F(CollectorTest, PublishBatchSplitsMessages) {
  auto config = Config();
  config.publish_batch = 3;
  config.collect_endpoint = "inproc://batching";
  auto sub = context_.CreateSub(config.collect_endpoint, 4096);
  sub->Subscribe("");
  Collector collector(fs_, 0, profile_, authority_, context_, config);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(fs_.Create("/bf" + std::to_string(i)).ok());
  }
  collector.DrainOnce();
  size_t messages = 0;
  size_t events = 0;
  while (auto message = sub->TryReceive()) {
    ++messages;
    events += DecodeEventBatch(message->bytes())->size();
  }
  EXPECT_EQ(events, 7u);
  EXPECT_EQ(messages, 3u);  // 3 + 3 + 1
}

TEST_F(CollectorTest, ReportMaskFiltersAtSource) {
  auto config = Config();
  config.collect_endpoint = "inproc://masked";
  config.report_mask = lustre::MaskOf(lustre::ChangeLogType::kCreate);
  auto sub = context_.CreateSub(config.collect_endpoint, 4096);
  sub->Subscribe("");
  Collector collector(fs_, 0, profile_, authority_, context_, config);
  ASSERT_TRUE(fs_.Mkdir("/mx").ok());
  ASSERT_TRUE(fs_.Create("/mx/a").ok());
  ASSERT_TRUE(fs_.WriteFile("/mx/a", 10).ok());
  ASSERT_TRUE(fs_.Unlink("/mx/a").ok());
  EXPECT_EQ(collector.DrainOnce(), 1u) << "only the CREAT survives the mask";
  const auto events = DrainEndpoint(*sub);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, lustre::ChangeLogType::kCreate);
  const auto stats = collector.Stats();
  EXPECT_EQ(stats.extracted, 4u);
  EXPECT_EQ(stats.filtered, 3u);
  EXPECT_EQ(stats.reported, 1u);
  // Filtered records are still cleared from the log.
  EXPECT_EQ(fs_.Mds(0).changelog().RetainedCount(), 0u);
}

TEST_F(CollectorTest, MissingAggregatorNeverLosesEvents) {
  // No subscriber on the collect endpoint: reporting fails, so the
  // collector must hold the extracted events instead of purging — and
  // deliver everything once an aggregator appears.
  auto config = Config();
  config.collect_endpoint = "inproc://absent";
  Collector collector(fs_, 0, profile_, authority_, context_, config);
  ASSERT_TRUE(fs_.Create("/orphan1").ok());
  ASSERT_TRUE(fs_.Create("/orphan2").ok());
  EXPECT_EQ(collector.DrainOnce(), 0u) << "nothing deliverable yet";
  EXPECT_EQ(fs_.Mds(0).changelog().RetainedCount(), 2u)
      << "records must survive the failed hand-off";
  EXPECT_EQ(collector.Stats().reported, 0u);

  // The aggregator (here: a bare subscriber) comes up; retry succeeds.
  auto sub = context_.CreateSub(config.collect_endpoint, 1024);
  sub->Subscribe("");
  EXPECT_EQ(collector.DrainOnce(), 2u);
  const auto events = DrainEndpoint(*sub);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].path, "/orphan1");
  EXPECT_EQ(fs_.Mds(0).changelog().RetainedCount(), 0u) << "now purged";
  EXPECT_EQ(collector.Stats().extracted, 2u) << "held events are not re-read";
  EXPECT_GE(collector.Stats().report_retries, 1u) << "the hold was retried";
}

TEST_F(CollectorTest, StartStopThreadDrains) {
  auto config = Config();
  config.poll_interval = Millis(1);
  config.collect_endpoint = "inproc://threaded";
  auto sub = context_.CreateSub(config.collect_endpoint, 4096);
  sub->Subscribe("");
  Collector collector(fs_, 0, profile_, authority_, context_, config);
  collector.Start();
  collector.Start();  // idempotent
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs_.Create("/tf" + std::to_string(i)).ok());
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (collector.Stats().reported < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  collector.Stop();
  collector.Stop();  // idempotent
  EXPECT_EQ(collector.Stats().reported, 10u);
}

// A collector that stopped with its reports abandoned (no aggregator was
// reachable) resumes from its first unpurged record when started again:
// the abandoned records are delivered, not retained forever behind the
// cursor.
TEST_F(CollectorTest, RestartAfterAbandonedReportsDeliversThem) {
  auto config = Config();
  config.poll_interval = Millis(1);
  config.collect_endpoint = "inproc://abandon";
  Collector collector(fs_, 0, profile_, authority_, context_, config);
  collector.Start();
  ASSERT_TRUE(fs_.Create("/r1").ok());
  ASSERT_TRUE(fs_.Create("/r2").ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (collector.Stats().report_retries == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  collector.Stop();
  ASSERT_EQ(collector.Stats().terminal, CollectorTerminal::kReportsAbandoned);
  ASSERT_EQ(fs_.Mds(0).changelog().RetainedCount(), 2u);

  auto sub = context_.CreateSub(config.collect_endpoint, 1024);
  sub->Subscribe("");
  collector.Start();
  while (collector.Stats().reported < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  collector.Stop();
  const auto events = DrainEndpoint(*sub);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].path, "/r1");
  EXPECT_EQ(events[1].path, "/r2");
  EXPECT_EQ(fs_.Mds(0).changelog().RetainedCount(), 0u);
  EXPECT_EQ(collector.Stats().terminal, CollectorTerminal::kCleanStop);
}

// A clean stop keeps its cursor: with purging off nothing is cleared, so
// a rewind on restart would deliver every record a second time.
TEST_F(CollectorTest, CleanRestartKeepsItsCursor) {
  auto config = Config();
  config.poll_interval = Millis(1);
  config.purge = false;
  config.collect_endpoint = "inproc://clean-restart";
  auto sub = context_.CreateSub(config.collect_endpoint, 1024);
  sub->Subscribe("");
  Collector collector(fs_, 0, profile_, authority_, context_, config);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto await_reported = [&](uint64_t n) {
    while (collector.Stats().reported < n && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  collector.Start();
  ASSERT_TRUE(fs_.Create("/k1").ok());
  ASSERT_TRUE(fs_.Create("/k2").ok());
  await_reported(2);
  collector.Stop();
  ASSERT_EQ(collector.Stats().terminal, CollectorTerminal::kCleanStop);
  collector.Start();
  ASSERT_TRUE(fs_.Create("/k3").ok());
  await_reported(3);
  collector.Stop();
  const auto events = DrainEndpoint(*sub);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].path, "/k3");
  EXPECT_EQ(collector.Stats().reported, 3u);
}

// Follow mode: an idle reader waits in ChangeLog::WaitForRecords for one
// resolver chunk (read_batch / (2 * workers) = 128 records at defaults),
// with poll_interval as the longest wait for a partial chunk. With a
// poll_interval of one real hour, only a working follow wake (or Stop)
// can finish these tests inside their 30 s deadlines.
class CollectorFollowTest : public CollectorTest {
 protected:
  static constexpr size_t kChunk = 128;
  static constexpr std::chrono::seconds kDeadline{30};

  CollectorConfig FollowConfig(std::chrono::nanoseconds real_poll) {
    CollectorConfig config = Config();
    config.poll_interval = VirtualFor(real_poll);
    config.metrics = metrics_;
    config.collect_endpoint = "inproc://follow";
    return config;
  }

  // Blocks until the started collector's reader is parked in its follow
  // wait, so the records appended next are all counted from one index.
  void AwaitReaderFollowing() {
    const auto& changelog = fs_.Mds(0).changelog();
    const auto until = std::chrono::steady_clock::now() + kDeadline;
    size_t followers = 0;
    while ((followers = changelog.Followers()) == 0 &&
           std::chrono::steady_clock::now() < until) {
      std::this_thread::yield();
    }
    ASSERT_EQ(followers, 1u);
  }

  // Polls the collector's reported count until it reaches `n` or the
  // deadline passes.
  bool ReportsWithinDeadline(const Collector& collector, uint64_t n) {
    const auto until = std::chrono::steady_clock::now() + kDeadline;
    while (collector.Stats().reported < n) {
      if (std::chrono::steady_clock::now() >= until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  uint64_t Wakes(const char* reason) {
    return metrics_
        ->GetCounter("sdci_collector_follow_wakes_total",
                     {{"mdt", "0"}, {"reason", reason}})
        ->Get();
  }

  std::shared_ptr<MetricsRegistry> metrics_ = std::make_shared<MetricsRegistry>();
};

TEST_F(CollectorFollowTest, OneChunkWakesTheReaderBeforeThePollInterval) {
  auto config = FollowConfig(std::chrono::hours(1));
  auto sub = context_.CreateSub(config.collect_endpoint, 4096);
  sub->Subscribe("");
  Collector collector(fs_, 0, profile_, authority_, context_, config);
  collector.Start();
  AwaitReaderFollowing();
  for (size_t i = 0; i < kChunk; ++i) {
    ASSERT_TRUE(fs_.Create("/chunk" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(ReportsWithinDeadline(collector, kChunk))
      << "one chunk of records did not wake the reader";
  EXPECT_EQ(Wakes("records"), 1u);
  EXPECT_EQ(Wakes("timeout"), 0u);
  // Stop must not wait out the hour either (would hang this test).
  collector.Stop();
  EXPECT_EQ(collector.Stats().reported, kChunk);
  EXPECT_EQ(DrainEndpoint(*sub).size(), kChunk);
}

TEST_F(CollectorFollowTest, StopEndsAFollowWaitPromptly) {
  Collector collector(fs_, 0, profile_, authority_, context_,
                      FollowConfig(std::chrono::hours(1)));
  collector.Start();
  AwaitReaderFollowing();
  auto stopped = std::async(std::launch::async, [&] { collector.Stop(); });
  ASSERT_EQ(stopped.wait_for(kDeadline), std::future_status::ready)
      << "Stop waited out the poll interval";
  EXPECT_EQ(fs_.Mds(0).changelog().Followers(), 0u);
  EXPECT_EQ(Wakes("records") + Wakes("timeout"), 0u) << "a stopped wait is no wake";
}

TEST_F(CollectorFollowTest, ReaderBehindAFullyPurgedLogStillBlocks) {
  // A first collector reads and clears 200 records, so the log retains
  // nothing. A second collector starts its cursor at index 1, below the
  // purge: its follow wait must block rather than count the purged
  // records as a ready chunk and spin.
  {
    auto sub = context_.CreateSub("inproc://monitor.collect", 1024);
    sub->Subscribe("");
    Collector first(fs_, 0, profile_, authority_, context_, Config());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(fs_.Create("/old" + std::to_string(i)).ok());
    }
    EXPECT_EQ(first.DrainOnce(), 200u);
  }
  ASSERT_EQ(fs_.Mds(0).changelog().RetainedCount(), 0u);
  auto config = FollowConfig(std::chrono::hours(1));
  auto sub = context_.CreateSub(config.collect_endpoint, 4096);
  sub->Subscribe("");
  Collector collector(fs_, 0, profile_, authority_, context_, config);
  collector.Start();
  AwaitReaderFollowing();
  EXPECT_EQ(Wakes("records"), 0u);
  for (size_t i = 0; i < kChunk; ++i) {
    ASSERT_TRUE(fs_.Create("/new" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(ReportsWithinDeadline(collector, kChunk));
  EXPECT_EQ(Wakes("records"), 1u);
  collector.Stop();
}

TEST_F(CollectorFollowTest, TrickleBelowOneChunkIsReportedAfterThePollInterval) {
  const auto poll = std::chrono::milliseconds(200);
  auto config = FollowConfig(poll);
  auto sub = context_.CreateSub(config.collect_endpoint, 4096);
  sub->Subscribe("");
  Collector collector(fs_, 0, profile_, authority_, context_, config);
  // Every follow wait starts after Start(), so none times out earlier
  // than one poll from here.
  const auto start = std::chrono::steady_clock::now();
  collector.Start();
  AwaitReaderFollowing();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fs_.Create("/trickle" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(ReportsWithinDeadline(collector, 3));
  // Three records are no chunk: only the timeout could have read them.
  EXPECT_GE(std::chrono::steady_clock::now() - start, poll);
  EXPECT_EQ(Wakes("records"), 0u);
  EXPECT_GE(Wakes("timeout"), 1u);
  collector.Stop();
  EXPECT_EQ(DrainEndpoint(*sub).size(), 3u);
}

}  // namespace
}  // namespace sdci::monitor
