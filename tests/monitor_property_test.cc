// Monitor-level property tests: random concurrent workloads against the
// full Collector->Aggregator pipeline.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "monitor/consumer.h"
#include "monitor/monitor.h"

namespace sdci::monitor {
namespace {

uint64_t TotalAppended(const lustre::FileSystem& fs) {
  uint64_t total = 0;
  for (size_t m = 0; m < fs.MdsCount(); ++m) {
    total += fs.Mds(m).changelog().TotalAppended();
  }
  return total;
}

void WaitDrained(const lustre::FileSystem& fs, Monitor& monitor) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (std::chrono::steady_clock::now() < deadline) {
    if (monitor.Stats().aggregator.published == TotalAppended(fs)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  FAIL() << "drain timeout";
}

class MonitorPathProperty : public ::testing::TestWithParam<uint64_t> {};

// Append-only workload running concurrently with the monitor: every
// delivered path must resolve (via Lookup) to the event's target FID —
// paths can never go stale when nothing is renamed or deleted.
TEST_P(MonitorPathProperty, DeliveredPathsAlwaysResolveToTargetFid) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  auto fs_config = lustre::FileSystemConfig::FromProfile(profile);
  fs_config.mds_count = 2;
  fs_config.dir_placement = lustre::DirPlacement::kHashName;
  lustre::FileSystem fs(fs_config, authority);
  msgq::Context context;
  MonitorConfig config;
  config.collector.poll_interval = Millis(1);
  config.collector.resolve_mode = ResolveMode::kBatchedCached;
  Monitor monitor(fs, profile, authority, context, config);
  EventSubscriber consumer(context, config.aggregator.publish_endpoint, "fsevent.",
                           1u << 16, msgq::HwmPolicy::kBlock);
  monitor.Start();

  Rng rng(GetParam());
  std::vector<std::string> dirs{"/"};
  for (int step = 0; step < 400; ++step) {
    const std::string parent = dirs[rng.NextBelow(dirs.size())];
    const std::string prefix = parent == "/" ? "" : parent;
    if (rng.NextBool(0.3)) {
      const std::string path = prefix + "/d" + std::to_string(step);
      if (fs.Mkdir(path).ok()) dirs.push_back(path);
    } else if (rng.NextBool(0.5)) {
      (void)fs.Create(prefix + "/f" + std::to_string(step));
    } else if (!dirs.empty()) {
      (void)fs.Create(prefix + "/g" + std::to_string(step));
    }
  }
  WaitDrained(fs, monitor);
  monitor.Stop();

  size_t checked = 0;
  while (auto event = consumer.TryNext()) {
    ASSERT_FALSE(event->path.empty()) << event->ToString();
    auto fid = fs.Lookup(event->path);
    ASSERT_TRUE(fid.ok()) << event->path;
    EXPECT_EQ(*fid, event->target_fid) << event->path;
    ++checked;
  }
  EXPECT_GT(checked, 300u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorPathProperty, ::testing::Values(7, 14, 21));

class MonitorChurnProperty : public ::testing::TestWithParam<uint64_t> {};

// Full-churn workload (renames, deletes, rmdirs) against the cached
// resolver: exactly one event per journaled record is delivered, in
// per-MDS order, and events always carry their FIDs even when path
// resolution raced a deletion.
TEST_P(MonitorChurnProperty, ExactlyOnceInOrderUnderChurn) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  auto fs_config = lustre::FileSystemConfig::FromProfile(profile);
  fs_config.mds_count = 3;
  fs_config.dir_placement = lustre::DirPlacement::kRoundRobin;
  lustre::FileSystem fs(fs_config, authority);
  msgq::Context context;
  MonitorConfig config;
  config.collector.poll_interval = Millis(1);
  config.collector.resolve_mode = ResolveMode::kCached;
  Monitor monitor(fs, profile, authority, context, config);
  EventSubscriber consumer(context, config.aggregator.publish_endpoint, "fsevent.",
                           1u << 16, msgq::HwmPolicy::kBlock);
  monitor.Start();

  Rng rng(GetParam());
  std::vector<std::string> dirs{"/"};
  std::vector<std::string> files;
  for (int step = 0; step < 600; ++step) {
    const size_t op = rng.NextWeighted({3, 5, 2, 2, 1});
    const std::string parent = dirs[rng.NextBelow(dirs.size())];
    const std::string prefix = parent == "/" ? "" : parent;
    switch (op) {
      case 0:
        if (fs.Mkdir(prefix + "/d" + std::to_string(step)).ok()) {
          dirs.push_back(prefix + "/d" + std::to_string(step));
        }
        break;
      case 1:
        if (fs.Create(prefix + "/f" + std::to_string(step)).ok()) {
          files.push_back(prefix + "/f" + std::to_string(step));
        }
        break;
      case 2:
        if (!files.empty()) {
          const size_t i = rng.NextBelow(files.size());
          if (fs.Unlink(files[i]).ok()) {
            files[i] = files.back();
            files.pop_back();
          }
        }
        break;
      case 3:
        if (!files.empty()) {
          const size_t i = rng.NextBelow(files.size());
          const std::string to = prefix + "/r" + std::to_string(step);
          if (fs.Rename(files[i], to).ok()) files[i] = to;
        }
        break;
      case 4:
        if (dirs.size() > 1) {
          const size_t i = 1 + rng.NextBelow(dirs.size() - 1);
          if (fs.Rmdir(dirs[i]).ok()) {
            dirs[i] = dirs.back();
            dirs.pop_back();
          }
        }
        break;
    }
  }
  WaitDrained(fs, monitor);
  monitor.Stop();

  const uint64_t journaled = TotalAppended(fs);
  std::map<int, uint64_t> last_index;
  std::set<std::pair<int, uint64_t>> seen;
  uint64_t received = 0;
  while (auto event = consumer.TryNext()) {
    ++received;
    EXPECT_TRUE(seen.emplace(event->mdt_index, event->record_index).second)
        << "duplicate delivery";
    auto& prev = last_index[event->mdt_index];
    EXPECT_GT(event->record_index, prev) << "per-MDS order violated";
    prev = event->record_index;
    EXPECT_FALSE(event->target_fid.IsZero());
  }
  EXPECT_EQ(received, journaled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorChurnProperty, ::testing::Values(31, 62, 93));

TEST(MonitorLatency, HistogramsPopulate) {
  TimeAuthority authority(2000.0);
  const auto profile = lustre::TestbedProfile::Test();
  lustre::FileSystem fs(lustre::FileSystemConfig::FromProfile(profile), authority);
  msgq::Context context;
  MonitorConfig config;
  config.collector.poll_interval = Millis(1);
  Monitor monitor(fs, profile, authority, context, config);
  monitor.Start();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fs.Create("/lat" + std::to_string(i)).ok());
  }
  WaitDrained(fs, monitor);
  monitor.Stop();
  const auto& detect = monitor.collector(0).detection_latency();
  EXPECT_EQ(detect.Count(), 50u);
  EXPECT_GT(detect.Mean(), VirtualDuration::zero());
  const auto& deliver = monitor.fleet().shard(0).delivery_latency();
  EXPECT_EQ(deliver.Count(), 50u);
  // Per event, delivery happens after the detection hand-off — but the two
  // timestamps are taken by different threads, and at 2000x dilation a few
  // microseconds of real scheduler skew between them inflates to
  // milliseconds of virtual time. Compare exact-sum means (quantiles are
  // bucket-interpolated on top of that) with a dilated-noise allowance.
  EXPECT_GE(deliver.Mean() + Millis(100), detect.Mean())
      << "delivery includes detection";
  EXPECT_FALSE(deliver.Summary().empty());
}

}  // namespace
}  // namespace sdci::monitor
