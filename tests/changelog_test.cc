#include "lustre/changelog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stop_token>
#include <thread>

#include "common/rng.h"

namespace sdci::lustre {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

ChangeLogRecord MakeRecord(ChangeLogType type, std::string name) {
  ChangeLogRecord record;
  record.type = type;
  record.target = Fid{kFidSeqBase, 2, 0};
  record.parent = Fid::Root();
  record.name = std::move(name);
  return record;
}

TEST(ChangeLogType, NamesAndCodes) {
  EXPECT_EQ(ChangeLogTypeName(ChangeLogType::kCreate), "CREAT");
  EXPECT_EQ(ChangeLogTypeName(ChangeLogType::kUnlink), "UNLNK");
  EXPECT_EQ(ChangeLogTypeCode(ChangeLogType::kCreate), "01CREAT");
  EXPECT_EQ(ChangeLogTypeCode(ChangeLogType::kMkdir), "02MKDIR");
  EXPECT_EQ(ChangeLogTypeCode(ChangeLogType::kAtime), "19ATIME");
}

TEST(ChangeLogType, ParseBothForms) {
  EXPECT_EQ(*ParseChangeLogType("CREAT"), ChangeLogType::kCreate);
  EXPECT_EQ(*ParseChangeLogType("01CREAT"), ChangeLogType::kCreate);
  EXPECT_EQ(*ParseChangeLogType("06UNLNK"), ChangeLogType::kUnlink);
  EXPECT_FALSE(ParseChangeLogType("NOPE").ok());
  EXPECT_FALSE(ParseChangeLogType("").ok());
}

TEST(ChangeLogRecord, RenderMatchesTable1Layout) {
  ChangeLogRecord record = MakeRecord(ChangeLogType::kCreate, "data1.txt");
  record.index = 13106;
  record.time = std::chrono::hours(20) + std::chrono::minutes(15) +
                std::chrono::seconds(37) + std::chrono::microseconds(113800);
  record.target = Fid{0x200000402ull, 0xa046, 0};
  EXPECT_EQ(record.Render(),
            "13106 01CREAT 20:15:37.1138 2017.09.06 0x0 "
            "t=[0x200000402:0xa046:0x0] p=[0x200000007:0x1:0x0] data1.txt");
}

TEST(ChangeLogRecord, RenderIncludesRenameSource) {
  ChangeLogRecord record = MakeRecord(ChangeLogType::kRename, "new.txt");
  record.index = 1;
  record.source_parent = Fid::Root();
  record.source_name = "old.txt";
  EXPECT_NE(record.Render().find("s=[0x200000007:0x1:0x0] sname=old.txt"),
            std::string::npos);
}

TEST(ChangeLogRecord, ParseDumpLineRoundTrip) {
  ChangeLogRecord record = MakeRecord(ChangeLogType::kCreate, "data1.txt");
  record.index = 13106;
  record.time = std::chrono::hours(20) + std::chrono::minutes(15) +
                std::chrono::seconds(37) + std::chrono::microseconds(113800);
  record.flags = 0x1;
  auto parsed = ChangeLogRecord::ParseDumpLine(record.Render());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->index, record.index);
  EXPECT_EQ(parsed->type, record.type);
  EXPECT_EQ(parsed->time, record.time);
  EXPECT_EQ(parsed->flags, record.flags);
  EXPECT_EQ(parsed->target, record.target);
  EXPECT_EQ(parsed->parent, record.parent);
  EXPECT_EQ(parsed->name, record.name);
}

TEST(ChangeLogRecord, ParseDumpLineRenameExtension) {
  ChangeLogRecord record = MakeRecord(ChangeLogType::kRename, "new.txt");
  record.index = 7;
  record.source_parent = Fid{kFidSeqBase, 5, 0};
  record.source_name = "old.txt";
  auto parsed = ChangeLogRecord::ParseDumpLine(record.Render());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->source_parent, record.source_parent);
  EXPECT_EQ(parsed->source_name, "old.txt");
  EXPECT_EQ(parsed->name, "new.txt");
}

TEST(ChangeLogRecord, ParseDumpLineFromPaper) {
  auto parsed = ChangeLogRecord::ParseDumpLine(
      "13106 01CREAT 20:15:37.1138 2017.09.06 0x0 "
      "t=[0x200000402:0xa046:0x0] p=[0x200000007:0x1:0x0] data1.txt");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->index, 13106u);
  EXPECT_EQ(parsed->type, ChangeLogType::kCreate);
  EXPECT_EQ(parsed->name, "data1.txt");
}

TEST(ChangeLogRecord, ParseDumpLineRejectsMalformed) {
  const char* cases[] = {
      "",
      "13106 01CREAT",
      "x 01CREAT 20:15:37.1138 2017.09.06 0x0 t=[0x1:0x1:0x0] p=[0x1:0x1:0x0] n",
      "1 99BOGUS 20:15:37.1138 2017.09.06 0x0 t=[0x1:0x1:0x0] p=[0x1:0x1:0x0] n",
      "1 01CREAT 20:77:37.1138 2017.09.06 0x0 t=[0x1:0x1:0x0] p=[0x1:0x1:0x0] n",
      "1 01CREAT 20:15:37.1138 baddate 0x0 t=[0x1:0x1:0x0] p=[0x1:0x1:0x0] n",
      "1 01CREAT 20:15:37.1138 2017.09.06 0x0 t=[bad] p=[0x1:0x1:0x0] n",
  };
  for (const char* line : cases) {
    EXPECT_FALSE(ChangeLogRecord::ParseDumpLine(line).ok()) << line;
  }
}

TEST(ChangeLog, AppendAssignsMonotonicIndices) {
  ChangeLog log(0);
  EXPECT_EQ(log.Append(MakeRecord(ChangeLogType::kCreate, "a")), 1u);
  EXPECT_EQ(log.Append(MakeRecord(ChangeLogType::kCreate, "b")), 2u);
  EXPECT_EQ(log.FirstIndex(), 1u);
  EXPECT_EQ(log.LastIndex(), 2u);
  EXPECT_EQ(log.RetainedCount(), 2u);
  EXPECT_EQ(log.TotalAppended(), 2u);
}

TEST(ChangeLog, ReadFromArbitraryIndex) {
  ChangeLog log(0);
  for (int i = 0; i < 10; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "f"));
  std::vector<ChangeLogRecord> out;
  EXPECT_EQ(log.ReadFrom(4, 3, out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].index, 4u);
  EXPECT_EQ(out[2].index, 6u);
  out.clear();
  EXPECT_EQ(log.ReadFrom(100, 10, out), 0u);
  // Start below FirstIndex reads from the oldest retained record.
  out.clear();
  EXPECT_EQ(log.ReadFrom(0, 2, out), 2u);
  EXPECT_EQ(out[0].index, 1u);
}

TEST(ChangeLog, ClearReclaimsOnlyWhenAllConsumersAgree) {
  ChangeLog log(0);
  const ConsumerId c1 = log.RegisterConsumer();
  const ConsumerId c2 = log.RegisterConsumer();
  for (int i = 0; i < 10; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "f"));

  ASSERT_TRUE(log.Clear(c1, 7).ok());
  EXPECT_EQ(log.FirstIndex(), 1u) << "c2 has not consumed yet";
  ASSERT_TRUE(log.Clear(c2, 4).ok());
  EXPECT_EQ(log.FirstIndex(), 5u) << "min(7, 4) = 4 reclaimed";
  EXPECT_EQ(log.RetainedCount(), 6u);
  ASSERT_TRUE(log.Clear(c2, 10).ok());
  EXPECT_EQ(log.FirstIndex(), 8u);
}

TEST(ChangeLog, ClearIsMonotonic) {
  ChangeLog log(0);
  const ConsumerId c = log.RegisterConsumer();
  for (int i = 0; i < 5; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "f"));
  ASSERT_TRUE(log.Clear(c, 4).ok());
  ASSERT_TRUE(log.Clear(c, 2).ok());  // lower clear is a no-op, not a rewind
  EXPECT_EQ(log.FirstIndex(), 5u);
}

TEST(ChangeLog, ClearValidation) {
  ChangeLog log(0);
  const ConsumerId c = log.RegisterConsumer();
  log.Append(MakeRecord(ChangeLogType::kCreate, "f"));
  EXPECT_EQ(log.Clear(999, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(log.Clear(c, 5).code(), StatusCode::kOutOfRange);
}

TEST(ChangeLog, DeregisterReleasesRetention) {
  ChangeLog log(0);
  const ConsumerId c1 = log.RegisterConsumer();
  const ConsumerId c2 = log.RegisterConsumer();
  for (int i = 0; i < 4; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "f"));
  ASSERT_TRUE(log.Clear(c1, 4).ok());
  EXPECT_EQ(log.RetainedCount(), 4u);
  ASSERT_TRUE(log.DeregisterConsumer(c2).ok());
  EXPECT_EQ(log.RetainedCount(), 0u);
  EXPECT_EQ(log.DeregisterConsumer(c2).code(), StatusCode::kNotFound);
}

TEST(ChangeLog, LateConsumerOnlyOwedNewRecords) {
  ChangeLog log(0);
  const ConsumerId c1 = log.RegisterConsumer();
  log.Append(MakeRecord(ChangeLogType::kCreate, "a"));
  log.Append(MakeRecord(ChangeLogType::kCreate, "b"));
  ASSERT_TRUE(log.Clear(c1, 2).ok());
  EXPECT_EQ(log.RetainedCount(), 0u);
  const ConsumerId c2 = log.RegisterConsumer();
  log.Append(MakeRecord(ChangeLogType::kCreate, "c"));
  ASSERT_TRUE(log.Clear(c1, 3).ok());
  EXPECT_EQ(log.RetainedCount(), 1u) << "c2 still owed record 3";
  ASSERT_TRUE(log.Clear(c2, 3).ok());
  EXPECT_EQ(log.RetainedCount(), 0u);
}

TEST(ChangeLog, NoConsumersMeansRetention) {
  ChangeLog log(0);
  for (int i = 0; i < 3; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "f"));
  EXPECT_EQ(log.RetainedCount(), 3u);
}

TEST(ChangeLog, DumpRestoreRoundTrip) {
  ChangeLog original(0);
  for (int i = 0; i < 5; ++i) {
    original.Append(MakeRecord(ChangeLogType::kCreate, "f" + std::to_string(i)));
  }
  // Reclaim a prefix so the dump starts above index 1.
  const ConsumerId c = original.RegisterConsumer();
  ASSERT_TRUE(original.Clear(c, 2).ok());

  ChangeLog restored(0);
  ASSERT_TRUE(restored.RestoreFromDump(original.SerializeDump()).ok());
  EXPECT_EQ(restored.FirstIndex(), 3u);
  EXPECT_EQ(restored.LastIndex(), 5u);
  EXPECT_EQ(restored.RetainedCount(), 3u);
  std::vector<ChangeLogRecord> records;
  restored.ReadFrom(3, 10, records);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "f2");
  // New appends continue the sequence.
  EXPECT_EQ(restored.Append(MakeRecord(ChangeLogType::kCreate, "new")), 6u);
}

TEST(ChangeLog, RestoreValidation) {
  ChangeLog nonempty(0);
  nonempty.Append(MakeRecord(ChangeLogType::kCreate, "x"));
  EXPECT_EQ(nonempty.RestoreFromDump("").code(), StatusCode::kFailedPrecondition);

  ChangeLog empty(0);
  EXPECT_TRUE(empty.RestoreFromDump("\n\n").ok()) << "blank dump is fine";
  ChangeLog gaps(0);
  ChangeLogRecord a = MakeRecord(ChangeLogType::kCreate, "a");
  a.index = 1;
  ChangeLogRecord b = MakeRecord(ChangeLogType::kCreate, "b");
  b.index = 5;  // gap
  EXPECT_EQ(gaps.RestoreFromDump(a.Render() + "\n" + b.Render() + "\n").code(),
            StatusCode::kInvalidArgument);
  ChangeLog garbage(0);
  EXPECT_FALSE(garbage.RestoreFromDump("not a record\n").ok());
}

TEST(ChangeLog, MemoryAccountingFollowsRetention) {
  ChangeLog log(0);
  const ConsumerId c = log.RegisterConsumer();
  for (int i = 0; i < 100; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "file"));
  const uint64_t full = log.memory().CurrentBytes();
  EXPECT_GT(full, 0u);
  ASSERT_TRUE(log.Clear(c, 100).ok());
  EXPECT_EQ(log.memory().CurrentBytes(), 0u);
  EXPECT_EQ(log.memory().PeakBytes(), full);
}

// Follow mode. A wait that should have woken fails on a generous
// std::async deadline instead of a tight wall-clock bound, so a loaded
// host cannot fail these tests; only a lost or missing wakeup can.
constexpr seconds kDeadline{30};
// Outlasts kDeadline, so only a wake ends the wait in time, yet bounds how
// long a failed test blocks joining its waiter.
constexpr seconds kForever{2 * kDeadline};

// Spins until `log` has `n` registered follow waits.
void AwaitFollowers(const ChangeLog& log, size_t n) {
  const auto until = std::chrono::steady_clock::now() + kDeadline;
  while (log.Followers() != n && std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
  ASSERT_EQ(log.Followers(), n);
}

TEST(ChangeLogFollow, WaiterWakesAtItsThreshold) {
  ChangeLog log(0);
  for (int i = 0; i < 2; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "old"));
  // Already there on entry: no wait at all.
  EXPECT_TRUE(log.WaitForRecords(1, 2, kForever, {}));
  EXPECT_EQ(log.Followers(), 0u);

  // Three records from index 3: the third append (index 5) is the one.
  auto waiter = std::async(std::launch::async,
                           [&] { return log.WaitForRecords(3, 3, kForever, {}); });
  AwaitFollowers(log, 1);
  log.Append(MakeRecord(ChangeLogType::kCreate, "a"));
  log.Append(MakeRecord(ChangeLogType::kCreate, "b"));
  EXPECT_EQ(waiter.wait_for(milliseconds(20)), std::future_status::timeout)
      << "woke two records short of its threshold";
  EXPECT_EQ(log.Followers(), 1u);
  log.Append(MakeRecord(ChangeLogType::kCreate, "c"));
  ASSERT_EQ(waiter.wait_for(kDeadline), std::future_status::ready)
      << "the threshold record did not wake the waiter";
  EXPECT_TRUE(waiter.get());
  EXPECT_EQ(log.Followers(), 0u);
}

TEST(ChangeLogFollow, WaiterBelowItsThresholdTimesOut) {
  ChangeLog log(0);
  log.Append(MakeRecord(ChangeLogType::kCreate, "a"));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(log.WaitForRecords(1, 4, milliseconds(50), {}));
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(50));
  EXPECT_EQ(log.Followers(), 0u) << "a timed-out wait must unregister";
  // Later appends reach nobody; a new wait counts them.
  for (int i = 0; i < 3; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "b"));
  EXPECT_TRUE(log.WaitForRecords(1, 4, milliseconds(0), {}));
}

TEST(ChangeLogFollow, PurgedRecordsDoNotEndTheWait) {
  // As in ReadFrom, a cursor below the oldest retained record counts from
  // there: 200 records appended and cleared leave nothing to read from
  // index 1, so a wait for one record from index 1 must block.
  ChangeLog log(0);
  const ConsumerId consumer = log.RegisterConsumer();
  for (int i = 0; i < 200; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "old"));
  ASSERT_TRUE(log.Clear(consumer, 200).ok());
  ASSERT_EQ(log.RetainedCount(), 0u);
  EXPECT_FALSE(log.WaitForRecords(1, 1, milliseconds(0), {}));
  log.Append(MakeRecord(ChangeLogType::kCreate, "new"));
  EXPECT_TRUE(log.WaitForRecords(1, 1, milliseconds(0), {}));
  EXPECT_FALSE(log.WaitForRecords(1, 2, milliseconds(0), {}));
  EXPECT_EQ(log.Followers(), 0u);
}

TEST(ChangeLogFollow, StopTokenInterruptsTheWait) {
  ChangeLog log(0);
  std::stop_source stopped;
  stopped.request_stop();
  EXPECT_FALSE(log.WaitForRecords(1, 1, kForever, stopped.get_token()));
  EXPECT_EQ(log.Followers(), 0u);

  std::stop_source source;
  auto waiter = std::async(std::launch::async, [&] {
    return log.WaitForRecords(1, 1, kForever, source.get_token());
  });
  AwaitFollowers(log, 1);
  source.request_stop();
  ASSERT_EQ(waiter.wait_for(kDeadline), std::future_status::ready)
      << "request_stop did not end the wait";
  EXPECT_FALSE(waiter.get());
  EXPECT_EQ(log.Followers(), 0u);
}

TEST(ChangeLogFollow, TwoWaitersWakeAtTheirOwnTargets) {
  ChangeLog log(0);
  auto near = std::async(std::launch::async,
                         [&] { return log.WaitForRecords(1, 2, kForever, {}); });
  auto far = std::async(std::launch::async,
                        [&] { return log.WaitForRecords(1, 5, kForever, {}); });
  AwaitFollowers(log, 2);
  log.Append(MakeRecord(ChangeLogType::kCreate, "1"));
  log.Append(MakeRecord(ChangeLogType::kCreate, "2"));
  ASSERT_EQ(near.wait_for(kDeadline), std::future_status::ready);
  EXPECT_TRUE(near.get());
  EXPECT_EQ(far.wait_for(milliseconds(20)), std::future_status::timeout)
      << "the far waiter woke at the near waiter's target";
  EXPECT_EQ(log.Followers(), 1u);
  for (int i = 3; i <= 5; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "n"));
  ASSERT_EQ(far.wait_for(kDeadline), std::future_status::ready);
  EXPECT_TRUE(far.get());
  EXPECT_EQ(log.Followers(), 0u);
}

TEST(ChangeLogFollow, AppendRacingRegistrationNeverLosesTheWakeup) {
  // Each round the waiter asks for the next 1-3 records as soon as the
  // previous round ends, while the appender, after a random pause, adds
  // exactly those records: the threshold append races the waiter's
  // registration in every window. A met threshold must end the wait; a
  // lost wakeup shows as a wait that runs out its timeout and returns
  // false.
  constexpr int kRounds = 2000;
  ChangeLog log(0);
  std::atomic<int> done{0};
  auto waiter = std::async(std::launch::async, [&] {
    uint64_t start = 1;
    for (int round = 0; round < kRounds; ++round) {
      const size_t count = 1 + static_cast<size_t>(round % 3);
      if (!log.WaitForRecords(start, count, kDeadline, {})) {
        ADD_FAILURE() << "round " << round << " waited out its timeout";
        return;
      }
      start += count;
      done.store(round + 1, std::memory_order_release);
    }
  });
  Rng rng(11);
  for (int round = 0; round < kRounds; ++round) {
    const int count = 1 + round % 3;
    for (int i = 0; i < count; ++i) {
      switch (rng.NextBelow(3)) {
        case 0:
          break;
        case 1:
          std::this_thread::yield();
          break;
        default:
          std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      log.Append(MakeRecord(ChangeLogType::kCreate, "r"));
    }
    // One round in flight at a time, so the next round's appends race
    // the registration that follows this round's wake.
    while (done.load(std::memory_order_acquire) <= round &&
           waiter.wait_for(seconds(0)) != std::future_status::ready) {
      std::this_thread::yield();
    }
    ASSERT_GT(done.load(std::memory_order_acquire), round) << "round " << round;
  }
  waiter.get();
  EXPECT_EQ(log.Followers(), 0u);
}

}  // namespace
}  // namespace sdci::lustre
