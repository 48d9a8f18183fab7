#include "monitor/event_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>

#include "common/rng.h"

#if defined(__SANITIZE_THREAD__)
#define SDCI_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDCI_TSAN 1
#endif
#endif

namespace sdci::monitor {
namespace {

FsEvent EventWithSeq(uint64_t seq) {
  FsEvent event;
  event.global_seq = seq;
  event.time = Micros(static_cast<int64_t>(seq) * 1000);
  event.path = "/p/f" + std::to_string(seq);
  return event;
}

// One event as a batch of its own.
void AppendOne(EventStore& store, FsEvent event) {
  store.Append(EventBatch(std::vector<FsEvent>{std::move(event)}));
}

// Sequences [first, last] in batches of `batch_size` (times: seq ms).
void AppendRange(EventStore& store, uint64_t first, uint64_t last, size_t batch_size) {
  std::vector<FsEvent> batch;
  for (uint64_t s = first; s <= last; ++s) {
    batch.push_back(EventWithSeq(s));
    if (batch.size() == batch_size || s == last) {
      store.Append(EventBatch(std::move(batch)));
      batch.clear();
    }
  }
}

std::vector<uint64_t> Seqs(const std::vector<FsEvent>& events) {
  std::vector<uint64_t> seqs;
  seqs.reserve(events.size());
  for (const FsEvent& event : events) seqs.push_back(event.global_seq);
  return seqs;
}

// The store's contract as a linear scan: the newest `capacity` events
// appended, filtered and capped, oldest first.
class LinearOracle {
 public:
  explicit LinearOracle(size_t capacity) : capacity_(capacity) {}

  void Append(const std::vector<FsEvent>& batch) {
    all_.insert(all_.end(), batch.begin(), batch.end());
  }

  [[nodiscard]] std::vector<uint64_t> Query(uint64_t from_seq, size_t max,
                                            uint64_t* first_available) const {
    const auto window = Window();
    *first_available = window.empty() ? 0 : window.front().global_seq;
    std::vector<uint64_t> out;
    for (const FsEvent& event : window) {
      if (out.size() == max) break;
      if (event.global_seq >= from_seq) out.push_back(event.global_seq);
    }
    return out;
  }

  [[nodiscard]] std::vector<uint64_t> TimeRange(VirtualTime from, VirtualTime to,
                                                size_t max) const {
    std::vector<uint64_t> out;
    for (const FsEvent& event : Window()) {
      if (out.size() == max) break;
      if (event.time >= from && event.time < to) out.push_back(event.global_seq);
    }
    return out;
  }

  [[nodiscard]] size_t Size() const { return Window().size(); }

 private:
  [[nodiscard]] std::span<const FsEvent> Window() const {
    const size_t n = std::min(all_.size(), capacity_);
    return {all_.data() + (all_.size() - n), n};
  }

  size_t capacity_;
  std::vector<FsEvent> all_;
};

TEST(EventStore, AppendAndQueryAll) {
  EventStore store(100);
  for (uint64_t s = 1; s <= 10; ++s) AppendOne(store, EventWithSeq(s));
  EXPECT_EQ(store.Size(), 10u);
  EXPECT_EQ(store.FirstSeq(), 1u);
  EXPECT_EQ(store.LastSeq(), 10u);
  const auto events = store.Query(1, 100);
  ASSERT_EQ(events.size(), 10u);
  EXPECT_EQ(events.front().global_seq, 1u);
  EXPECT_EQ(events.back().global_seq, 10u);
}

TEST(EventStore, QueryFromMidAndMax) {
  EventStore store(100);
  for (uint64_t s = 1; s <= 10; ++s) AppendOne(store, EventWithSeq(s));
  const auto events = store.Query(5, 3);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].global_seq, 5u);
  EXPECT_EQ(events[2].global_seq, 7u);
  EXPECT_TRUE(store.Query(11, 10).empty());
}

TEST(EventStore, RotationEvictsOldest) {
  EventStore store(5);
  for (uint64_t s = 1; s <= 12; ++s) AppendOne(store, EventWithSeq(s));
  EXPECT_EQ(store.Size(), 5u);
  EXPECT_EQ(store.FirstSeq(), 8u);
  EXPECT_EQ(store.TotalAppended(), 12u);
  uint64_t first_available = 0;
  const auto events = store.Query(1, 100, &first_available);
  EXPECT_EQ(first_available, 8u) << "caller can detect the gap";
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].global_seq, 8u);
}

TEST(EventStore, QueryTimeRange) {
  EventStore store(100);
  for (uint64_t s = 1; s <= 10; ++s) AppendOne(store, EventWithSeq(s));
  // times are s*1000us; [3000us, 6000us) covers seq 3..5
  const auto events = store.QueryTimeRange(Micros(3000), Micros(6000), 100);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].global_seq, 3u);
  EXPECT_EQ(events[2].global_seq, 5u);
}

TEST(EventStore, MemoryFollowsRotation) {
  EventStore store(4);
  for (uint64_t s = 1; s <= 4; ++s) AppendOne(store, EventWithSeq(s));
  const uint64_t full = store.memory().CurrentBytes();
  EXPECT_GT(full, 0u);
  for (uint64_t s = 5; s <= 50; ++s) AppendOne(store, EventWithSeq(s));
  // Still ~4 events retained; memory should not balloon.
  EXPECT_LT(store.memory().CurrentBytes(), full * 2);
  EXPECT_GE(store.memory().PeakBytes(), store.memory().CurrentBytes());
}

TEST(EventStore, EmptyStore) {
  EventStore store(10);
  EXPECT_EQ(store.FirstSeq(), 0u);
  EXPECT_EQ(store.LastSeq(), 0u);
  EXPECT_TRUE(store.Query(0, 10).empty());
}

// Regression for the binary-search QueryTimeRange: on monotone appends it
// must return exactly what the linear scan did — boundary inclusivity,
// duplicate timestamps, and the max cap included.
TEST(EventStore, QueryTimeRangeMatchesLinearScan) {
  EventStore store(64);
  uint64_t seq = 0;
  // Duplicate timestamps (several events per tick) and gaps.
  for (int tick : {1, 1, 1, 4, 4, 9, 9, 9, 9, 12, 20, 20, 31}) {
    auto event = EventWithSeq(++seq);
    event.time = Micros(tick);
    AppendOne(store, event);
  }
  const auto scan = [&](VirtualTime from, VirtualTime to, size_t max) {
    std::vector<uint64_t> seqs;
    for (uint64_t s = 1; s <= seq && seqs.size() < max; ++s) {
      const auto all = store.Query(s, 1);
      if (!all.empty() && all[0].global_seq == s && all[0].time >= from &&
          all[0].time < to) {
        seqs.push_back(s);
      }
    }
    return seqs;
  };
  for (const auto& [from, to] : std::vector<std::pair<int, int>>{
           {0, 100}, {1, 1}, {1, 2}, {1, 9}, {9, 10}, {4, 21}, {31, 32}, {32, 99}}) {
    const auto got = store.QueryTimeRange(Micros(from), Micros(to), 100);
    const auto want = scan(Micros(from), Micros(to), 100);
    ASSERT_EQ(got.size(), want.size()) << "range [" << from << "," << to << ")";
    for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].global_seq, want[i]);
  }
  // The max cap takes the *oldest* max matches, same as the scan always did.
  const auto capped = store.QueryTimeRange(Micros(0), Micros(100), 4);
  ASSERT_EQ(capped.size(), 4u);
  EXPECT_EQ(capped[0].global_seq, 1u);
  EXPECT_EQ(capped[3].global_seq, 4u);
}

TEST(EventStore, QueryTimeRangeSurvivesOutOfOrderAppends) {
  EventStore store(64);
  auto a = EventWithSeq(1);
  a.time = Micros(50);
  auto b = EventWithSeq(2);
  b.time = Micros(10);  // time regression: store must fall back to scanning
  auto c = EventWithSeq(3);
  c.time = Micros(30);
  AppendOne(store, a);
  AppendOne(store, b);
  AppendOne(store, c);
  const auto events = store.QueryTimeRange(Micros(10), Micros(40), 100);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].global_seq, 2u);
  EXPECT_EQ(events[1].global_seq, 3u);
}

// ---- Batch seams and rotation: a linear scan is the oracle. ----

// Randomized (but deterministic) append/query interleavings with batch
// sizes 1–96 and a capacity well below the total, so rotation keeps
// trimming the front batch part-way: every Query and QueryTimeRange must
// answer exactly like a linear scan over the newest `capacity` events.
TEST(EventStore, MatchesLinearScanOracleOnRandomizedQueries) {
  constexpr size_t kCapacity = 1000;
  Rng rng(20260806);
  EventStore store(kCapacity);
  LinearOracle oracle(kCapacity);
  uint64_t seq = 0;
  int64_t time_us = 0;
  for (int round = 0; round < 200; ++round) {
    const auto batch_size = static_cast<size_t>(rng.NextInt(1, 96));
    std::vector<FsEvent> batch;
    for (size_t i = 0; i < batch_size; ++i) {
      FsEvent event = EventWithSeq(++seq);
      // Mostly monotone times with occasional duplicates (several events
      // per tick), as the pipeline produces.
      if (!rng.NextBool(0.3)) time_us += rng.NextInt(0, 5);
      event.time = Micros(time_us);
      batch.push_back(std::move(event));
    }
    oracle.Append(batch);
    store.Append(EventBatch(std::move(batch)));

    const auto from_seq = static_cast<uint64_t>(rng.NextInt(0, static_cast<int64_t>(seq) + 2));
    const auto max = static_cast<size_t>(rng.NextInt(0, 300));
    uint64_t got_first = 0;
    uint64_t want_first = 0;
    const auto got = store.Query(from_seq, max, &got_first);
    ASSERT_EQ(Seqs(got), oracle.Query(from_seq, max, &want_first))
        << "round " << round << " from " << from_seq << " max " << max;
    EXPECT_EQ(got_first, want_first);
    for (const FsEvent& event : got) {
      EXPECT_EQ(event.path, "/p/f" + std::to_string(event.global_seq));
    }

    const int64_t from_t = rng.NextInt(0, time_us + 2);
    const int64_t to_t = from_t + rng.NextInt(0, time_us / 2 + 2);
    ASSERT_EQ(Seqs(store.QueryTimeRange(Micros(from_t), Micros(to_t), max)),
              oracle.TimeRange(Micros(from_t), Micros(to_t), max))
        << "round " << round << " [" << from_t << "," << to_t << ") max " << max;
    ASSERT_EQ(store.Size(), oracle.Size());
  }
  ASSERT_GT(seq, 4 * kCapacity) << "the run must rotate many times";
  EXPECT_EQ(store.TotalAppended(), seq);
  EXPECT_EQ(store.FirstSeq(), seq - kCapacity + 1);
  EXPECT_EQ(store.LastSeq(), seq);
}

// One appender rotating the store under concurrent QueryTimeRange readers:
// readers never crash and never see a duplicate, out-of-order, foreign or
// out-of-range event, and once the appender joins the store agrees with
// the linear oracle exactly.
TEST(EventStore, ConcurrentTimeRangeQueriesMatchOracle) {
#ifdef SDCI_TSAN
  constexpr int kBatches = 120;
#else
  constexpr int kBatches = 600;
#endif
  constexpr size_t kBatchSize = 16;
  constexpr size_t kCapacity = kBatches * kBatchSize / 2;

  // Pre-generate every batch so the appender and the oracle see identical
  // data.
  std::vector<std::vector<FsEvent>> batches;
  uint64_t seq = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<FsEvent> batch;
    for (size_t i = 0; i < kBatchSize; ++i) {
      FsEvent event = EventWithSeq(++seq);
      event.time = Micros(static_cast<int64_t>(seq));  // monotone times
      batch.push_back(std::move(event));
    }
    batches.push_back(std::move(batch));
  }
  LinearOracle oracle(kCapacity);
  for (const auto& batch : batches) oracle.Append(batch);

  EventStore store(kCapacity);
  std::atomic<bool> done{false};
  std::vector<std::jthread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(991 + r);
      while (!done.load(std::memory_order_acquire)) {
        const int64_t from = rng.NextInt(0, kBatches * static_cast<int64_t>(kBatchSize));
        const int64_t to = from + rng.NextInt(1, 512);
        const auto got = store.QueryTimeRange(Micros(from), Micros(to), 256);
        for (size_t i = 1; i < got.size(); ++i) {
          ASSERT_GT(got[i].global_seq, got[i - 1].global_seq);
        }
        for (const FsEvent& event : got) {
          // Every result is a real event (times encode sequence here).
          ASSERT_EQ(event.time, Micros(static_cast<int64_t>(event.global_seq)));
          ASSERT_GE(event.time, Micros(from));
          ASSERT_LT(event.time, Micros(to));
        }
      }
    });
  }
  std::jthread appender([&] {
    for (const auto& batch : batches) store.Append(EventBatch(batch));
  });
  appender.join();
  done.store(true, std::memory_order_release);
  readers.clear();  // join readers

  Rng rng(31337);
  for (int probe = 0; probe < 50; ++probe) {
    const int64_t from = rng.NextInt(0, static_cast<int64_t>(seq) + 2);
    const int64_t to = from + rng.NextInt(0, 2048);
    ASSERT_EQ(Seqs(store.QueryTimeRange(Micros(from), Micros(to), 400)),
              oracle.TimeRange(Micros(from), Micros(to), 400))
        << "[" << from << "," << to << ")";
  }
  EXPECT_EQ(store.Size(), oracle.Size());
  EXPECT_EQ(store.LastSeq(), seq);
}

// Rotation with uneven batch sizes trims the front batch part-way: the
// window must still be exactly the newest 64 sequences, gap-free, with
// first_available at its head — a backfilling consumer trusts
// first_available to mean "everything from here on is present".
TEST(EventStore, RotationNeverExposesMidRangeHoles) {
  EventStore store(64);
  uint64_t seq = 0;
  for (int round = 0; round < 40; ++round) {
    const size_t batch_size = 1 + (static_cast<size_t>(round) * 7) % 96;
    AppendRange(store, seq + 1, seq + batch_size, batch_size);
    seq += batch_size;

    uint64_t first_available = 0;
    const auto events = store.Query(0, 1u << 20, &first_available);
    ASSERT_EQ(events.size(), std::min<uint64_t>(seq, 64)) << "round " << round;
    EXPECT_EQ(first_available, seq - events.size() + 1);
    EXPECT_EQ(events.front().global_seq, first_available);
    EXPECT_EQ(events.back().global_seq, seq);
    for (size_t i = 1; i < events.size(); ++i) {
      ASSERT_EQ(events[i].global_seq, events[i - 1].global_seq + 1)
          << "hole after rotation, round " << round;
    }
  }
  EXPECT_EQ(store.TotalAppended(), seq);
}

// An out-of-order time, inside a batch or at a batch seam, drops the store
// to linear scans; results stay exact either way.
TEST(EventStore, OutOfOrderTimesStayQueryable) {
  for (const uint64_t regressed : {145u, 151u}) {  // mid-batch, batch head
    EventStore store(1024);
    std::vector<FsEvent> batch;
    for (uint64_t s = 1; s <= 300; ++s) {
      FsEvent event = EventWithSeq(s);
      event.time = s == regressed ? Micros(1) : Micros(static_cast<int64_t>(s) * 10);
      batch.push_back(std::move(event));
      if (batch.size() == 10) {
        store.Append(EventBatch(std::move(batch)));
        batch.clear();
      }
    }
    const auto events = store.QueryTimeRange(Micros(0), Micros(100), 1u << 10);
    // times < 100us: seqs 1..9 (10..90us) plus the regressed one (1us).
    ASSERT_EQ(events.size(), 10u) << "regressed seq " << regressed;
    EXPECT_EQ(events.front().global_seq, 1u);
    EXPECT_EQ(events.back().global_seq, regressed);
  }
}

// Pages that start one before, on, or one after a batch seam, and end
// at or around one, come back as exactly the contiguous range.
TEST(EventStore, PagesExactAtBatchSeams) {
  EventStore store(1u << 12);
  AppendRange(store, 1, 512, 64);
  for (const uint64_t from : {63u, 64u, 65u, 127u, 128u, 129u, 191u, 256u, 257u}) {
    for (const size_t max : {1u, 63u, 64u, 65u, 128u}) {
      const auto events = store.Query(from, max);
      ASSERT_EQ(events.size(), std::min<size_t>(max, 512 - from + 1))
          << "from=" << from << " max=" << max;
      for (size_t i = 0; i < events.size(); ++i) {
        ASSERT_EQ(events[i].global_seq, from + i)
            << "seam broke order at from=" << from << " max=" << max;
      }
    }
  }
}

// A time range whose matches straddle a batch seam comes back seq-ordered
// and truncated by max to its *lowest* sequences.
TEST(EventStore, TimeRangeTruncatesAcrossBatchSeams) {
  EventStore store(1u << 12);
  AppendRange(store, 1, 256, 64);
  // times are s ms; [60ms, 70ms) covers seqs 60..69, across the 64|65 seam.
  const auto events = store.QueryTimeRange(Micros(60000), Micros(70000), 1u << 10);
  ASSERT_EQ(events.size(), 10u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].global_seq, 60 + i);
  }
  const auto truncated = store.QueryTimeRange(Micros(60000), Micros(70000), 6);
  ASSERT_EQ(truncated.size(), 6u);
  EXPECT_EQ(truncated.front().global_seq, 60u);
  EXPECT_EQ(truncated.back().global_seq, 65u);
}

// Rotation landing exactly on a batch edge frees whole batches and hides
// nothing; landing mid-batch hides the front batch's head. Either way
// the window is the newest `capacity` sequences.
TEST(EventStore, RotationAtBatchEdgeKeepsPagesContiguous) {
  for (const size_t capacity : {128u, 100u}) {
    EventStore store(capacity);
    AppendRange(store, 1, 384, 32);
    const uint64_t head = 384 - capacity + 1;
    uint64_t first_available = 0;
    const auto events = store.Query(0, 1u << 20, &first_available);
    ASSERT_EQ(events.size(), capacity);
    EXPECT_EQ(store.Size(), capacity);
    EXPECT_EQ(first_available, head);
    EXPECT_EQ(store.FirstSeq(), head);
    for (size_t i = 0; i < events.size(); ++i) {
      ASSERT_EQ(events[i].global_seq, head + i);
    }
    // A page from inside the hidden head starts at first_available.
    const auto page = store.Query(head - 5, 5, &first_available);
    ASSERT_EQ(page.size(), 5u);
    EXPECT_EQ(page.front().global_seq, head);
    const auto range = store.QueryTimeRange(Micros(0), Micros(1 << 30), 3);
    ASSERT_EQ(range.size(), 3u);
    EXPECT_EQ(range.front().global_seq, head);
  }
}

// The WAL role: a group lands as one commit, and replaying the snapshot
// (the front batch's hidden head included) into a store of the same
// capacity rebuilds the same window.
TEST(EventStore, SnapshotReplayRebuildsTheWindow) {
  EventStore wal(100);
  std::vector<EventBatch> group;
  uint64_t seq = 0;
  for (int b = 0; b < 12; ++b) {
    std::vector<FsEvent> batch;
    for (int i = 0; i < 24; ++i) batch.push_back(EventWithSeq(++seq));
    group.emplace_back(std::move(batch));
    if (group.size() == 4) {
      wal.AppendGroup(group);
      group.clear();
    }
  }
  wal.AppendGroup({});  // nothing appended, no commit
  EXPECT_EQ(wal.Commits(), 3u);
  EXPECT_EQ(wal.TotalAppended(), seq);

  EventStore restored(100);
  size_t batches = 0;
  for (const EventBatch& batch : wal.Snapshot()) {
    restored.Append(batch);
    ++batches;
  }
  EXPECT_EQ(batches, 5u) << "5 x 24 events are the fewest that cover 100";
  uint64_t want_first = 0;
  uint64_t got_first = 0;
  EXPECT_EQ(Seqs(restored.Query(0, 1000, &got_first)), Seqs(wal.Query(0, 1000, &want_first)));
  EXPECT_EQ(got_first, want_first);
  EXPECT_EQ(got_first, seq - 99);
  EXPECT_EQ(restored.Size(), wal.Size());
}

// Query reads first_available and collects the page under one lock. Read
// apart, a rotation between the two returned a page that started above
// both from_seq and first_available: a hole a backfilling consumer
// skipped without counting it lost.
TEST(EventStore, QueryFirstAvailableAndPageShareOneSnapshot) {
  EventStore store(256);
  std::atomic<bool> done{false};
  std::jthread writer([&] {
    uint64_t seq = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<FsEvent> batch;
      for (int i = 0; i < 16; ++i) batch.push_back(EventWithSeq(++seq));
      store.Append(EventBatch(std::move(batch)));
    }
  });
  while (store.FirstSeq() == 0) std::this_thread::yield();
  size_t queries = 0;
  size_t torn = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (std::chrono::steady_clock::now() < deadline) {
    const uint64_t from = store.FirstSeq();
    uint64_t first_available = 0;
    const auto page = store.Query(from, 64, &first_available);
    ++queries;
    if (page.empty() || page.front().global_seq != std::max(from, first_available)) ++torn;
  }
  done.store(true, std::memory_order_release);
  EXPECT_EQ(torn, 0u) << "of " << queries << " queries";
}

// A page aliases its source batches' payload bytes until it is
// materialized; appends that rotate those batches out meanwhile must not
// free the bytes under the reader. The store holds the only reference to
// each payload here, so a premature free is a use-after-free ASan reports.
TEST(EventStore, PagesOutliveRotation) {
  EventStore store(64);
  std::atomic<bool> done{false};
  std::jthread writer([&] {
    Rng rng(7);
    uint64_t seq = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<FsEvent> batch;
      const auto size = rng.NextInt(1, 8);
      for (int64_t i = 0; i < size; ++i) batch.push_back(EventWithSeq(++seq));
      auto bound = EventBatch::FromPayload(EncodeEventBatch(batch));
      ASSERT_TRUE(bound.ok());
      store.Append(*bound);
    }
  });
  while (store.FirstSeq() == 0) std::this_thread::yield();
#ifdef SDCI_TSAN
  constexpr int kQueries = 2000;
#else
  constexpr int kQueries = 20000;
#endif
  for (int q = 0; q < kQueries; ++q) {
    const auto page = q % 2 == 0
                          ? store.Query(store.FirstSeq(), 64)
                          : store.QueryTimeRange(VirtualTime(0), VirtualTime(INT64_MAX), 64);
    ASSERT_FALSE(page.empty());
    for (size_t i = 0; i < page.size(); ++i) {
      const FsEvent& event = page[i];
      ASSERT_EQ(event.path, "/p/f" + std::to_string(event.global_seq));
      ASSERT_EQ(event.time, Micros(static_cast<int64_t>(event.global_seq) * 1000));
      if (i > 0) {
        ASSERT_EQ(event.global_seq, page[i - 1].global_seq + 1);
      }
    }
  }
  done.store(true, std::memory_order_release);
}

}  // namespace
}  // namespace sdci::monitor
