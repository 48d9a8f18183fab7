// Self-test of the benchmark's own checking code: a clean log passes, and
// each injected fault (a lost event, a duplicate, a reorder, a wrong
// action, a wrong history page) raises the failure count. Also pins the
// tail rule of the percentile helper. Exits non-zero on the first miss.
#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"
#include "stats.h"

namespace {

using perfbench::Delivery;
using sdci::lustre::ChangeLogType;

int g_failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

constexpr size_t kMdts = 4;
constexpr size_t kShards = 2;
constexpr uint64_t kPerMdt = 6;

std::string PathOf(size_t mdt, uint64_t index) {
  const char* suffix = index % 3 == 0 ? ".h5" : ".dat";
  return "/lab/d" + std::to_string(mdt) + "/f" + std::to_string(index) + suffix;
}

perfbench::Oracle MakeOracle() {
  perfbench::Oracle oracle(kMdts);
  for (uint64_t index = 1; index <= kPerMdt; ++index) {
    for (size_t mdt = 0; mdt < kMdts; ++mdt) {
      oracle.Expect(static_cast<int>(mdt), ChangeLogType::kCreate, PathOf(mdt, index), 0);
    }
  }
  return oracle;
}

// A correct delivery log: MDT-interleaved, each shard's seq dense from 1.
std::vector<Delivery> CleanLog() {
  std::vector<Delivery> log;
  std::vector<uint64_t> seq(kShards, 0);
  for (uint64_t index = 1; index <= kPerMdt; ++index) {
    for (size_t mdt = 0; mdt < kMdts; ++mdt) {
      Delivery d;
      d.mdt = static_cast<int32_t>(mdt);
      d.shard = static_cast<uint32_t>(mdt % kShards);
      d.record_index = index;
      d.global_seq = ++seq[d.shard];
      d.time_ns = static_cast<int64_t>(index * 100 + mdt);
      d.path_hash = perfbench::PathHash(PathOf(mdt, index));
      d.type = static_cast<uint8_t>(ChangeLogType::kCreate);
      log.push_back(d);
    }
  }
  return log;
}

std::vector<sdci::ripple::Rule> Rules() {
  std::vector<sdci::ripple::Rule> rules;
  for (size_t mdt = 0; mdt < kMdts; ++mdt) {
    sdci::ripple::Rule rule;
    rule.id = "r" + std::to_string(mdt);
    rule.trigger.event_mask = sdci::ripple::kCreated;
    rule.trigger.path_glob = sdci::Glob("/lab/d" + std::to_string(mdt) + "/*.h5");
    rules.push_back(rule);
  }
  return rules;
}

void TestDeliveries() {
  const perfbench::Oracle oracle = MakeOracle();
  const std::vector<Delivery> clean = CleanLog();
  Expect(perfbench::CheckDeliveries(oracle, clean, kShards).failures() == 0,
         "a clean delivery log has no failures");

  auto lost = clean;
  lost.erase(lost.begin() + 5);
  const auto lost_check = perfbench::CheckDeliveries(oracle, lost, kShards);
  Expect(lost_check.lost == 1 && lost_check.failures() > 0, "a lost event is a failure");

  auto duplicate = clean;
  duplicate.push_back(duplicate[3]);
  Expect(perfbench::CheckDeliveries(oracle, duplicate, kShards).duplicated == 1,
         "a duplicated event is a failure");

  auto reorder = clean;
  std::swap(reorder[0], reorder[kMdts]);  // MDT 0: record 2 before record 1
  Expect(perfbench::CheckDeliveries(oracle, reorder, kShards).reordered > 0,
         "an event delivered out of per-MDT order is a failure");

  auto wrong_path = clean;
  wrong_path[7].path_hash ^= 1;
  Expect(perfbench::CheckDeliveries(oracle, wrong_path, kShards).wrong == 1,
         "an event with the wrong path is a failure");

  auto gap = clean;
  gap[9].global_seq += 1;
  Expect(perfbench::CheckDeliveries(oracle, gap, kShards).seq_errors > 0,
         "a global_seq gap is a failure");
}

void TestActions() {
  const perfbench::Oracle oracle = MakeOracle();
  const auto expected = perfbench::ExpectedActions(oracle, Rules(), 1);
  Expect(expected.size() == kMdts * (kPerMdt / 3), "every .h5 create matches one rule");
  std::vector<perfbench::ExecutedAction> executed;
  for (const auto& key : expected) executed.push_back({key, 0});
  Expect(perfbench::CheckActions(expected, executed).failures() == 0,
         "the exact action set has no failures");

  auto wrong = executed;
  wrong[0].key.rule_id = "r-other";
  const auto wrong_check = perfbench::CheckActions(expected, wrong);
  Expect(wrong_check.missing == 1 && wrong_check.unexpected == 1,
         "a wrong action is a missing and an unexpected action");

  auto duplicate = executed;
  duplicate.push_back(duplicate[1]);
  Expect(perfbench::CheckActions(expected, duplicate).duplicated == 1,
         "a duplicated action is a failure");

  auto missing = executed;
  missing.pop_back();
  Expect(perfbench::CheckActions(expected, missing).missing == 1,
         "a missing action is a failure");
}

void TestPages() {
  const std::vector<Delivery> log = CleanLog();
  perfbench::Page page;
  page.kind = perfbench::Page::Kind::kShardSeq;
  page.ok = true;
  page.shard = 1;
  page.from_seq = 3;
  page.max = 4;
  for (const Delivery& d : log) {
    if (d.shard == 1 && d.global_seq >= 3 && d.global_seq < 7) {
      page.events.push_back({d.shard, d.global_seq, d.mdt, d.record_index, d.time_ns});
    }
  }
  perfbench::Page window;
  window.kind = perfbench::Page::Kind::kTimeRange;
  window.ok = true;
  window.from_time = 200;
  window.to_time = 400;
  for (const Delivery& d : log) {
    if (d.time_ns >= 200 && d.time_ns < 400) {
      window.events.push_back({d.shard, d.global_seq, d.mdt, d.record_index, d.time_ns});
    }
  }
  Expect(perfbench::CheckPages({page, window}, log).bad == 0, "correct pages pass");

  auto short_page = page;
  short_page.events.pop_back();
  auto wrong_page = page;
  wrong_page.events[1].record_index += 1;
  auto partial_window = window;
  partial_window.partial = true;
  auto missing_window = window;
  missing_window.events.erase(missing_window.events.begin());
  auto timed_out = page;
  timed_out.ok = false;
  Expect(perfbench::CheckPages({short_page, wrong_page, partial_window, missing_window,
                                timed_out},
                               log)
                 .bad == 5,
         "short, wrong, partial, incomplete and timed-out pages are failures");
}

void TestTailQuantile() {
  std::vector<double> samples;
  for (int i = 1; i <= 999; ++i) samples.push_back(i);
  Expect(!perfbench::TailQuantile(samples, 0.99).has_value(),
         "p99 of 999 samples (9 beyond) is refused");
  samples.push_back(1000);
  const auto p99 = perfbench::TailQuantile(samples, 0.99);
  Expect(p99.has_value() && p99->value == 990 && p99->beyond == 10 && p99->samples == 1000,
         "p99 of 1000 samples is the 990th with 10 beyond");
  const auto p50 = perfbench::TailQuantile(samples, 0.5);
  Expect(p50.has_value() && p50->value == 500, "p50 is the nearest rank");
  const auto small_median = perfbench::TailQuantile({3, 1, 2}, 0.5, 0);
  Expect(small_median.has_value() && small_median->value == 2,
         "a median needs no tail");
}

}  // namespace

int main() {
  TestDeliveries();
  TestActions();
  TestPages();
  TestTailQuantile();
  if (g_failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
