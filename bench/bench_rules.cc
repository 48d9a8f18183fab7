// Rule-engine dispatch at scale: prices the compiled RuleIndex against the
// naive linear glob sweep it replaced, across 1k -> 1M installed rules.
//
// The workload models a multi-tenant site: most rules are per-tenant
// namespace policies ("/tenants/t00042/data/**/*.h5"), a slice are
// project globs, run-directory class patterns and exact literals, and ~1%
// are pathological catch-alls ("*.tmp") that cannot be anchored. Events
// arrive as v4 wire batches (256 events each) with realistic same-
// directory runs, and evaluation walks the bound views zero-copy — the
// exact agent hot path.
//
// Claims gated by scripts/check.sh --bench-json (BENCH_rules.json):
//   rule_index_speedup_100k      >= 10   (indexed vs linear at 100k rules)
//   rule_index_flatness_1m_vs_1k <= 3.0  (1M rules costs <= 3x 1k rules
//                                         per event: O(matching-rules),
//                                         not O(rules))
//
// Report-only: index_update_{1k,1m}_us, the median cost of one
// copy-on-write With() plus one Without() on the built index (a rule
// install and removal through the control plane, minus the publish).
//
// Flags: --quick (1k/10k only, no gates), --json out.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "monitor/event.h"
#include "monitor/wire_v4.h"
#include "ripple/rule.h"
#include "ripple/rule_index.h"

namespace sdci::bench {
namespace {

using ripple::Rule;
using ripple::RuleIndex;

constexpr const char* kExts[] = {"h5", "tif", "dat", "csv"};

std::string TenantDir(uint64_t tenant) {
  return strings::Format("/tenants/t{}", 100000 + tenant);
}

// One synthetic rule. `i` indexes the rule; tenants cycle so ~4 rules
// share each tenant namespace.
Rule MakeRule(uint64_t i, uint64_t tenants, Rng& rng) {
  Rule rule;
  rule.id = strings::Format("r{}", 10000000 + i);
  rule.tenant = strings::Format("t{}", i % tenants);
  rule.action.agent = "exec";
  rule.watch_agent = "site";
  const std::string dir = TenantDir(i % tenants);
  const char* ext = kExts[i % 4];
  const uint64_t shape = rng.NextBelow(100);
  if (shape < 70) {
    // The bread-and-butter tenant policy: recursive glob under one dir.
    rule.trigger.path_glob =
        Glob(strings::Format("{}/data/**/*.{}", dir, ext));
  } else if (shape < 80) {
    rule.trigger.path_glob =
        Glob(strings::Format("{}/run[0-9]/out.{}", dir, ext));
  } else if (shape < 90) {
    rule.trigger.path_glob =
        Glob(strings::Format("{}/proj-*/raw/*.{}", dir, ext));
  } else if (shape < 99) {
    rule.trigger.path_glob =
        Glob(strings::Format("{}/data/final.{}", dir, ext));  // exact
  } else {
    // ~1% unanchorable catch-alls: the worst case for any index.
    rule.trigger.path_glob = Glob(strings::Format("*.{}", ext));
    rule.trigger.event_mask = ripple::kDeleted;  // confined to one bucket
  }
  return rule;
}

// Event batches with same-directory runs (how changelog streams arrive):
// each burst picks a directory — usually some tenant's data tree, often
// one with no rule anchored near it — and emits 1..16 siblings.
std::vector<std::string> MakePayloads(size_t events, uint64_t tenants, Rng& rng) {
  std::vector<std::string> payloads;
  std::vector<monitor::FsEvent> batch;
  batch.reserve(256);
  size_t emitted = 0;
  uint64_t seq = 1;
  while (emitted < events) {
    std::string dir;
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 35) {
      dir = TenantDir(rng.NextBelow(tenants)) + "/data/run" +
            std::to_string(rng.NextBelow(10));
    } else if (kind < 55) {
      dir = TenantDir(rng.NextBelow(tenants)) + "/scratch";  // no rules here
    } else if (kind < 75) {
      // A tenant id beyond every rule's: misses fall out of the trie fast.
      dir = TenantDir(tenants + rng.NextBelow(tenants)) + "/data";
    } else {
      dir = "/shared/instrument/beam" + std::to_string(rng.NextBelow(8));
    }
    const size_t burst = 1 + rng.NextBelow(16);
    for (size_t b = 0; b < burst && emitted < events; ++b, ++emitted) {
      monitor::FsEvent event;
      event.type = rng.NextBool(0.8) ? lustre::ChangeLogType::kCreate
                                     : lustre::ChangeLogType::kMtime;
      event.global_seq = seq++;
      event.name = strings::Format("f{}.{}", rng.NextBelow(1000),
                                   kExts[rng.NextBelow(4)]);
      event.path = dir + "/" + event.name;
      batch.push_back(std::move(event));
      if (batch.size() == 256) {
        payloads.push_back(monitor::EncodeEventBatch(batch));
        batch.clear();
      }
    }
  }
  if (!batch.empty()) payloads.push_back(monitor::EncodeEventBatch(batch));
  return payloads;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SweepPoint {
  size_t rules = 0;
  double build_ms = 0;
  double indexed_ns = 0;   // per event, batched zero-copy path
  double update_us = 0;    // one With + one Without (1k and 1M only)
  size_t matched = 0;
  RuleIndex::Layout layout;
};

// Best-of-3 batched evaluation over pre-bound views.
double TimeIndexed(const RuleIndex& index,
                   const std::vector<monitor::wire::EventBatchView>& views,
                   size_t events, size_t* matched_out) {
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    RuleIndex::Scratch scratch;
    std::vector<uint32_t> matched;
    size_t total = 0;
    const double start = NowMs();
    for (const auto& view : views) {
      matched.clear();
      total += index.EvaluateBatch(view, scratch, matched);
    }
    const double elapsed = NowMs() - start;
    best = std::min(best, elapsed);
    *matched_out = total;
  }
  return best * 1e6 / static_cast<double>(events);  // ms -> ns/event
}

// Median wall time of one With() plus one Without() of a fresh tenant
// rule on `index` (each pair starts from `index`, so the trie shape does
// not drift across samples).
double TimeUpdate(const RuleIndex& index, uint64_t tenants, Rng& rng) {
  constexpr int kSamples = 201;
  std::vector<double> us;
  us.reserve(kSamples);
  for (int k = 0; k < kSamples; ++k) {
    auto rule = std::make_shared<const Rule>(MakeRule(90000000 + k, tenants, rng));
    const double start = NowMs();
    const auto grown = index.With(rule);
    const auto shrunk = grown->Without(*rule);
    us.push_back((NowMs() - start) * 1e3);
    if (shrunk->size() != index.size()) std::printf("impossible\n");
  }
  std::nth_element(us.begin(), us.begin() + kSamples / 2, us.end());
  return us[kSamples / 2];
}

// The replaced engine: first-match linear sweep with Trigger::Matches.
double TimeLinear(const std::vector<Rule>& rules,
                  const std::vector<monitor::FsEvent>& events) {
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    size_t hits = 0;
    const double start = NowMs();
    for (const auto& event : events) {
      for (const auto& rule : rules) {
        if (rule.enabled && rule.trigger.Matches(event)) {
          ++hits;
          break;
        }
      }
    }
    const double elapsed = NowMs() - start;
    best = std::min(best, elapsed);
    if (hits == events.size() + 1) std::printf("impossible\n");  // keep hits live
  }
  return best * 1e6 / static_cast<double>(events.size());
}

}  // namespace
}  // namespace sdci::bench

int main(int argc, char** argv) {
  using namespace sdci;
  using namespace sdci::bench;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const std::string json_path = JsonOutPath(argc, argv);

  std::vector<size_t> sizes = {1000, 10000, 100000, 1000000};
  if (quick) sizes = {1000, 10000};
  constexpr size_t kEvents = 20000;        // indexed measurement corpus
  constexpr size_t kLinearEvents = 200;    // linear sweep is priced sparsely

  MetricSet metrics;
  std::vector<std::vector<std::string>> table;
  table.push_back({"rules", "build_ms", "update_us", "indexed_ns/ev", "matched",
                   "trie_nodes", "anchored", "catch_all"});

  double ns_1k = 0, ns_1m = 0, linear_100k = 0, indexed_100k = 0;
  for (const size_t size : sizes) {
    Rng rng(42);
    const uint64_t tenants = std::max<uint64_t>(size / 4, 1);
    ripple::RuleIndex::Builder builder;
    std::vector<Rule> rules;
    rules.reserve(size);
    for (uint64_t i = 0; i < size; ++i) rules.push_back(MakeRule(i, tenants, rng));
    const double build_start = NowMs();
    for (const Rule& rule : rules) builder.Add(rule);
    const auto index = builder.Build();
    const double build_ms = NowMs() - build_start;

    Rng event_rng(7);
    const auto payloads = MakePayloads(kEvents, tenants, event_rng);
    std::vector<monitor::wire::EventBatchView> views;
    size_t events = 0;
    for (const auto& payload : payloads) {
      auto view = monitor::wire::EventBatchView::Bind(payload);
      if (!view.ok()) {
        std::fprintf(stderr, "bind failed: %s\n", view.status().ToString().c_str());
        return 1;
      }
      events += view->size();
      views.push_back(*view);
    }

    SweepPoint point;
    point.rules = size;
    point.build_ms = build_ms;
    point.layout = index->layout();
    point.indexed_ns = TimeIndexed(*index, views, events, &point.matched);

    const std::string label =
        size >= 1000000 ? strings::Format("{}m", size / 1000000)
                        : strings::Format("{}k", size / 1000);
    metrics.Set(strings::Format("rules_{}_ns_per_event", label), point.indexed_ns);
    metrics.Set(strings::Format("index_build_{}_ms", label), build_ms);
    if (size == 1000 || size == 1000000) {
      Rng update_rng(9);
      point.update_us = TimeUpdate(*index, tenants, update_rng);
      metrics.Set(strings::Format("index_update_{}_us", label), point.update_us);
    }
    if (size == 1000) ns_1k = point.indexed_ns;
    if (size == 1000000) ns_1m = point.indexed_ns;
    if (size == 100000) {
      indexed_100k = point.indexed_ns;
      // Price the old engine on a materialized slice of the same corpus.
      std::vector<monitor::FsEvent> sample;
      for (const auto& view : views) {
        for (size_t i = 0; i < view.size() && sample.size() < kLinearEvents; ++i) {
          sample.push_back(view[i].Materialize());
        }
        if (sample.size() >= kLinearEvents) break;
      }
      linear_100k = TimeLinear(rules, sample);
      metrics.Set("linear_100k_ns_per_event", linear_100k);
    }

    table.push_back({label, F1(point.build_ms), F1(point.update_us), F1(point.indexed_ns),
                     strings::Format("{}", point.matched),
                     strings::Format("{}", point.layout.trie_nodes),
                     strings::Format("{}", point.layout.anchored_rules),
                     strings::Format("{}", point.layout.catch_all_rules)});
  }

  PrintTable("Rule dispatch: compiled index sweep (batched zero-copy)", table);

  if (!quick) {
    const double speedup = indexed_100k > 0 ? linear_100k / indexed_100k : 0;
    const double flatness = ns_1k > 0 ? ns_1m / ns_1k : 0;
    metrics.Set("rule_index_speedup_100k", speedup);
    metrics.Set("rule_index_flatness_1m_vs_1k", flatness);
    std::printf(
        "\nlinear @100k: %.0f ns/ev   indexed @100k: %.1f ns/ev   "
        "speedup: %.0fx\nindexed @1k: %.1f ns/ev   indexed @1M: %.1f ns/ev   "
        "flatness (1M/1k): %.2fx\n",
        linear_100k, indexed_100k, speedup, ns_1k, ns_1m, flatness);
  }

  WriteMetricsJson(json_path, metrics);
  return 0;
}
