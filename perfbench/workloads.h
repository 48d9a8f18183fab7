// The three workloads of the site benchmark. Each round deploys a fresh
// site, sets it up, runs the timed phase, lets the site quiesce and checks
// everything it delivered against the oracle.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "monitor/event.h"
#include "oracle.h"
#include "ripple/rule.h"
#include "site.h"

namespace perfbench {

enum class Workload { kDrain, kStream, kHistory };

// Fixed workload parameters; reported with every result.
namespace params {
// drain: a pre-staged backlog of CREAT+MTIME records.
inline constexpr size_t kDrainDirs = 64;
inline constexpr size_t kDrainFiles = 153600;  // 307,200 records per round
// stream: an open loop of create/write/rename/unlink at a fixed rate.
inline constexpr double kStreamRate = 20000;  // ops per second
inline constexpr size_t kStreamGroups = 16;
inline constexpr size_t kStreamDirsPerGroup = 16;
inline constexpr size_t kStreamRules = 1000;
inline constexpr size_t kStreamTenants = 4;
inline constexpr size_t kStreamStagedFiles = 32768;
// A file is touched again only this many ops after its last touch, so
// the collector has resolved its previous record first.
inline constexpr uint64_t kStreamQuarantineOps = 20000;
inline constexpr uint32_t kStreamH5OneIn = 20;  // share of files rules match
inline constexpr double kChurnPeriodS = 1.0;
// stream and history: paced ops checked but not timed before the timed
// phase, so one-off costs of the first mutations after set-up stay out.
inline constexpr double kWarmupS = 0.5;
// history: store prefilled to capacity, then a paced writer beside a
// closed-loop query client.
inline constexpr size_t kHistoryDirs = 64;
inline constexpr size_t kStoreCapacity = 200000;  // AggregatorConfig default, per shard
inline constexpr size_t kHistoryPrefillFiles = kStoreCapacity * kShards / 2;
inline constexpr double kHistoryRate = 2000;  // writer ops per second
inline constexpr size_t kPageLarge = 1024;
inline constexpr size_t kPageSmall = 64;
inline constexpr size_t kWindowEvents = 1000;
// Query mix, percent: large pages, small head pages, the rest time windows.
inline constexpr uint32_t kMixLargePct = 10;
inline constexpr uint32_t kMixSmallPct = 80;
}  // namespace params

sdci::json::Value ParamsJson(Workload workload);

// The stream workload's rule set: rule i watches directory i % dirs for
// one event kind on *.h5 files, owned by one of a few unmetered tenants.
std::vector<std::string> StreamDirPaths();
std::vector<sdci::ripple::Rule> StreamRules();
// A rule no generated event can match (the churn rule).
sdci::ripple::Rule ChurnRule(uint64_t k);

// What a traced round observes on the live site, for the per-layer rows.
struct LiveTrace {
  SpanLog spans;
  std::vector<sdci::monitor::EventBatch> captured;  // consumer-side batches
  std::map<std::string, double> gauge_mean;         // registry gauge -> mean
  double sub_dropped = 0;
  int max_threads = 0;
  double idle_cpu_cores = 0;
  uint64_t collector_processed = 0;
  uint64_t collector_fid2path_calls = 0;
  uint64_t collector_report_retries = 0;
  sdci::monitor::AggregatorStats aggregator;
  uint64_t gaps_detected = 0;
  uint64_t events_backfilled = 0;
  sdci::ripple::AgentStats agent;
  sdci::ripple::CloudStats cloud;
  double fetch_page64_ms = 0;
  double fetch_page1024_ms = 0;
  double time_range_ns_per_event = 0;
};

struct RoundResult {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double events_per_s = 0;
  double cpu_ns_per_event = 0;
  uint64_t timed_events = 0;
  std::vector<double> deliver_ms;
  std::vector<double> action_ms;
  std::vector<double> rule_update_ms;
  std::vector<double> query_ms;
  std::vector<double> gen_late_us;
  uint64_t query_events = 0;
  double query_wall_s = 0;
  DeliveryCheck deliveries;
  ActionCheck actions;
  PageCheck pages;
  uint64_t rule_updates = 0;
  uint64_t rule_update_failures = 0;
  [[nodiscard]] uint64_t attempted() const {
    return deliveries.expected + actions.expected + pages.pages + rule_updates;
  }
  [[nodiscard]] uint64_t failed() const {
    return deliveries.failures() + actions.failures() + pages.bad + rule_update_failures;
  }
};

// Runs one round. `round_start_ns` is when its set-up began; `timed_s` is
// the timed phase of stream and history. `trace` is null when untraced.
RoundResult RunRound(Workload workload, uint64_t seed, double timed_s, int64_t round_start_ns,
                     LiveTrace* trace);

}  // namespace perfbench
