// Monitor: the orchestrator wiring one Collector per MDS to an aggregator
// fleet.
//
// This is the paper's Figure 2 in object form: N MDS ChangeLogs, N
// Collectors, and the aggregator role publishing a complete site-wide
// event stream plus a historic-events API. Consumers attach with
// EventSubscriber / HistoryClient on the configured endpoints. Its health
// document is ripple::FleetStatusJson over collectors() and fleet().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lustre/filesystem.h"
#include "lustre/profile.h"
#include "monitor/aggregator.h"
#include "monitor/collector.h"
#include "monitor/fleet.h"
#include "msgq/context.h"

namespace sdci::monitor {

struct MonitorConfig {
  CollectorConfig collector;
  AggregatorConfig aggregator;
  // Aggregator fleet width: N shards, collector i routed to shard i % N
  // (fleet.h). Every width has the same shard shape; for N > 1 the
  // endpoints in `aggregator` become per-shard bases ("<base>.<i>").
  size_t aggregator_shards = 1;

  // Keeps the two halves' endpoints and transport consistent.
  void SetCollectEndpoint(std::string endpoint);
  void SetTransport(CollectTransport transport);

  // Points both halves at one registry / tracer, so a single scrape (or
  // trace timeline) covers collectors and aggregator alike.
  void SetMetrics(std::shared_ptr<MetricsRegistry> metrics);
  void SetTracer(std::shared_ptr<trace::Tracer> tracer);
  // Points both halves at one flow ledger / watermark registry, so one
  // FlowLedger::Audit() (one lag readout) covers the whole monitor.
  void SetFlowLedger(std::shared_ptr<FlowLedger> flow);
  void SetWatermarks(std::shared_ptr<WatermarkRegistry> watermarks);
};

struct MonitorStats {
  std::vector<CollectorStats> collectors;
  // Fleet-total (sum over shards), then one entry per shard.
  AggregatorStats aggregator;
  std::vector<AggregatorStats> aggregator_shards;
  uint64_t total_extracted = 0;
  uint64_t total_reported = 0;
};

class Monitor {
 public:
  // Deploys one Collector per MDS of `fs` plus the Aggregator. References
  // must outlive the monitor.
  Monitor(lustre::FileSystem& fs, const lustre::TestbedProfile& profile,
          const TimeAuthority& authority, msgq::Context& context, MonitorConfig config);

  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  void Start();
  void Stop();

  [[nodiscard]] MonitorStats Stats() const;
  [[nodiscard]] const AggregatorFleet& fleet() const noexcept { return *fleet_; }
  [[nodiscard]] AggregatorFleet& fleet() noexcept { return *fleet_; }
  [[nodiscard]] size_t CollectorCount() const noexcept { return collectors_.size(); }
  [[nodiscard]] Collector& collector(size_t i) noexcept { return *collectors_[i]; }
  // Every collector, in MDT order (FleetComponents::collectors).
  [[nodiscard]] std::vector<const Collector*> collectors() const;
  [[nodiscard]] const MonitorConfig& config() const noexcept { return config_; }

  // Per-component resource usage over `elapsed` (Table 3 rows).
  [[nodiscard]] std::vector<ResourceUsage> Usage(VirtualDuration elapsed) const;

 private:
  MonitorConfig config_;
  std::unique_ptr<AggregatorFleet> fleet_;
  std::vector<std::unique_ptr<Collector>> collectors_;
  bool started_ = false;
};

}  // namespace sdci::monitor
