// Fleet status: the deployment's one health document. One call folds
// collectors, the aggregator fleet (one shard or N, supervised or not),
// subscribers, the messaging fabric's fault injectors, and the cloud
// service into per-component verdicts.
//
// Verdicts are "up", "degraded" (running but losing or mangling work:
// decode errors, unrecoverable events, dead letters), or "down" (a
// supervised aggregator shard between a crash and its restart). The
// document's "overall" field is the worst verdict observed, so an
// operator's health probe is one string compare.
#pragma once

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/slo.h"
#include "monitor/collector.h"
#include "monitor/consumer.h"
#include "monitor/fleet.h"
#include "monitor/flow_ledger.h"
#include "monitor/shard_health.h"
#include "monitor/supervisor.h"
#include "monitor/watermarks.h"
#include "msgq/context.h"
#include "ripple/cloud.h"

namespace sdci::ripple {

// Everything FleetStatusJson can fold in. All pointers are observed, not
// owned, and any of them may be null (the matching section is omitted).
struct FleetComponents {
  // The collector side, supervised or plain (a Monitor's collectors()):
  // one "collectors" rollup with a per-MDT "mdts" array. Plain collectors
  // add their detection latency.
  const monitor::CollectorSupervisor* collector_supervisor = nullptr;
  std::vector<const monitor::Collector*> collectors;
  // The aggregator side. Folds into an "aggregator_shards" array (verdict,
  // counts, store range and delivery latency per shard) plus a fleet-total
  // "aggregator" section.
  const monitor::AggregatorFleet* aggregators = nullptr;
  // The federation layer's per-shard circuit breakers; folds into a
  // "shard_health" array (breaker state, trips, probes, down-signal per
  // shard), degraded while any breaker is open.
  const monitor::ShardHealthTracker* shard_health = nullptr;
  // Subscribers fold into one "subscribers" array, plain ones first
  // (socket drops only), then the gap-healing ones.
  std::vector<const monitor::EventSubscriber*> plain_subscribers;
  std::vector<const monitor::RecoveringSubscriber*> subscribers;
  const CloudService* cloud = nullptr;
  // Fault telemetry is per endpoint: list the endpoints worth reporting
  // (context may be null, in which case the section is omitted).
  const msgq::Context* context = nullptr;
  std::vector<std::string> endpoints;
  // When set, the registry's full snapshot rides along under "metrics".
  const MetricsRegistry* metrics = nullptr;
  // Freshness plane: the watermark table folds in under "watermarks"
  // (per-stage lags plus per-instance and fleet e2e lag).
  const WatermarkRegistry* watermarks = nullptr;
  // Conservation plane: FlowLedger::Audit() folds in under "flow_ledger"
  // (degraded on any duplication — negative imbalance is always a bug).
  const FlowLedger* flow = nullptr;
  // Alert plane: every rule's status folds in under "alerts" plus an
  // "slo" rollup section (degraded while any rule fires). The caller is
  // responsible for Evaluate() cadence; this only reads Current().
  const SloEvaluator* slo = nullptr;
};

// {"overall": "up|degraded|down",
//  "collectors": {..., "mdts": [...]}, "aggregator": {...},
//  "aggregator_shards": [...], "subscribers": [...], "msgq": [...],
//  "cloud": {...}, "metrics": {...}}
// Each component section carries a "verdict" plus its key counters.
[[nodiscard]] json::Value FleetStatusJson(const FleetComponents& fleet);

}  // namespace sdci::ripple
