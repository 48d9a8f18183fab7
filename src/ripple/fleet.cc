#include "ripple/fleet.h"

#include <algorithm>

#include "common/json.h"

namespace sdci::ripple {

namespace {

// Verdict severity order; "overall" is the maximum over components.
int Rank(const std::string& verdict) {
  if (verdict == "down") return 2;
  if (verdict == "degraded") return 1;
  return 0;
}

const char* Name(int rank) {
  switch (rank) {
    case 2:
      return "down";
    case 1:
      return "degraded";
    default:
      return "up";
  }
}

}  // namespace

json::Value FleetStatusJson(const FleetComponents& fleet) {
  json::Object doc;
  int overall = 0;
  const auto fold = [&overall](json::Object& section, const std::string& verdict) {
    overall = std::max(overall, Rank(verdict));
    section["verdict"] = json::Value(verdict);
  };

  if (fleet.collector_supervisor != nullptr || !fleet.collectors.empty()) {
    json::Object section;
    json::Array mdts;
    uint64_t extracted = 0;
    uint64_t reported = 0;
    uint64_t resolve_failures = 0;
    uint64_t reports_abandoned = 0;
    uint64_t events_spooled = 0;
    uint64_t spool_depth = 0;
    const auto entry_of = [&](int mdt, const monitor::CollectorStats& stats) {
      extracted += stats.extracted;
      reported += stats.reported;
      resolve_failures += stats.resolve_failures;
      reports_abandoned += stats.reports_abandoned;
      events_spooled += stats.events_spooled;
      spool_depth += stats.spool_depth;
      json::Object entry;
      entry["mdt"] = json::Value(static_cast<int64_t>(mdt));
      entry["extracted"] = json::Value(stats.extracted);
      entry["processed"] = json::Value(stats.processed);
      entry["reported"] = json::Value(stats.reported);
      entry["resolve_failures"] = json::Value(stats.resolve_failures);
      entry["fid2path_calls"] = json::Value(stats.fid2path_calls);
      entry["cache_hit_rate"] = json::Value(stats.cache_hit_rate);
      entry["last_cleared_index"] = json::Value(stats.last_cleared_index);
      entry["report_retries"] = json::Value(stats.report_retries);
      entry["reports_abandoned"] = json::Value(stats.reports_abandoned);
      entry["spool_depth"] = json::Value(stats.spool_depth);
      entry["terminal"] =
          json::Value(std::string(monitor::CollectorTerminalName(stats.terminal)));
      return entry;
    };
    if (fleet.collector_supervisor != nullptr) {
      const auto& sup = *fleet.collector_supervisor;
      const auto stats = sup.Stats();  // indexed by MDT
      for (size_t mdt = 0; mdt < stats.size(); ++mdt) {
        mdts.push_back(json::Value(entry_of(static_cast<int>(mdt), stats[mdt])));
      }
      section["crashes"] = json::Value(sup.crashes());
      section["restarts"] = json::Value(sup.restarts());
    }
    for (const monitor::Collector* collector : fleet.collectors) {
      if (collector == nullptr) continue;
      json::Object entry = entry_of(collector->mdt_index(), collector->Stats());
      entry["detection_latency"] = json::Value(collector->detection_latency().Summary());
      mdts.push_back(json::Value(std::move(entry)));
    }
    section["extracted"] = json::Value(extracted);
    section["reported"] = json::Value(reported);
    section["resolve_failures"] = json::Value(resolve_failures);
    section["reports_abandoned"] = json::Value(reports_abandoned);
    section["events_spooled"] = json::Value(events_spooled);
    section["spool_depth"] = json::Value(spool_depth);
    section["mdts"] = json::Value(std::move(mdts));
    // fid2path failures mean events went out with a fid placeholder
    // instead of a path: delivered, but lossy for path-matching rules.
    // Abandoned reports are a collector that stopped with undelivered
    // events still in hand (retry budget exhausted at shutdown) — the
    // exactly-once contract only survives via re-extraction next start.
    fold(section,
         resolve_failures > 0 || reports_abandoned > 0 ? "degraded" : "up");
    doc["collectors"] = json::Value(std::move(section));
  }

  if (fleet.aggregators != nullptr) {
    // Per-shard verdicts plus a fleet-total rollup: one shard mid-restart
    // marks the fleet "down", and the array shows which shard (and the
    // others' health) at a glance. Store ranges live in per-shard sequence
    // namespaces, so they appear per shard only.
    const monitor::AggregatorFleet& aggregators = *fleet.aggregators;
    json::Array shards;
    monitor::AggregatorStats total;
    uint64_t crashes = 0;
    uint64_t restarts = 0;
    bool all_up = true;
    int worst_shard = 0;
    for (size_t i = 0; i < aggregators.shards(); ++i) {
      const monitor::AggregatorShardStatus status = aggregators.Status(i);
      const monitor::AggregatorStats& stats = status.stats;
      json::Object section;
      section["shard"] = json::Value(static_cast<int64_t>(i));
      section["up"] = json::Value(status.up);
      section["in_outage"] = json::Value(status.in_outage);
      section["received"] = json::Value(stats.received);
      section["published"] = json::Value(stats.published);
      section["stored"] = json::Value(stats.stored);
      section["decode_errors"] = json::Value(stats.decode_errors);
      section["checkpointed"] = json::Value(stats.checkpointed);
      section["crashes"] = json::Value(status.crashes);
      section["restarts"] = json::Value(status.restarts);
      section["next_seq"] = json::Value(status.next_seq);
      section["store_first_seq"] = json::Value(status.store_first_seq);
      section["store_last_seq"] = json::Value(status.store_last_seq);
      section["delivery_latency"] = json::Value(status.delivery_latency);
      std::string verdict = "up";
      if (stats.decode_errors > 0) verdict = "degraded";
      if (!status.up) verdict = "down";
      worst_shard = std::max(worst_shard, Rank(verdict));
      fold(section, verdict);
      shards.push_back(json::Value(std::move(section)));
      total += stats;
      crashes += status.crashes;
      restarts += status.restarts;
      all_up = all_up && status.up;
    }
    doc["aggregator_shards"] = json::Value(std::move(shards));
    json::Object section;
    section["shards"] = json::Value(static_cast<int64_t>(aggregators.shards()));
    section["up"] = json::Value(all_up);
    section["received"] = json::Value(total.received);
    section["batches_received"] = json::Value(total.batches_received);
    section["published"] = json::Value(total.published);
    section["batches_published"] = json::Value(total.batches_published);
    section["stored"] = json::Value(total.stored);
    section["decode_errors"] = json::Value(total.decode_errors);
    section["checkpointed"] = json::Value(total.checkpointed);
    section["crashes"] = json::Value(crashes);
    section["restarts"] = json::Value(restarts);
    // Per-shard verdicts already folded into `overall`; the rollup's own
    // verdict is the worst shard's, for one-stop reads.
    section["verdict"] = json::Value(std::string(Name(worst_shard)));
    doc["aggregator"] = json::Value(std::move(section));
  }

  if (fleet.shard_health != nullptr) {
    // The federation layer's view of each shard: breaker state plus the
    // evidence behind it. Open breakers mean federated reads are serving
    // labeled partial results — degraded, not down, because the rest of
    // the fleet still answers.
    json::Array shards;
    size_t open = 0;
    for (size_t i = 0; i < fleet.shard_health->shards(); ++i) {
      const auto health = fleet.shard_health->Snapshot(i);
      json::Object section;
      section["shard"] = json::Value(static_cast<int64_t>(i));
      section["state"] =
          json::Value(std::string(monitor::CircuitStateName(health.state)));
      section["consecutive_failures"] = json::Value(health.consecutive_failures);
      section["trips"] = json::Value(health.trips);
      section["probes"] = json::Value(health.probes);
      section["down_signal"] = json::Value(health.down_signal);
      if (health.state == monitor::CircuitState::kOpen) ++open;
      fold(section,
           health.state == monitor::CircuitState::kOpen ? "degraded" : "up");
      shards.push_back(json::Value(std::move(section)));
    }
    doc["shard_health"] = json::Value(std::move(shards));
    json::Object rollup;
    rollup["open_circuits"] = json::Value(static_cast<uint64_t>(open));
    rollup["verdict"] = json::Value(std::string(open > 0 ? "degraded" : "up"));
    doc["shard_health_total"] = json::Value(std::move(rollup));
  }

  if (!fleet.plain_subscribers.empty() || !fleet.subscribers.empty()) {
    json::Array subscribers;
    for (const monitor::EventSubscriber* sub : fleet.plain_subscribers) {
      if (sub == nullptr) continue;
      json::Object section;
      section["type"] = json::Value(std::string("plain"));
      // Only socket-level counters: they are atomic, while the
      // subscriber's received tally belongs to its consuming thread.
      section["dropped_at_socket"] = json::Value(sub->dropped_at_socket());
      fold(section, "up");
      subscribers.push_back(json::Value(std::move(section)));
    }
    for (const monitor::RecoveringSubscriber* sub : fleet.subscribers) {
      if (sub == nullptr) continue;
      json::Object section;
      section["type"] = json::Value(std::string("recovering"));
      section["received"] = json::Value(sub->received());
      section["next_expected"] = json::Value(sub->next_expected());
      section["gaps_detected"] = json::Value(sub->gaps_detected());
      section["events_backfilled"] = json::Value(sub->events_backfilled());
      section["events_unrecoverable"] = json::Value(sub->events_unrecoverable());
      section["dropped_at_socket"] = json::Value(sub->dropped_at_socket());
      // Gaps it healed are business as usual; events it could not get
      // back are permanent stream loss.
      fold(section, sub->events_unrecoverable() > 0 ? "degraded" : "up");
      subscribers.push_back(json::Value(std::move(section)));
    }
    doc["subscribers"] = json::Value(std::move(subscribers));
  }

  if (fleet.context != nullptr && !fleet.endpoints.empty()) {
    json::Array endpoints;
    for (const std::string& endpoint : fleet.endpoints) {
      const auto stats = fleet.context->FaultStatsFor(endpoint);
      json::Object section;
      section["endpoint"] = json::Value(endpoint);
      section["dropped"] = json::Value(stats.dropped);
      section["duplicated"] = json::Value(stats.duplicated);
      section["delayed"] = json::Value(stats.delayed);
      fold(section, stats.dropped > 0 ? "degraded" : "up");
      endpoints.push_back(json::Value(std::move(section)));
    }
    doc["msgq"] = json::Value(std::move(endpoints));
  }

  if (fleet.cloud != nullptr) {
    const auto stats = fleet.cloud->Stats();
    json::Object section;
    section["reports_received"] = json::Value(stats.reports_received);
    section["reports_dropped"] = json::Value(stats.reports_dropped);
    section["events_processed"] = json::Value(stats.events_processed);
    section["actions_dispatched"] = json::Value(stats.actions_dispatched);
    section["redeliveries"] = json::Value(stats.redeliveries);
    section["dead_letters"] = json::Value(stats.dead_letters);
    // Dead letters are reports every delivery attempt failed on: the
    // at-least-once machinery gave up, so rules silently did not fire.
    fold(section, stats.dead_letters > 0 ? "degraded" : "up");
    doc["cloud"] = json::Value(std::move(section));
  }

  if (fleet.watermarks != nullptr) {
    // Informational: lag only becomes a verdict through the SLO rules
    // below (a watermark table with no traffic reads as zero lag).
    doc["watermarks"] = fleet.watermarks->ToJson();
  }

  if (fleet.flow != nullptr) {
    const auto audit = fleet.flow->Audit();
    json::Object section;
    section["balanced"] = json::Value(audit.balanced);
    section["total_in_flight"] = json::Value(audit.total_in_flight);
    section["total_duplication"] = json::Value(audit.total_duplication);
    section["boundaries"] = json::Value(static_cast<int64_t>(audit.rows.size()));
    json::Array unbalanced;
    for (const auto& row : audit.rows) {
      if (row.imbalance == 0) continue;
      json::Object entry;
      entry["boundary"] = json::Value(row.boundary);
      entry["instance"] = json::Value(row.instance);
      entry["imbalance"] = json::Value(row.imbalance);
      unbalanced.push_back(json::Value(std::move(entry)));
    }
    section["unbalanced"] = json::Value(std::move(unbalanced));
    // Positive imbalance is in-flight work (normal while running);
    // duplication means some event was counted out twice — always a bug.
    fold(section, audit.total_duplication > 0 ? "degraded" : "up");
    doc["flow_ledger"] = json::Value(std::move(section));
  }

  if (fleet.slo != nullptr) {
    doc["alerts"] = fleet.slo->AlertsJson();
    json::Object section;
    const bool firing = fleet.slo->AnyFiring();
    section["firing"] = json::Value(firing);
    size_t firing_count = 0;
    for (const auto& status : fleet.slo->Current()) {
      if (status.state == AlertState::kFiring) ++firing_count;
    }
    section["firing_count"] = json::Value(static_cast<uint64_t>(firing_count));
    fold(section, firing ? "degraded" : "up");
    doc["slo"] = json::Value(std::move(section));
  }

  if (fleet.metrics != nullptr) {
    doc["metrics"] = fleet.metrics->ToJson();
  }

  doc["overall"] = json::Value(std::string(Name(overall)));
  return json::Value(std::move(doc));
}

}  // namespace sdci::ripple
