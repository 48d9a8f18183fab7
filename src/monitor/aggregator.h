// Aggregator: one shard of the monitor's fan-in, publication and history
// service.
//
// Since PR 6 the aggregator is a *composition of three roles*, not a
// monolith (see ISSUE 6 / docs/architecture.md "Federated aggregator
// fleet"):
//
//   IngestPipeline (ingest_pipeline.h)
//     receiver ── tickets ──> decode pool ──> sequencer
//     Owns the collector-facing socket, the decode worker pool and the
//     ticketed reorder buffer (common/reorder.h); the single sequencer
//     assigns each batch its global_seq range and HLC stamps
//     (common/hlc.h), group-commits to the checkpoint WAL, and hands
//     batches to the other two roles.
//   EventCatalog (event_catalog.h)
//     The rotating EventStore (a log of the sequenced batches), the
//     checkpoint WAL write-ahead commit, and the store thread. Restores
//     itself from the checkpoint at birth.
//   ServePlane (serve_plane.h)
//     The live PUB fan-out (publish thread) and the history/range
//     REQ/REP API (api thread).
//
// The composition preserves every externally visible contract of the
// monolith: global_seq is monotone in arrival order, publication order
// matches sequence order, and the write-ahead discipline (WAL before
// visibility, watermark after the group commits) keeps the crash/backfill
// semantics intact. Every shard has one shape, alone or in a fleet: its
// series carry {"shard": "<i>"}, its ledger and watermark instance is
// "shard<i>", and its counts live only in the metrics registry.
//
// N shards compose into an AggregatorFleet (fleet.h): collectors route by
// MDT, per-shard sequences stay dense, and the federation layer
// (federation.h) merges live subscriptions and history queries across
// shards by HLC stamp.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/resource.h"
#include "lustre/profile.h"
#include "monitor/collector.h"
#include "monitor/event.h"
#include "monitor/event_store.h"
#include "msgq/context.h"

namespace sdci::monitor {

class EventCatalog;
class IngestPipeline;
class ServePlane;

struct AggregatorConfig {
  std::string collect_endpoint = "inproc://monitor.collect";
  std::string publish_endpoint = "inproc://monitor.events";
  std::string api_endpoint = "inproc://monitor.api";
  CollectTransport transport = CollectTransport::kPubSub;
  size_t store_capacity = 200000;  // rotating catalog, in events
  size_t internal_queue = 65536;   // depth of the publish/store hand-off, in batches
  size_t ingest_hwm = 65536;       // collector->aggregator socket depth
  // Ingest decode worker pool size. 1 keeps the pipeline but decodes
  // serially (bit-for-bit the historical ordering); >1 overlaps decode
  // latency across collector messages while the sequencer re-establishes
  // arrival order.
  size_t ingest_workers = 1;
  // In-flight tickets the receiver may run ahead of the sequencer: bounds
  // the reorder buffer (and decode queue) so a stalled commit
  // backpressures the socket. 0 = auto: max(16, 16 * ingest_workers) —
  // the floor keeps the serial default at its historical depth, the
  // per-worker factor was raised from 4 to 16 after the fan-in window
  // study (EXPERIMENTS.md): a 4-worker pool behind a 16-deep window
  // starves under multi-collector fan-in.
  size_t ingest_window = 0;
  // Max consecutive ready batches the sequencer folds into one checkpoint
  // WAL commit. Group commit is opportunistic — a lone ready batch
  // commits immediately; the group only grows with what is already
  // decoded — so it amortizes lock traffic without adding latency.
  size_t wal_group_max = 16;
  // Fleet position: this shard's index and the fleet width. The index is
  // the HLC origin (cross-shard tie-breaker) and the value of the
  // {"shard"} label on every metric series.
  size_t shard_index = 0;
  size_t shard_count = 1;
  // Shared observability plumbing (see CollectorConfig). A supervisor
  // hands its registry to every incarnation, which re-acquires the same
  // series, so the counts Stats() reads are cumulative across restarts.
  std::shared_ptr<MetricsRegistry> metrics;
  std::shared_ptr<trace::Tracer> tracer;
  // Flow-conservation ledger and freshness watermarks (null = disabled).
  // The roles bind their counters as the shard.wal / shard.store /
  // shard.publish boundary accounts and advance the aggregator.* and
  // store.append stage watermarks with event birth times.
  std::shared_ptr<FlowLedger> flow;
  std::shared_ptr<WatermarkRegistry> watermarks;
  // Decode errors this deployment tolerates before Stop() emits the
  // "[health] decode_errors=" marker line scripts/check.sh greps for.
  // Tests that feed intentionally malformed payloads raise it.
  uint64_t expected_decode_errors = 0;
  // Test seam: runs on the sequencer thread immediately before a group of
  // `batches` batches is committed to the checkpoint WAL. Chaos tests use
  // it to line crashes up with the commit edge.
  std::function<void(size_t batches)> commit_hook;

  [[nodiscard]] size_t IngestWorkers() const noexcept {
    return ingest_workers == 0 ? 1 : ingest_workers;
  }
  [[nodiscard]] size_t IngestWindow() const noexcept {
    return ingest_window > 0 ? ingest_window
                             : std::max<size_t>(16, 16 * IngestWorkers());
  }
  // {"shard": "<index>"}, the label on every series of this shard.
  [[nodiscard]] MetricLabels ShardLabels() const {
    return {{"shard", std::to_string(shard_index)}};
  }
  // Ledger/watermark instance name "shard<i>" (matches the
  // FleetStatusJson per-shard breakout).
  [[nodiscard]] std::string InstanceName() const {
    return "shard" + std::to_string(shard_index);
  }
};

struct AggregatorStats {
  uint64_t received = 0;           // events ingested from collectors
  uint64_t batches_received = 0;   // collector messages successfully decoded
  uint64_t published = 0;          // events fanned out to subscribers
  uint64_t batches_published = 0;  // messages fanned out (>= 1 event each)
  uint64_t stored = 0;             // events appended to the catalog
  uint64_t decode_errors = 0;      // malformed or zero-event payloads
  uint64_t checkpointed = 0;       // events persisted to the checkpoint WAL
  uint64_t wal_commits = 0;        // checkpoint lock acquisitions (group commits)

  AggregatorStats& operator+=(const AggregatorStats& other);
};

// The durable half of an aggregator deployment, owned by whoever
// supervises it and handed to each incarnation. Models stable storage the
// way the ChangeLog models the MDS journal: kept in memory, but with
// write-ahead discipline — the sequencer appends every batch (and the
// advanced sequence watermark) *before* the batch becomes visible to the
// publish/store threads, so any event whose global_seq was ever assigned
// survives a crash. A restarted incarnation restores next_seq from the
// watermark (sequence numbers stay monotone, never reused) and rebuilds
// its EventStore by replaying the WAL (the history API keeps answering
// for pre-crash events).
//
// The WAL is an EventStore: it holds the same sequenced batches as the
// catalog (a reference each, no copy) and rotates them by the same rule,
// so at the catalog's capacity a store restored from it answers the same
// queries the lost one would have.
class AggregatorCheckpoint {
 public:
  explicit AggregatorCheckpoint(size_t wal_capacity) : wal_(wal_capacity) {}

  // Group commit: the whole group becomes durable under one WAL lock
  // acquisition, and the watermark `next_seq` (one past the group's last
  // assigned sequence) advances only after every batch in the group is
  // appended — a crash (or a restore racing the commit) can see the
  // pre-group or post-group state, never half a group.
  void Append(const std::vector<EventBatch>& group, uint64_t next_seq);

  [[nodiscard]] uint64_t NextSeq() const noexcept {
    return next_seq_.load(std::memory_order_acquire);
  }
  // The retained batches, oldest first (replay them in order to rebuild
  // the catalog).
  [[nodiscard]] std::vector<EventBatch> WalSnapshot() const { return wal_.Snapshot(); }
  [[nodiscard]] uint64_t TotalAppended() const { return wal_.TotalAppended(); }
  [[nodiscard]] size_t EventCount() const { return wal_.Size(); }
  [[nodiscard]] uint64_t Commits() const { return wal_.Commits(); }

 private:
  EventStore wal_;
  std::atomic<uint64_t> next_seq_{1};
};

// A shard's counts: one registry series each, labelled with the shard.
// Every incarnation of a supervised shard acquires the same series from
// the supervisor's registry, so they are cumulative across crashes by
// construction, and the supervisor reads them while no incarnation is up.
struct AggregatorCounters {
  AggregatorCounters(MetricsRegistry& metrics, const MetricLabels& labels);

  // The counts, plus the checkpoint's when there is one.
  [[nodiscard]] AggregatorStats Read(const AggregatorCheckpoint* checkpoint) const;

  std::shared_ptr<Counter> received;
  std::shared_ptr<Counter> batches_received;
  std::shared_ptr<Counter> published;
  std::shared_ptr<Counter> batches_published;
  // Appends made by the store thread (WAL restores are not counted).
  std::shared_ptr<Counter> stored;
  std::shared_ptr<Counter> decode_errors;
  // Virtual time from a record being journaled on its MDS to its event
  // reaching subscribers.
  std::shared_ptr<LatencyHistogram> delivery_latency;
};

// One shard's health, read alike for a plain and a supervised shard. A
// plain shard is always up and never crashes; a supervised one between a
// crash and its restart is down and has no store to range over (0/0).
struct AggregatorShardStatus {
  AggregatorStats stats;
  bool up = true;
  bool in_outage = false;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  uint64_t next_seq = 1;
  uint64_t store_first_seq = 0;
  uint64_t store_last_seq = 0;
  std::string delivery_latency;  // LatencyHistogram::Summary()
};

// Durable attachments that outlive one aggregator incarnation; provided
// by AggregatorSupervisor. The ingest socket is pre-bound by the owner so
// collector hand-offs accepted during an outage wait in its queue (as
// they would in an acked transport) instead of dying with the process.
struct AggregatorAttachments {
  AggregatorCheckpoint* checkpoint = nullptr;
  std::shared_ptr<msgq::SubSocket> ingest_sub;    // for CollectTransport::kPubSub
  std::shared_ptr<msgq::PullSocket> ingest_pull;  // for CollectTransport::kPushPull
};

class Aggregator {
 public:
  // `attachments` is optional: a standalone aggregator creates its own
  // ingest socket and keeps no durable checkpoint.
  Aggregator(const lustre::TestbedProfile& profile, const TimeAuthority& authority,
             msgq::Context& context, AggregatorConfig config,
             AggregatorAttachments attachments = {});
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  // Starts receiver, decode pool, sequencer, publish, store and API
  // threads. Idempotent.
  void Start();

  // Drains in-flight events, then stops and joins all threads.
  void Stop();

  // Simulated process crash: threads are torn down *without* the graceful
  // drain Stop() performs. Batches sitting in the internal publish/store
  // queues are discarded — exactly what a real crash loses — leaving
  // subscribers with a sequence gap to heal from the history API.
  // Messages already popped off the (incarnation-surviving) ingest socket
  // still run through the checkpoint commit first: the collector purged
  // its records when the socket accepted the hand-off, so dropping them
  // here would lose them forever. The attached ingest socket (if any) is
  // left open for the next incarnation; a Stop() after Crash() is a no-op.
  void Crash();

  [[nodiscard]] AggregatorStats Stats() const;
  [[nodiscard]] AggregatorShardStatus Status() const;
  [[nodiscard]] const EventStore& store() const noexcept;
  [[nodiscard]] ResourceUsage Usage(VirtualDuration elapsed) const;

  // Sequence that will be assigned to the next ingested event.
  [[nodiscard]] uint64_t NextSeq() const noexcept;

  // Delivery latency (AggregatorCounters::delivery_latency), cumulative
  // across incarnations like every registry series.
  [[nodiscard]] const LatencyHistogram& delivery_latency() const noexcept {
    return *counters_.delivery_latency;
  }

  [[nodiscard]] const AggregatorConfig& config() const noexcept { return config_; }

 private:
  lustre::TestbedProfile profile_;
  const TimeAuthority* authority_;
  AggregatorConfig config_;

  // The three roles. Construction order matters: the catalog restores the
  // store from the checkpoint, the serve plane answers queries out of the
  // catalog, and the ingest pipeline feeds both.
  std::unique_ptr<EventCatalog> catalog_;
  std::unique_ptr<ServePlane> serve_;
  std::unique_ptr<IngestPipeline> ingest_;

  // Registry-backed instruments; the registry outlives incarnations.
  std::shared_ptr<MetricsRegistry> metrics_;
  AggregatorCounters counters_;
  // Batches per checkpoint group commit, encoded as a count (1 "ns" == 1
  // batch): the registry's histogram type is the latency histogram, and
  // the power-of-two buckets bin small counts exactly.
  std::shared_ptr<LatencyHistogram> wal_group_size_;
  // Invalidated first in the destructor so registry queue-depth callbacks
  // holding a weak handle stop reading this incarnation's roles.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::atomic<bool> running_{false};
  std::atomic<bool> crashed_{false};
};

}  // namespace sdci::monitor
