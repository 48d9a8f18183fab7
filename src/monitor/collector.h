// Collector: one per MDS; the monitor's "Detection" and "Processing" steps.
//
// Each Collector tails its MDS's ChangeLog, resolves FIDs to absolute
// paths, refactors the raw record tuples into FsEvents, reports them to
// the Aggregator over msgq in the flat v4 wire codec (each chunk encoded
// once, straight from the resolved events, its bytes shared into the
// socket), and purges consumed records from the
// ChangeLog (keeping a pointer to the most recently extracted event so
// nothing is missed across restarts).
//
// Started collectors run as a three-stage pipeline (the paper identifies
// fid2path as the dominant per-event cost, so resolution is where the
// concurrency goes):
//
//   reader ──chunks──▶ resolver pool (N workers) ──tickets──▶ publisher
//
// The reader drains ChangeLog batches, splits them into chunks, stamps
// each with a monotonically increasing *ticket* and feeds the resolver
// pool through its per-worker SPSC rings (the reader is the only
// submitter); `resolver_workers` threads resolve chunks concurrently
// (each worker charging its own DelayBudget, so concurrent per-item
// latencies overlap instead of summing); the publisher re-sequences completed chunks through a reorder
// buffer and publishes strictly in ticket — i.e. exact ChangeLog — order.
// Records are purged only after the events covering them were accepted by
// the transport, and never ahead of an undelivered predecessor, which
// preserves the crash-safety contract: anything unpurged is re-extracted
// by the next incarnation (at-least-once; consumers dedupe by
// (mdt_index, record_index)). The reader stalls once
// `reorder_window` tickets are in flight, so a stuck publisher
// backpressures the whole pipeline instead of buffering unboundedly.
// Once the log is dry the reader follows it (ChangeLog::WaitForRecords):
// it wakes when one chunk of new records has landed, or after
// `poll_interval` for a partial chunk, or at Stop().
//
// Resolution modes implement the paper's deployed design and its two
// proposed optimizations:
//   kPerEvent      — one fid2path call per event (the paper's bottleneck);
//   kBatched       — resolve a read batch with one amortized call;
//   kCached        — per-event calls through an LRU parent-path cache;
//   kBatchedCached — batch the cache misses only.
// The parent-path cache is sharded and internally locked (see
// CachedPathResolver), so resolver workers share warm entries; fills that
// race a rename/rmdir invalidation are dropped via the cache epoch.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/reorder.h"
#include "common/resource.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "lustre/fid2path.h"
#include "lustre/filesystem.h"
#include "lustre/profile.h"
#include "monitor/event.h"
#include "monitor/event_store.h"
#include "monitor/flow_ledger.h"
#include "monitor/spool.h"
#include "monitor/watermarks.h"
#include "msgq/context.h"

namespace sdci::monitor {

enum class ResolveMode { kPerEvent, kBatched, kCached, kBatchedCached };

std::string_view ResolveModeName(ResolveMode mode) noexcept;

// How collectors report to the aggregator (A3 transport ablation).
enum class CollectTransport { kPubSub, kPushPull };

struct CollectorConfig {
  std::string collect_endpoint = "inproc://monitor.collect";
  CollectTransport transport = CollectTransport::kPubSub;
  size_t read_batch = 256;        // max records per ChangeLog read
  // Longest wait for a partial chunk: an idle reader follows the
  // ChangeLog and wakes once one resolver chunk of records has landed,
  // or after this long with fewer.
  VirtualDuration poll_interval = Millis(50);
  ResolveMode resolve_mode = ResolveMode::kPerEvent;
  size_t cache_capacity = 16384;  // parent-path LRU entries (cached modes)
  size_t cache_shards = 8;        // lock shards of the parent-path cache
  size_t publish_batch = 16;      // events per msgq message
  bool purge = true;              // changelog_clear consumed records
  // Resolution pipeline (Start() mode only; DrainOnce stays serial).
  // resolver_workers is the size of the fid2path worker pool;
  // reorder_window caps in-flight resolve chunks between reader and
  // publisher (0 = auto: max(8, 4 * workers)).
  size_t resolver_workers = 1;
  size_t reorder_window = 0;
  // Filter push-down: only record types whose mask bit is set are
  // processed and reported (the others are still extracted and cleared).
  // Lets a deployment that only cares about, say, creations avoid paying
  // fid2path for everything else.
  lustre::ChangeLogMask report_mask = lustre::kFullChangeLogMask;
  // When > 0, the collector keeps its own rotating store of every event it
  // captured (the configuration behind the paper's Table 3 memory numbers:
  // "a local store that records a list of every event captured").
  size_t local_store_capacity = 0;
  // Retry cadence for a failed aggregator hand-off: capped exponential
  // backoff with jitter, so a fleet of collectors does not hammer (or
  // synchronize against) a restarting aggregator.
  VirtualDuration retry_backoff_min = Millis(5);
  VirtualDuration retry_backoff_max = Seconds(1.0);
  double retry_jitter_frac = 0.25;
  uint64_t retry_seed = 1;
  // Shard-outage spooling (Start() pipeline only; DrainOnce keeps the
  // serial hold-and-retry path). When > 0 events and a hand-off keeps
  // failing past `spool_after` of accumulated retry backoff — i.e. the
  // shard is down beyond its supervisor's restart budget — the pending
  // batch spills into a bounded EventSpool (modeled durable, like the
  // aggregator checkpoint) and the pipeline moves on: the ChangeLog purge
  // proceeds and the reader keeps draining. The spool replays strictly in
  // order, ahead of fresh events, once the shard accepts again; when it is
  // full the publisher falls back to blocking retry (backpressure, never
  // loss). 0 disables spooling (PR 2 behavior: retry until delivered).
  size_t spool_capacity = 0;
  VirtualDuration spool_after = Seconds(2.0);
  // Test-only fault injection: invoked by a resolver worker before it
  // resolves a chunk (the ordering property test injects randomized
  // latency here). Must be thread-safe; called concurrently.
  std::function<void(uint64_t ticket)> resolve_hook;
  // Shared observability plumbing. A null registry gives the collector a
  // private one (instruments always exist); a null tracer disables
  // sampling entirely.
  std::shared_ptr<MetricsRegistry> metrics;
  std::shared_ptr<trace::Tracer> tracer;
  // Flow-conservation ledger and freshness watermarks (null = disabled).
  // The collector binds its existing counters as the collector.extract /
  // collector.publish / collector.spool boundary accounts and advances
  // the changelog.read / collector.extract / collector.publish stage
  // watermarks with event birth times.
  std::shared_ptr<FlowLedger> flow;
  std::shared_ptr<WatermarkRegistry> watermarks;
};

// How the collector's publisher last came to rest. kCleanStop means every
// event handed to the publisher was delivered (or spooled) before Stop;
// kReportsAbandoned means retry-until-delivered was cut short by shutdown
// with events still undelivered — they are re-extracted by the next
// incarnation, but THIS incarnation's stop was not clean, which used to be
// indistinguishable from one in Stats().
enum class CollectorTerminal { kRunning, kCleanStop, kReportsAbandoned };

std::string_view CollectorTerminalName(CollectorTerminal terminal) noexcept;

struct CollectorStats {
  uint64_t extracted = 0;          // records read from the ChangeLog
  uint64_t filtered = 0;           // records dropped by the report mask
  uint64_t processed = 0;          // events with resolution attempted
  uint64_t reported = 0;           // events handed to msgq
  uint64_t resolve_failures = 0;   // fid2path misses (e.g. deleted parents)
  uint64_t fid2path_calls = 0;
  double cache_hit_rate = 0;
  uint64_t last_cleared_index = 0;
  uint64_t report_retries = 0;  // redelivery attempts after a failed hand-off
  // Shard-outage spooling (0s when spooling is disabled).
  uint64_t events_spooled = 0;   // spilled to the outage spool
  uint64_t events_replayed = 0;  // delivered from the spool after recovery
  uint64_t spool_depth = 0;      // currently spooled, awaiting replay
  uint64_t spool_rejects = 0;    // spill attempts refused by a full spool
  // Events dropped unpublished because shutdown cut retry-until-delivered
  // short (distinct terminal status: see CollectorTerminal).
  uint64_t reports_abandoned = 0;
  CollectorTerminal terminal = CollectorTerminal::kRunning;
};

class Collector {
 public:
  // All references must outlive the collector. `mdt_index` selects which
  // MDS this collector is deployed beside.
  Collector(lustre::FileSystem& fs, int mdt_index, const lustre::TestbedProfile& profile,
            const TimeAuthority& authority, msgq::Context& context,
            CollectorConfig config);
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  // Starts the pipeline (reader + resolver pool + publisher). Idempotent.
  void Start();

  // Stops and joins all stages. Records already extracted are flushed
  // first (one final read batch, then the reorder buffer drains).
  void Stop();

  // Drains everything currently in the ChangeLog synchronously (single
  // pass, no threads; the pre-pipeline serial path). Useful for tests and
  // for the centralized baseline. Must not be called while started.
  // Returns the number of events reported.
  size_t DrainOnce();

  [[nodiscard]] CollectorStats Stats() const;
  [[nodiscard]] ResourceUsage Usage(VirtualDuration elapsed) const;
  [[nodiscard]] int mdt_index() const noexcept { return mdt_index_; }

  // Detection latency: virtual time from a record being journaled to its
  // event being reported to the aggregator.
  [[nodiscard]] const LatencyHistogram& detection_latency() const noexcept {
    return *detection_latency_;
  }

 private:
  // Outcome of one serial collection pass. kRejected means the aggregator
  // did not accept every message; the undelivered tail is *held*
  // (extracted and processed, but not purged) and retried — never re-read,
  // never lost.
  enum class PassResult { kProgress, kIdle, kRejected };

  // One unit of resolver-pool work: a slice of a read batch, ticketed for
  // in-order publication.
  struct ResolveChunk {
    uint64_t ticket = 0;
    std::vector<lustre::ChangeLogRecord> records;
    std::vector<FsEvent> events;  // filled by the resolver worker
    // >0 on the final chunk of a read batch: once this chunk (and, by
    // ticket order, everything before it) is delivered, the ChangeLog is
    // cleared through this index.
    uint64_t purge_index = 0;
    // ChangeLog read window of the originating pass (changelog.read span).
    VirtualTime read_start{};
    VirtualTime read_end{};
  };

  // Pipeline stages.
  void Run(const std::stop_token& stop);        // reader loop
  bool ReadPass();                              // one read batch; false = idle
  void ResolveChunkTask(ResolveChunk chunk, size_t worker);
  void PublisherLoop(const std::stop_token& stop);
  void PublishChunk(ResolveChunk& chunk, const std::stop_token& stop);
  // Publisher-thread only: replays the spool head to the (possibly
  // recovered) shard; true when any events were delivered.
  bool TryReplaySpool();
  // Reader idle path: submits an empty tick chunk so the blocked publisher
  // gets a chance to drain a non-empty spool with no fresh traffic.
  void MaybeScheduleSpoolReplay();
  [[nodiscard]] size_t Workers() const noexcept;
  // Records per resolver chunk: read_batch / (2 * Workers()).
  [[nodiscard]] size_t ChunkSize() const noexcept;
  [[nodiscard]] size_t Window() const noexcept;

  // Serial path (DrainOnce): redelivers held events, then (if clear)
  // processes one read batch.
  PassResult ProcessPass(std::vector<lustre::ChangeLogRecord>& records);
  // Retries the held tail; true when nothing is held any more.
  bool FlushHeld();

  // Shared by both paths. ResolveRecords charges all resolution cost to
  // `budget` (the caller's thread owns it); the read window feeds the
  // changelog.read span of sampled events.
  void ResolveRecords(const std::vector<lustre::ChangeLogRecord>& records,
                      std::vector<FsEvent>& events, DelayBudget& budget,
                      VirtualTime read_start, VirtualTime read_end);
  void MaintainCache(const FsEvent& event, uint64_t cache_epoch);
  // Hands events to msgq in publish_batch chunks; returns how many events
  // were accepted (a short count means the aggregator is absent or its
  // queue dropped us — the caller keeps the tail for retry).
  size_t Report(const std::vector<FsEvent>& events, DelayBudget& budget);
  void PurgeThrough(uint64_t last_index, DelayBudget& budget);

  lustre::FileSystem* fs_;
  const int mdt_index_;
  lustre::TestbedProfile profile_;
  const TimeAuthority* authority_;
  CollectorConfig config_;

  lustre::Fid2PathService fid2path_;
  lustre::CachedPathResolver cache_;
  DelayBudget budget_;          // reader stage (and the serial path)
  DelayBudget publish_budget_;  // publisher stage
  std::vector<std::unique_ptr<DelayBudget>> worker_budgets_;  // one per worker
  lustre::ConsumerId consumer_id_ = 0;
  std::unique_ptr<EventStore> local_store_;  // null unless configured
  std::unique_ptr<EventSpool> spool_;        // null unless spool_capacity > 0

  std::shared_ptr<msgq::PubSocket> pub_;
  std::shared_ptr<msgq::PushSocket> push_;

  uint64_t next_index_ = 1;  // next changelog index to extract
  // Undelivered tail of the last rejected hand-off (serial path only).
  std::vector<FsEvent> held_events_;
  uint64_t held_last_index_ = 0;  // purge watermark once the hold drains
  Rng retry_rng_;

  // Reorder buffer (common/reorder.h): resolver workers complete tickets
  // out of order; the publisher consumes them strictly in order and
  // releases each ticket only after the chunk was delivered and purged, so
  // the in-flight window covers the chunk being published.
  ReorderBuffer<ResolveChunk> reorder_;
  // Guards pool_ (re)creation against scrape-time depth reads.
  mutable std::mutex pool_mutex_;
  std::unique_ptr<ThreadPool> pool_;
  // Set by the publisher when a chunk could not be delivered during
  // shutdown; everything after it is dropped unpublished and unpurged
  // (re-extracted by the next incarnation). Atomic so Stats() can read the
  // terminal status from any thread.
  std::atomic<bool> publish_aborted_{false};
  // Set by the reader when the pool refused a chunk of a read batch; like
  // publish_aborted_, it makes the next Start() rewind the cursor.
  bool read_dropped_ = false;

  // Registry-backed instruments (shared with config_.metrics when set).
  std::shared_ptr<MetricsRegistry> metrics_;
  std::shared_ptr<Counter> extracted_;
  std::shared_ptr<Counter> filtered_;
  std::shared_ptr<Counter> processed_;
  std::shared_ptr<Counter> reported_;
  std::shared_ptr<Counter> resolve_failures_;
  std::shared_ptr<Counter> report_retries_;
  std::shared_ptr<Counter> events_spooled_;
  std::shared_ptr<Counter> events_replayed_;
  std::shared_ptr<Counter> reports_abandoned_;
  std::shared_ptr<Gauge> last_cleared_;
  // Idle follow waits that ended with a chunk of records vs. on
  // poll_interval (sdci_collector_follow_wakes_total{reason=...}).
  std::shared_ptr<Counter> follow_wakes_records_;
  std::shared_ptr<Counter> follow_wakes_timeout_;
  std::shared_ptr<LatencyHistogram> detection_latency_;
  // Per-stage modeled latency (labels: stage=read|resolve|publish).
  std::shared_ptr<LatencyHistogram> read_stage_latency_;
  std::shared_ptr<LatencyHistogram> resolve_stage_latency_;
  std::shared_ptr<LatencyHistogram> publish_stage_latency_;
  // Keeps scrape-time callbacks (pool depth, reorder occupancy) from
  // touching a destroyed collector.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  // Freshness watermarks (null when config_.watermarks is unset).
  std::shared_ptr<StageWatermark> wm_read_;
  std::shared_ptr<StageWatermark> wm_extract_;
  std::shared_ptr<StageWatermark> wm_publish_;

  std::shared_ptr<trace::Tracer> tracer_;
  const std::string component_;  // "collector.N", span attribution

  std::jthread thread_;            // reader
  std::jthread publisher_thread_;  // publisher
  std::atomic<bool> running_{false};
};

}  // namespace sdci::monitor
