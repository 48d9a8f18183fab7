// IngestPipeline: the ingest role of an aggregator shard.
//
//   receiver ── tickets ──> decode pool (ingest_workers) ──> sequencer
//
// The receiver pops collector messages off the shard's socket and stamps
// each with a ticket (its arrival order, via the shared ReorderBuffer);
// a worker pool decodes payloads and extracts trace context concurrently;
// a single cheap sequencer releases tickets in arrival order, assigns
// each batch its global_seq range plus its HLC stamp (common/hlc.h,
// origin == shard index), group-commits up to wal_group_max consecutive
// batches to the checkpoint WAL under one lock acquisition
// (EventCatalog::CommitGroup), and hands the batches to the serve plane
// and the catalog's store thread. Every externally visible contract of
// the serial loop is preserved: global_seq is monotone in arrival order,
// publication order matches sequence order, and the write-ahead
// discipline (WAL before visibility, watermark after the group commits)
// keeps the crash/backfill semantics intact.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/hlc.h"
#include "common/metrics.h"
#include "common/reorder.h"
#include "common/thread_pool.h"
#include "common/tracing.h"
#include "lustre/profile.h"
#include "monitor/aggregator.h"
#include "monitor/event.h"
#include "msgq/context.h"

namespace sdci::monitor {

class EventCatalog;
class ServePlane;

class IngestPipeline {
 public:
  // Shard-owned instruments this role records into.
  struct Instruments {
    std::shared_ptr<Counter> received;
    std::shared_ptr<Counter> batches_received;
    std::shared_ptr<Counter> decode_errors;
    std::shared_ptr<LatencyHistogram> wal_group_size;
  };

  // Takes over (or creates) the collector-facing socket. `catalog` and
  // `serve` are the downstream roles; `crashed` is the shard's crash flag.
  IngestPipeline(const lustre::TestbedProfile& profile,
                 const TimeAuthority& authority, msgq::Context& context,
                 const AggregatorConfig& config, AggregatorAttachments& attachments,
                 EventCatalog& catalog, ServePlane& serve, Instruments instruments,
                 std::shared_ptr<trace::Tracer> tracer,
                 const std::atomic<bool>& crashed);

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  // Spawns the decode pool, the receiver and the sequencer.
  void Start();
  // Stops ingestion front-to-back: the receiver's final drain empties the
  // socket, the pool shutdown drains every accepted decode task, and the
  // sequencer exits once it has released every assigned ticket. During a
  // crash the receiver bails at its next iteration boundary instead, but
  // ticketed messages still flow through the checkpoint commit (see
  // Aggregator::Crash).
  void StopAndDrain();

  // Sequence that will be assigned to the next ingested event.
  [[nodiscard]] uint64_t NextSeq() const noexcept {
    return next_seq_.load(std::memory_order_relaxed);
  }
  // Scrape-time depths.
  [[nodiscard]] size_t PoolDepth() const;
  [[nodiscard]] size_t ReorderOccupancy() const { return reorder_.Occupancy(); }
  // Sum of per-worker modeled busy time (Usage accounting).
  [[nodiscard]] VirtualDuration WorkerBusyTotal() const;

 private:
  // One collector message after the decode stage, keyed by ticket in the
  // sequencer's reorder buffer. `ok` is false for malformed or zero-event
  // payloads (counted as decode errors when the ticket is released, so
  // the error counter stays in arrival order too).
  //
  // A message never decodes into FsEvents here: the validated wire bytes
  // travel in `v4` (mutable — the sequencer stamps global_seq / HLC
  // straight into the fixed-offset fields).
  struct DecodedMessage {
    bool ok = false;
    std::string v4;               // flat v4 payload; empty when !ok
    uint32_t v4_count = 0;
    VirtualTime last_time{};      // newest event birth time in the message
    VirtualTime decode_start{};
    VirtualTime decode_end{};
  };

  void ReceiveLoop(const std::stop_token& stop);
  void DecodeTask(uint64_t ticket, msgq::Message message, size_t worker);
  void SequencerLoop();
  // Assigns sequence ranges and HLC stamps, records ingest spans,
  // group-commits to the checkpoint and hands the batches downstream.
  // `group` is consecutive tickets in arrival order.
  void SequenceAndCommit(std::vector<DecodedMessage> group);

  lustre::TestbedProfile profile_;
  const TimeAuthority* authority_;
  const AggregatorConfig* config_;
  EventCatalog* catalog_;
  ServePlane* serve_;

  std::shared_ptr<msgq::SubSocket> sub_;
  std::shared_ptr<msgq::PullSocket> pull_;

  // Ticketed reorder state between receiver, decode workers and the
  // sequencer (common/reorder.h — the PR 4 collector pattern, extracted).
  ReorderBuffer<DecodedMessage> reorder_;
  // Guards pool_ / worker_budgets_ (re)creation against scrape-time reads.
  mutable std::mutex pool_mutex_;
  std::unique_ptr<ThreadPool> pool_;  // created in Start()
  // One budget per decode worker (DelayBudget is single-threaded): the
  // modeled per-event ingest latency accrues per worker, so it overlaps
  // across workers exactly like the real decode work would.
  std::vector<std::unique_ptr<DelayBudget>> worker_budgets_;

  std::atomic<uint64_t> next_seq_{1};
  // Sequencer-thread-only: the shard's HLC clock (origin == shard index).
  HlcClock hlc_;

  Instruments instruments_;
  std::shared_ptr<trace::Tracer> tracer_;
  const std::atomic<bool>* crashed_;

  // Flow-ledger accounts and stage watermarks (null when the shard runs
  // without a ledger / watermark registry).
  std::shared_ptr<Counter> committed_;          // shard.wal out
  std::shared_ptr<Counter> discarded_store_;    // shard.store out (crash)
  std::shared_ptr<Counter> discarded_publish_;  // shard.publish out (crash)
  std::shared_ptr<StageWatermark> wm_decode_;
  std::shared_ptr<StageWatermark> wm_ingest_;
  std::shared_ptr<StageWatermark> wm_commit_;

  std::jthread receive_thread_;
  std::jthread sequencer_thread_;
};

}  // namespace sdci::monitor
