// EventCatalog: the storage role of an aggregator shard.
//
// Owns the shard's rotating EventStore, the write-ahead commit into the
// (supervisor-owned) AggregatorCheckpoint, and the store thread that
// applies committed batches to the store. Store and WAL are the same
// kind of log and share each sequenced batch's payload bytes; neither
// materializes an FsEvent (the store thread reads watermark times and
// trace fields through the batch's bound view). At construction the
// catalog restores itself from the checkpoint: the store replays the WAL
// so the history API keeps answering for pre-crash events.
//
// The write-ahead discipline lives here: CommitGroup() runs on the
// sequencer thread *before* the group is enqueued anywhere, so every
// assigned global_seq is durable before it is visible. The store thread
// is downstream memory — on crash its queue is discarded, which is
// exactly what a real process loses.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/queue.h"
#include "common/tracing.h"
#include "monitor/aggregator.h"
#include "monitor/event.h"
#include "monitor/event_store.h"

namespace sdci::monitor {

class EventCatalog {
 public:
  // `checkpoint` may be null (standalone shard: no durability, no
  // restore). `crashed` is the owning shard's crash flag, shared across
  // the three roles.
  EventCatalog(const TimeAuthority& authority, const AggregatorConfig& config,
               AggregatorCheckpoint* checkpoint,
               std::shared_ptr<trace::Tracer> tracer,
               const std::atomic<bool>& crashed);

  EventCatalog(const EventCatalog&) = delete;
  EventCatalog& operator=(const EventCatalog&) = delete;

  // Spawns the store thread.
  void Start();
  // Shutdown protocol, driven by the shard: CloseQueue() (no further
  // Enqueue succeeds, the thread drains and exits), optionally
  // DiscardQueue() on crash, then Join().
  void CloseQueue();
  void DiscardQueue();
  void Join();

  // Sequencer-side write-ahead commit: the whole group (and the advanced
  // watermark) reach the checkpoint before any batch becomes visible
  // downstream. No-op for a standalone (checkpoint-less) shard.
  void CommitGroup(const std::vector<EventBatch>& group, uint64_t watermark);

  // Hands committed batches to the store thread (blocking push:
  // backpressure propagates to the sequencer and through it to the
  // collectors).
  Status Enqueue(std::vector<EventBatch> batches);

  [[nodiscard]] const EventStore& store() const noexcept { return store_; }
  [[nodiscard]] const AggregatorCheckpoint* checkpoint() const noexcept {
    return checkpoint_;
  }
  [[nodiscard]] bool has_checkpoint() const noexcept { return checkpoint_ != nullptr; }
  // Events replayed from the checkpoint WAL at construction.
  [[nodiscard]] uint64_t restored_events() const noexcept { return restored_events_; }
  [[nodiscard]] size_t QueueDepth() const { return queue_.size(); }

 private:
  void StoreLoop();

  const TimeAuthority* authority_;
  AggregatorCheckpoint* checkpoint_;  // null for a standalone shard
  EventStore store_;
  uint64_t restored_events_ = 0;
  BoundedQueue<EventBatch> queue_;
  std::shared_ptr<trace::Tracer> tracer_;
  const std::atomic<bool>* crashed_;

  // Flow-ledger accounts and store.append watermark (null when the shard
  // runs without a ledger / watermark registry).
  std::shared_ptr<Counter> stored_;     // shard.store out
  std::shared_ptr<Counter> restored_;   // shard.store in (WAL replay)
  std::shared_ptr<Counter> discarded_;  // shard.store out (crash)
  std::shared_ptr<StageWatermark> wm_store_;

  std::jthread thread_;
};

}  // namespace sdci::monitor
