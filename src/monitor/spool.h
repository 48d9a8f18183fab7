// EventSpool: a bounded durable spool for collector shard-outage survival.
//
// When a collector's aggregator shard is hard-down past the configured
// restart budget, the publisher spills accepted-but-unreportable events
// here instead of blocking the whole pipeline on retries — the ChangeLog
// purge can then proceed (the spool is the durability hand-off, modeled
// durable exactly like the supervisor-owned AggregatorCheckpoint) and the
// reader keeps draining. On shard recovery the spool replays strictly in
// append order, ahead of any fresh events, so the per-collector delivery
// order and the PR 2 purge-after-accept contract hold end-to-end.
//
// Unlike the checkpoint WAL (an EventStore, event_store.h), whose rotation
// drops the oldest batches past capacity, the spool must never drop an
// undelivered event: TryAppend fails when the batch does not fit, and the
// caller falls back to blocking retry — backpressure, not loss.
#pragma once

#include <deque>
#include <mutex>
#include <vector>

#include "monitor/event.h"

namespace sdci::monitor {

class EventSpool {
 public:
  // `capacity` is in events, across all spooled batches.
  explicit EventSpool(size_t capacity);

  EventSpool(const EventSpool&) = delete;
  EventSpool& operator=(const EventSpool&) = delete;

  // Appends the whole batch iff it fits; false (and nothing appended) when
  // it would exceed capacity — the caller must keep the events and retry.
  [[nodiscard]] bool TryAppend(const std::vector<FsEvent>& events);

  // Copies up to `max` of the oldest spooled events (the replay head).
  [[nodiscard]] std::vector<FsEvent> PeekFront(size_t max) const;

  // Discards the oldest `count` events after they were delivered.
  void DropFront(size_t count);

  [[nodiscard]] bool Empty() const { return EventCount() == 0; }
  [[nodiscard]] size_t EventCount() const;
  [[nodiscard]] size_t capacity() const noexcept { return capacity_; }

  // Lifetime counters (monotone; depth = spooled - replayed).
  [[nodiscard]] uint64_t TotalSpooled() const;
  [[nodiscard]] uint64_t TotalReplayed() const;
  [[nodiscard]] uint64_t Rejects() const;
  [[nodiscard]] size_t PeakDepth() const;

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<FsEvent> events_;
  uint64_t total_spooled_ = 0;
  uint64_t total_replayed_ = 0;
  uint64_t rejects_ = 0;
  size_t peak_depth_ = 0;
};

}  // namespace sdci::monitor
