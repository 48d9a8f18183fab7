// Rotating event catalog kept by the Aggregator, and its write-ahead log.
//
// "The monitor also maintains a rotating catalog of events and an API to
// retrieve recent events in order to provide fault tolerance." Bounded by
// a max event count; the oldest events rotate out. Query by global
// sequence lets a consumer that crashed re-fetch everything it missed, as
// long as it comes back before its gap rotates out.
//
// The store is a log of the sequenced v4 batches it is handed, under one
// lock: an entry is the EventBatch itself (a reference on its payload
// bytes plus the view already bound over them), so an append copies no
// event and re-validates nothing. A query copies the matching batches'
// references under the lock and materializes only the returned page,
// outside it; a page therefore stays valid however far rotation moves on
// meanwhile. The same class is the aggregator's checkpoint WAL
// (AggregatorCheckpoint): group append under one lock, a commit count and
// a batch snapshot to replay on restore.
//
// Rotation drops whole batches from the front once the remaining batches
// still cover max_events; queries see only the newest max_events events
// (the rest of the front batch is hidden, not yet freed).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/resource.h"
#include "monitor/event.h"
#include "monitor/wire_v4.h"

namespace sdci::monitor {

class EventStore {
 public:
  // `max_events` == 0 is treated as 1.
  explicit EventStore(size_t max_events);

  // Appends one batch (a reference: no copy, no re-validation). Empty
  // batches are ignored. Sequences must not decrease from one
  // append to the next (the sequencer's order).
  void Append(const EventBatch& batch);

  // Group commit: every batch in the group lands under one lock
  // acquisition — concurrent readers and a crash-time snapshot see all of
  // a group or none of it — and counts as one commit.
  void AppendGroup(const std::vector<EventBatch>& batches);

  // Events with global_seq >= from_seq, oldest first, up to max. Events
  // older than the rotation window are gone; `first_available` (if given)
  // reports the oldest retained sequence so callers can detect gaps. The
  // page and `first_available` come from the same snapshot.
  [[nodiscard]] std::vector<FsEvent> Query(uint64_t from_seq, size_t max,
                                           uint64_t* first_available = nullptr) const;

  // Events with time in [from, to), up to max, ordered by global_seq. The
  // store's appends are timestamp-monotone in practice (the collector
  // publishes in ChangeLog order; the aggregator assigns sequences in
  // arrival order), which makes the range start a binary search; once the
  // store observes an out-of-order time among its retained events it
  // falls back to a linear scan permanently. Times are checked lazily, by
  // the first range query after an append, so appends never scan events.
  [[nodiscard]] std::vector<FsEvent> QueryTimeRange(VirtualTime from, VirtualTime to,
                                                    size_t max) const;

  // Every retained batch, oldest first, including the hidden part of the
  // front batch: replaying them into a store of the same capacity
  // rebuilds this one's window.
  [[nodiscard]] std::vector<EventBatch> Snapshot() const;

  [[nodiscard]] uint64_t FirstSeq() const;  // 0 when empty
  [[nodiscard]] uint64_t LastSeq() const;   // 0 when empty
  [[nodiscard]] size_t Size() const;        // events in the window
  [[nodiscard]] uint64_t TotalAppended() const;  // events, over all time
  [[nodiscard]] uint64_t Commits() const;  // lock acquisitions that appended
  [[nodiscard]] size_t max_events() const noexcept { return max_events_; }

  // Charged per retained batch: the batch and its payload bytes.
  [[nodiscard]] const MemoryAccountant& memory() const noexcept { return memory_; }

 private:
  // Events [begin, end) of one batch; holds the payload alive until the
  // page is materialized.
  struct Slice {
    EventBatch batch;
    size_t begin, end;
  };

  [[nodiscard]] static uint64_t Bytes(const EventBatch& batch) noexcept {
    return sizeof(EventBatch) + batch.payload()->capacity();
  }
  // Appends a non-empty batch and rotates; returns the bytes retained
  // minus the bytes freed.
  int64_t AppendLocked(const EventBatch& batch);
  // Counts one commit and books its bytes with the accountant.
  void CommitLocked(int64_t bytes);
  // Events at the head of the front batch that lie outside the window.
  [[nodiscard]] size_t HiddenLocked() const noexcept;
  [[nodiscard]] uint64_t FirstSeqLocked() const noexcept;
  void CheckTimeOrderLocked() const;
  [[nodiscard]] static std::vector<FsEvent> Materialize(const std::vector<Slice>& slices);

  const size_t max_events_;
  mutable std::mutex mutex_;
  std::deque<EventBatch> batches_;  // ordered by global_seq
  size_t event_count_ = 0;          // events in batches_, hidden ones included
  uint64_t total_appended_ = 0;
  uint64_t commits_ = 0;
  // Time order of the retained events: batches_[0, time_checked_) have
  // been checked, and time_monotone_ turns false for good at the first
  // regression.
  mutable bool time_monotone_ = true;
  mutable size_t time_checked_ = 0;
  MemoryAccountant memory_;
};

}  // namespace sdci::monitor
