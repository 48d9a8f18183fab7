// ReliableQueue: the SQS model backing Ripple's cloud service.
//
// "Once an event is reported it is immediately placed in a reliable SQS
// queue. Serverless Lambda functions act on entries in this queue and
// remove them once successfully processed. A cleanup function periodically
// iterates through the queue and initiates additional processing for
// events that were unsuccessfully processed."
//
// Semantics reproduced: at-least-once delivery with a visibility timeout.
// Receive() hides the entry for `visibility`; Delete() (by receipt handle)
// removes it permanently; an entry whose handler crashed becomes visible
// again once its timeout lapses and is redelivered (what the paper's
// cleanup function achieves). Receive counts are tracked so consumers can
// route poison messages to a dead-letter list after max_receives.
//
// Multi-tenant fairness: every message belongs to a lane (default "").
// Delivery is FIFO within a lane and round-robin across lanes that have
// visible messages, so one tenant's backlog (or redelivery churn) cannot
// starve the others — with a single lane the behavior is exactly the old
// global FIFO. Lanes are created on first Send and reclaimed when empty.
//
// Long polling (SQS's WaitTimeSeconds): Receive(wait) parks on a
// condition variable while nothing is visible; Send and a CleanupSweep
// that revives entries wake it, and `wait` bounds the park.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace sdci::ripple {

struct QueueMessage {
  uint64_t id = 0;            // stable message id
  uint64_t receipt = 0;       // receipt handle for this delivery
  uint32_t receive_count = 0; // deliveries so far (1 = first)
  std::string lane;           // fairness lane the message was sent on
  std::string body;
};

struct ReliableQueueConfig {
  VirtualDuration visibility_timeout = Seconds(30.0);
  uint32_t max_receives = 5;  // beyond this, messages go to the DLQ
};

class ReliableQueue {
 public:
  ReliableQueue(const TimeAuthority& authority, ReliableQueueConfig config = {});

  // Enqueues a message on a lane (default lane ""); returns its id.
  uint64_t Send(std::string body, std::string lane = std::string());

  // Delivers the oldest visible message of the next lane in the round-
  // robin rotation, hiding it for the visibility timeout. Messages
  // exceeding max_receives are moved to the dead-letter list instead.
  // When nothing is visible, long-polls: waits up to `wait` (virtual time)
  // for a Send or a sweep to make a message visible, and returns nullopt
  // if none does. An in-flight entry whose timeout lapses mid-wait is
  // picked up by the next receive, or sooner if a sweep revives it.
  std::optional<QueueMessage> Receive(VirtualDuration wait = VirtualDuration::zero());

  // Acknowledges a delivery. Fails with kNotFound when the receipt is
  // stale (the message timed out and was redelivered — the race the
  // visibility timeout exists to resolve).
  Status Delete(uint64_t receipt);

  // Places a message directly on the dead-letter list without it ever
  // entering the queue; returns its id. This is the over-quota route:
  // a throttled tenant's work is parked for operator inspection instead
  // of burning worker receives.
  uint64_t PushDeadLetter(std::string body, std::string lane = std::string());

  // Counts currently invisible (in-flight) messages whose timeout lapsed
  // and re-queues them eagerly; Receive() would do this lazily anyway.
  // Returns how many became visible again. Models the cleanup function.
  size_t CleanupSweep();

  [[nodiscard]] size_t VisibleDepth() const;
  [[nodiscard]] size_t InFlight() const;
  [[nodiscard]] size_t LaneCount() const;
  [[nodiscard]] uint64_t TotalSent() const;
  [[nodiscard]] uint64_t TotalDeleted() const;
  [[nodiscard]] uint64_t Redelivered() const;
  [[nodiscard]] std::vector<QueueMessage> DeadLetters() const;
  [[nodiscard]] size_t DeadLetterDepth() const;

  // Removes and returns everything on the dead-letter list (operator
  // intervention: inspect the poison messages, fix the cause, optionally
  // re-Send them).
  std::vector<QueueMessage> DrainDeadLetters();

 private:
  struct Entry {
    uint64_t id = 0;
    uint64_t receipt = 0;        // 0 when visible
    uint32_t receive_count = 0;
    VirtualTime invisible_until{};
    std::string body;
  };

  std::optional<QueueMessage> ReceiveLocked();

  const TimeAuthority* authority_;
  ReliableQueueConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable visible_;  // a Send or a sweep made work visible
  // Per-lane FIFOs, rotated fairly by Receive. Empty lanes are erased so
  // the map stays bounded by the set of tenants with work in flight.
  std::map<std::string, std::deque<Entry>> lanes_;
  std::string rr_cursor_;  // last lane that delivered
  std::vector<QueueMessage> dead_letters_;
  uint64_t next_id_ = 1;
  uint64_t next_receipt_ = 1;
  uint64_t total_sent_ = 0;
  uint64_t total_deleted_ = 0;
  uint64_t redelivered_ = 0;
};

}  // namespace sdci::ripple
