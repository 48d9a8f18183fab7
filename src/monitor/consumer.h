// Consumer-side helpers: the subscriber API Ripple agents (and any other
// external service) use to receive the monitor's event stream, plus the
// client for the Aggregator's historic-events API.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "monitor/event.h"
#include "monitor/flow_ledger.h"
#include "monitor/watermarks.h"
#include "msgq/context.h"

namespace sdci::monitor {

// Live event stream subscriber.
class EventSubscriber {
 public:
  // Subscribes to the aggregator's publish endpoint. `topic_prefix` selects
  // event types by their EventTopic name: "fsevent." receives everything,
  // "fsevent.CREAT" only creates, "fsevent.C" CREAT, CLOSE and CTIME. Each
  // message carries one sequenced batch of mixed types under
  // kEventStreamTopic, so the filter runs here on the v4 type column: a
  // batch whose events all match is delivered as received (zero-copy), one
  // with no matching event is skipped, and only a partly matching batch is
  // materialized to keep its matching events.
  EventSubscriber(msgq::Context& context, const std::string& publish_endpoint,
                  std::string_view topic_prefix = kEventStreamTopic,
                  size_t hwm = 65536,
                  msgq::HwmPolicy policy = msgq::HwmPolicy::kDropNewest);

  // Next batch of matching events, in stream order (blocking / with
  // timeout). Messages with no matching event are skipped without ending
  // the timeout early. Returns any events already buffered by a per-event
  // Next() first.
  Result<EventBatch> NextBatch();
  Result<EventBatch> NextBatchFor(std::chrono::nanoseconds timeout);

  // Next single event (blocking / with timeout / non-blocking). Convenience
  // over NextBatch: extra events from a multi-event message are buffered
  // for subsequent calls.
  Result<FsEvent> Next();
  Result<FsEvent> NextFor(std::chrono::nanoseconds timeout);
  std::optional<FsEvent> TryNext();

  // Stops receiving (wakes any blocked Next()).
  void Close();

  // Signals `notifier` on every delivery to this subscriber's socket and
  // on Close(), so one thread can wait on several subscribers at once.
  void AttachNotifier(std::shared_ptr<msgq::PollNotifier> notifier) {
    sub_->AttachNotifier(std::move(notifier));
  }

  [[nodiscard]] uint64_t received() const noexcept { return received_; }
  [[nodiscard]] uint64_t batches_received() const noexcept { return batches_received_; }
  [[nodiscard]] uint64_t dropped_at_socket() const { return sub_->dropped(); }

 private:
  // Receives until a message carries a matching event (negative timeout:
  // block) and returns those events.
  Result<EventBatch> ReceiveBatch(std::chrono::nanoseconds timeout);
  // The matching events of one message; an empty batch when none match.
  Result<EventBatch> Filter(const msgq::Message& message) const;

  std::shared_ptr<msgq::SubSocket> sub_;
  uint32_t type_mask_ = 0;        // bit t set: ChangeLogType t matches
  std::vector<FsEvent> pending_;  // events from a multi-event message, reversed
  uint64_t received_ = 0;
  uint64_t batches_received_ = 0;
};

// Historic-events API client ("an API to retrieve recent events in order
// to provide fault tolerance").
class HistoryClient {
 public:
  HistoryClient(msgq::Context& context, const std::string& api_endpoint);

  struct Page {
    uint64_t first_available = 0;  // oldest seq still retained
    uint64_t last_seq = 0;
    std::vector<FsEvent> events;
  };

  // Fetches events with global_seq >= from_seq (up to max).
  Result<Page> Fetch(uint64_t from_seq, size_t max,
                     std::chrono::nanoseconds timeout = std::chrono::seconds(5));

  // Fetches events with virtual time in [from, to).
  Result<Page> FetchTimeRange(VirtualTime from, VirtualTime to, size_t max,
                              std::chrono::nanoseconds timeout = std::chrono::seconds(5));

 private:
  Result<Page> Issue(const json::Value& query, std::chrono::nanoseconds timeout);

  std::shared_ptr<msgq::ReqSocket> req_;
};

struct RecoveringSubscriberConfig {
  size_t hwm = 65536;
  msgq::HwmPolicy policy = msgq::HwmPolicy::kDropNewest;
  // First sequence this consumer is responsible for. 0 adopts the first
  // live sequence seen (no backfill of pre-subscription history); 1 makes
  // the consumer accountable for the whole stream.
  uint64_t start_seq = 0;
  size_t backfill_page = 1024;  // events per history fetch
  // Real-time patience per history request, and in total per gap (the
  // aggregator may be mid-restart when we ask it to fill a hole).
  std::chrono::nanoseconds history_timeout = std::chrono::milliseconds(250);
  std::chrono::nanoseconds backfill_deadline = std::chrono::seconds(10);
  // Observability: instruments register into `metrics` (private registry
  // when null) labelled {"subscriber": name} when `name` is non-empty —
  // set it when a fleet of subscribers shares one registry.
  std::string name;
  std::shared_ptr<MetricsRegistry> metrics;
  // Flow-conservation ledger and freshness watermarks (null = disabled).
  // A FleetSubscriber uses these for its fleet.merge boundary row and the
  // fleet.merge stage watermark; a bare RecoveringSubscriber ignores them.
  std::shared_ptr<FlowLedger> flow;
  std::shared_ptr<WatermarkRegistry> watermarks;
};

// Self-healing event consumer: a live EventSubscriber that watches
// global_seq continuity and repairs holes from the history API. It
// receives every event type: gap detection needs the full stream, since a
// filtered-out sequence would be indistinguishable from a lost one.
//
// The live stream is sequence-ordered (the aggregator's single publish
// thread sends each sequenced batch as one message, in sequence order),
// so a gap-free stream has the invariant that every arriving
// message's minimum fresh sequence equals the contiguous watermark. A
// message whose minimum exceeds the watermark therefore proves events were
// lost (aggregator crash, wire drop, socket overflow); the subscriber then
// pages the hole out of the history API, delivers the backfill *before*
// the live message, and resumes. The bookkeeping also tolerates bounded
// reordering (out-of-order deliveries park in a seen-ahead set rather than
// raising false gaps). Duplicated deliveries (at-least-once transports,
// fault injection) are filtered by sequence, so downstream consumers see
// each global_seq at most once, in order per gap-repair round. Not
// thread-safe: consume from one thread (counters may be read from others).
class RecoveringSubscriber {
 public:
  RecoveringSubscriber(msgq::Context& context, const std::string& publish_endpoint,
                       const std::string& api_endpoint,
                       RecoveringSubscriberConfig config = {});

  // Next batch: backfilled events first, then live ones (blocking / with
  // real-time timeout). A zero or spent timeout still takes a live message
  // that is already queued. A live batch with no stale event is the
  // received batch itself (same payload bytes); a partly stale one is
  // re-encoded from its fresh events, as are backfilled history pages.
  Result<EventBatch> NextBatch();
  Result<EventBatch> NextBatchFor(std::chrono::nanoseconds timeout);

  // Stops receiving (wakes any blocked NextBatch()).
  void Close();

  // See EventSubscriber::AttachNotifier.
  void AttachNotifier(std::shared_ptr<msgq::PollNotifier> notifier) {
    live_.AttachNotifier(std::move(notifier));
  }

  // Lowest sequence not yet delivered (the continuity watermark).
  [[nodiscard]] uint64_t next_expected() const noexcept {
    return next_expected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t gaps_detected() const noexcept {
    return gaps_detected_->Get();
  }
  [[nodiscard]] uint64_t events_backfilled() const noexcept {
    return events_backfilled_->Get();
  }
  // Sequences lost for good: rotated out of the history window, or the
  // API never answered within the backfill deadline.
  [[nodiscard]] uint64_t events_unrecoverable() const noexcept {
    return events_unrecoverable_->Get();
  }
  [[nodiscard]] uint64_t received() const noexcept { return received_->Get(); }
  [[nodiscard]] uint64_t batches_received() const noexcept {
    return batches_received_->Get();
  }
  [[nodiscard]] uint64_t dropped_at_socket() const { return live_.dropped_at_socket(); }

 private:
  // Files a live batch: filters duplicates, detects gaps (triggering
  // backfill into ready_), advances the watermark.
  void Ingest(const EventBatch& batch);
  // Pages [next_expected_, to) out of the history API into ready_.
  void BackfillGap(uint64_t to);
  // Advances the watermark over delivered sequences.
  void Advance(const wire::EventBatchView& view);
  Result<EventBatch> PopReady();

  EventSubscriber live_;
  HistoryClient history_;
  RecoveringSubscriberConfig config_;

  std::deque<EventBatch> ready_;  // deliverable, backfill before live
  std::set<uint64_t> ahead_;      // delivered out of order, > watermark
  std::atomic<uint64_t> next_expected_{0};

  // Registry-backed instruments (config_.metrics, or a private registry).
  std::shared_ptr<MetricsRegistry> metrics_;
  std::shared_ptr<Counter> gaps_detected_;
  std::shared_ptr<Counter> events_backfilled_;
  std::shared_ptr<Counter> events_unrecoverable_;
  std::shared_ptr<Counter> received_;
  std::shared_ptr<Counter> batches_received_;
  // Declared last: destroyed first, so the next_expected scrape callback
  // in a longer-lived registry expires before the members it reads.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sdci::monitor
