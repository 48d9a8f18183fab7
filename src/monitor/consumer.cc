#include "monitor/consumer.h"

#include <algorithm>
#include <thread>

namespace sdci::monitor {

namespace {
constexpr int kTypeCount = static_cast<int>(lustre::ChangeLogType::kAtime) + 1;
constexpr uint32_t kAllTypes = (uint32_t{1} << kTypeCount) - 1;
}  // namespace

EventSubscriber::EventSubscriber(msgq::Context& context,
                                 const std::string& publish_endpoint,
                                 std::string_view topic_prefix, size_t hwm,
                                 msgq::HwmPolicy policy)
    : sub_(context.CreateSub(publish_endpoint, hwm, policy)) {
  for (int t = 0; t < kTypeCount; ++t) {
    if (EventTopic(static_cast<lustre::ChangeLogType>(t)).starts_with(topic_prefix)) {
      type_mask_ |= uint32_t{1} << t;
    }
  }
  sub_->Subscribe(std::string(kEventStreamTopic));
}

Result<EventBatch> EventSubscriber::Filter(const msgq::Message& message) const {
  // Share the wire bytes: a fully matching batch keeps the received
  // payload, so a consumer that republishes (or logs) it never re-encodes.
  auto batch = EventBatch::FromPayload(message.payload);
  if (!batch.ok()) return batch.status();
  if (type_mask_ == kAllTypes) return batch;
  const wire::EventBatchView& view = batch->view();
  const auto matches = [&](size_t i) {
    return ((type_mask_ >> static_cast<int>(view.type(i))) & 1) != 0;
  };
  size_t matching = 0;
  for (size_t i = 0; i < view.size(); ++i) matching += matches(i) ? 1 : 0;
  if (matching == view.size()) return batch;
  std::vector<FsEvent> events;
  events.reserve(matching);
  for (size_t i = 0; i < view.size(); ++i) {
    if (matches(i)) events.push_back(view[i].Materialize());
  }
  return EventBatch(events);
}

Result<EventBatch> EventSubscriber::ReceiveBatch(std::chrono::nanoseconds timeout) {
  const bool infinite = timeout < std::chrono::nanoseconds(0);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    // A spent deadline still takes a message that is already queued.
    auto message = infinite ? sub_->Receive()
                            : sub_->ReceiveFor(deadline - std::chrono::steady_clock::now());
    if (!message.ok()) return message.status();
    auto batch = Filter(*message);
    if (!batch.ok()) return batch.status();
    if (batch->empty()) continue;  // no matching event: keep waiting
    ++batches_received_;
    return batch;
  }
}

Result<EventBatch> EventSubscriber::NextBatch() {
  return NextBatchFor(std::chrono::nanoseconds(-1));
}

Result<EventBatch> EventSubscriber::NextBatchFor(std::chrono::nanoseconds timeout) {
  if (!pending_.empty()) {
    // Events buffered by a per-event call: return them as a synthetic batch
    // so mixing the two APIs never reorders or loses events.
    std::vector<FsEvent> events(pending_.rbegin(), pending_.rend());
    pending_.clear();
    received_ += events.size();
    return EventBatch(events);
  }
  auto batch = ReceiveBatch(timeout);
  if (batch.ok()) received_ += batch->size();
  return batch;
}

Result<FsEvent> EventSubscriber::Next() {
  return NextFor(std::chrono::nanoseconds(-1));
}

Result<FsEvent> EventSubscriber::NextFor(std::chrono::nanoseconds timeout) {
  if (pending_.empty()) {
    auto batch = ReceiveBatch(timeout);
    if (!batch.ok()) return batch.status();
    // Buffered reversed, so consumption pops the oldest from the back.
    pending_ = batch->events();
    std::reverse(pending_.begin(), pending_.end());
  }
  FsEvent event = std::move(pending_.back());
  pending_.pop_back();
  ++received_;
  return event;
}

std::optional<FsEvent> EventSubscriber::TryNext() {
  auto event = NextFor(std::chrono::nanoseconds(0));
  if (!event.ok()) return std::nullopt;
  return std::move(event.value());
}

void EventSubscriber::Close() { sub_->Close(); }

HistoryClient::HistoryClient(msgq::Context& context, const std::string& api_endpoint)
    : req_(context.CreateReq(api_endpoint)) {}

Result<HistoryClient::Page> HistoryClient::Issue(const json::Value& query,
                                                 std::chrono::nanoseconds timeout) {
  auto reply = req_->RequestReply(msgq::Message("api.query", query.Dump()), timeout);
  if (!reply.ok()) return reply.status();
  auto parsed = json::Parse(reply->bytes());
  if (!parsed.ok()) return parsed.status();
  if (parsed->Has("error")) return InternalError(parsed->GetString("error"));
  Page page;
  page.first_available = static_cast<uint64_t>(parsed->GetInt("first_available"));
  page.last_seq = static_cast<uint64_t>(parsed->GetInt("last_seq"));
  const json::Value& events = (*parsed)["events"];
  if (events.is_array()) {
    for (const json::Value& item : events.AsArray()) {
      auto event = FsEvent::FromJson(item);
      if (!event.ok()) return event.status();
      page.events.push_back(std::move(event.value()));
    }
  }
  return page;
}

Result<HistoryClient::Page> HistoryClient::Fetch(uint64_t from_seq, size_t max,
                                                 std::chrono::nanoseconds timeout) {
  json::Object query;
  query["from_seq"] = json::Value(from_seq);
  query["max"] = json::Value(static_cast<uint64_t>(max));
  return Issue(json::Value(std::move(query)), timeout);
}

Result<HistoryClient::Page> HistoryClient::FetchTimeRange(
    VirtualTime from, VirtualTime to, size_t max, std::chrono::nanoseconds timeout) {
  json::Object query;
  query["from_time_ns"] = json::Value(from.count());
  query["to_time_ns"] = json::Value(to.count());
  query["max"] = json::Value(static_cast<uint64_t>(max));
  return Issue(json::Value(std::move(query)), timeout);
}

RecoveringSubscriber::RecoveringSubscriber(msgq::Context& context,
                                           const std::string& publish_endpoint,
                                           const std::string& api_endpoint,
                                           RecoveringSubscriberConfig config)
    : live_(context, publish_endpoint, kEventStreamTopic, config.hwm, config.policy),
      history_(context, api_endpoint),
      config_(std::move(config)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : std::make_shared<MetricsRegistry>()) {
  next_expected_.store(config_.start_seq, std::memory_order_relaxed);
  MetricLabels labels;
  if (!config_.name.empty()) labels.emplace_back("subscriber", config_.name);
  gaps_detected_ = metrics_->GetCounter("sdci_subscriber_gaps_detected_total", labels);
  events_backfilled_ =
      metrics_->GetCounter("sdci_subscriber_events_backfilled_total", labels);
  events_unrecoverable_ =
      metrics_->GetCounter("sdci_subscriber_events_unrecoverable_total", labels);
  received_ = metrics_->GetCounter("sdci_subscriber_received_total", labels);
  batches_received_ =
      metrics_->GetCounter("sdci_subscriber_batches_received_total", labels);
  const std::weak_ptr<bool> alive = alive_;
  metrics_->RegisterCallback("sdci_subscriber_next_expected", labels,
                             [alive, this]() -> std::optional<int64_t> {
                               if (alive.expired()) return std::nullopt;
                               return static_cast<int64_t>(next_expected());
                             });
}

Result<EventBatch> RecoveringSubscriber::NextBatch() {
  return NextBatchFor(std::chrono::nanoseconds(-1));
}

Result<EventBatch> RecoveringSubscriber::NextBatchFor(std::chrono::nanoseconds timeout) {
  const bool infinite = timeout < std::chrono::nanoseconds(0);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    if (!ready_.empty()) return PopReady();
    // A spent deadline still takes a message that is already queued (a
    // zero timeout, not a negative one: that would block).
    auto batch = infinite ? live_.NextBatch()
                          : live_.NextBatchFor(std::max<std::chrono::nanoseconds>(
                                deadline - std::chrono::steady_clock::now(),
                                std::chrono::nanoseconds(0)));
    if (!batch.ok()) return batch.status();
    // A batch may be entirely stale (a duplicated delivery): Ingest then
    // queues nothing and we simply wait for the next one.
    Ingest(*batch);
  }
}

Result<EventBatch> RecoveringSubscriber::PopReady() {
  EventBatch batch = std::move(ready_.front());
  ready_.pop_front();
  received_->Add(batch.size());
  batches_received_->Add();
  return batch;
}

void RecoveringSubscriber::Ingest(const EventBatch& batch) {
  const wire::EventBatchView& view = batch.view();
  uint64_t watermark = next_expected_.load(std::memory_order_relaxed);
  // Filter sequences already delivered — behind the watermark, or ahead of
  // it but seen out of order. What survives is fresh.
  const auto is_fresh = [&](size_t i) {
    const uint64_t seq = view.global_seq(i);
    return watermark == 0 || (seq >= watermark && ahead_.count(seq) == 0);
  };
  size_t first = view.size();
  size_t fresh_count = 0;
  for (size_t i = 0; i < view.size(); ++i) {
    if (!is_fresh(i)) continue;
    if (fresh_count++ == 0) first = i;
  }
  if (fresh_count == 0) return;
  // A wholly fresh batch is delivered as received, sharing its bytes; only
  // a partly stale one is rebuilt from its fresh events.
  EventBatch fresh = batch;
  if (fresh_count < view.size()) {
    std::vector<FsEvent> events;
    events.reserve(fresh_count);
    for (size_t i = first; i < view.size(); ++i) {
      if (is_fresh(i)) events.push_back(view[i].Materialize());
    }
    fresh = EventBatch(events);
  }
  const uint64_t min_seq = view.global_seq(first);
  if (watermark == 0) {
    // start_seq 0: adopt the stream where we joined it.
    watermark = min_seq;
    next_expected_.store(watermark, std::memory_order_relaxed);
  }
  if (min_seq > watermark) {
    // Everything below min_seq was published before this message, so the
    // hole [watermark, min_seq) can only be filled from history.
    gaps_detected_->Add();
    BackfillGap(min_seq);
  }
  Advance(fresh.view());
  ready_.push_back(std::move(fresh));
}

void RecoveringSubscriber::BackfillGap(uint64_t to) {
  const auto deadline = std::chrono::steady_clock::now() + config_.backfill_deadline;
  uint64_t cursor = next_expected_.load(std::memory_order_relaxed);
  const auto count_missing = [&](uint64_t from, uint64_t until) {
    // Sequences in [from, until) not already delivered out of order.
    uint64_t missing = until > from ? until - from : 0;
    for (auto it = ahead_.lower_bound(from); it != ahead_.end() && *it < until; ++it) {
      --missing;
    }
    return missing;
  };
  while (cursor < to) {
    if (ahead_.count(cursor) > 0) {
      ++cursor;
      continue;
    }
    auto page = history_.Fetch(cursor, config_.backfill_page, config_.history_timeout);
    if (!page.ok()) {
      // The aggregator may be mid-restart; keep asking until the deadline.
      if (std::chrono::steady_clock::now() >= deadline) {
        events_unrecoverable_->Add(count_missing(cursor, to));
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (page->first_available > cursor) {
      // The hole's head rotated out of the history window: those events
      // are gone for good. Resume from what is retained.
      const uint64_t lost_until = std::min(page->first_available, to);
      events_unrecoverable_->Add(count_missing(cursor, lost_until));
      cursor = lost_until;
      continue;
    }
    std::vector<FsEvent> events;
    events.reserve(page->events.size());
    for (const FsEvent& event : page->events) {
      if (event.global_seq >= to) break;
      if (ahead_.count(event.global_seq) > 0) continue;
      events.push_back(event);
    }
    if (events.empty()) {
      // Retained but not served yet (the restarted store is still
      // catching up); retry until the deadline.
      if (std::chrono::steady_clock::now() >= deadline) {
        events_unrecoverable_->Add(count_missing(cursor, to));
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    cursor = events.back().global_seq + 1;
    events_backfilled_->Add(events.size());
    ready_.push_back(EventBatch(events));
  }
  // The gap is resolved (backfilled or written off): move the watermark to
  // the live message that exposed it, consuming any out-of-order
  // deliveries the gap spanned.
  while (!ahead_.empty() && *ahead_.begin() < to) ahead_.erase(ahead_.begin());
  uint64_t watermark = to;
  while (!ahead_.empty() && *ahead_.begin() == watermark) {
    ahead_.erase(ahead_.begin());
    ++watermark;
  }
  next_expected_.store(watermark, std::memory_order_relaxed);
}

void RecoveringSubscriber::Advance(const wire::EventBatchView& view) {
  uint64_t watermark = next_expected_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < view.size(); ++i) {
    const uint64_t seq = view.global_seq(i);
    if (seq == watermark) {
      ++watermark;
    } else if (seq > watermark) {
      ahead_.insert(seq);
    }
  }
  while (!ahead_.empty() && *ahead_.begin() == watermark) {
    ahead_.erase(ahead_.begin());
    ++watermark;
  }
  next_expected_.store(watermark, std::memory_order_relaxed);
}

void RecoveringSubscriber::Close() { live_.Close(); }

}  // namespace sdci::monitor
