#include "monitor/serve_plane.h"

#include "monitor/event_catalog.h"
#include "monitor/wire_v4.h"

namespace sdci::monitor {

namespace {
// Real-time poll quantum for the api receive loop; bounds shutdown latency.
constexpr std::chrono::milliseconds kPollQuantum(5);
// Max batches the publish thread takes per bulk pop.
constexpr size_t kBulkPop = 16;
}  // namespace

ServePlane::ServePlane(const TimeAuthority& authority, msgq::Context& context,
                       const AggregatorConfig& config, const EventCatalog& catalog,
                       Instruments instruments,
                       std::shared_ptr<trace::Tracer> tracer,
                       const std::atomic<bool>& crashed)
    : authority_(&authority),
      config_(&config),
      catalog_(&catalog),
      queue_(config.internal_queue),
      instruments_(std::move(instruments)),
      tracer_(std::move(tracer)),
      crashed_(&crashed) {
  const std::string instance = config.InstanceName();
  if (config.watermarks != nullptr) {
    wm_publish_ = config.watermarks->Handle(trace::kAggregatorPublish, instance);
  }
  if (config.flow != nullptr) {
    config.flow->Bind("shard.publish", instance, FlowKind::kOut, "published",
                      instruments_.published);
    discarded_ = config.flow->Account("shard.publish", instance, FlowKind::kOut,
                                      "discarded");
  }
  pub_ = context.CreatePub(config.publish_endpoint);
  rep_ = context.CreateRep(config.api_endpoint);
}

void ServePlane::Start() {
  publish_thread_ = std::jthread([this] { PublishLoop(); });
  api_thread_ = std::jthread([this](const std::stop_token& stop) { ApiLoop(stop); });
}

void ServePlane::ClosePublish() { queue_.Close(); }

void ServePlane::DiscardPublishQueue() {
  for (const EventBatch& batch : queue_.TryPopAll()) {
    if (discarded_ != nullptr) discarded_->Add(batch.size());
  }
}

void ServePlane::JoinPublish() {
  if (publish_thread_.joinable()) publish_thread_.join();
}

void ServePlane::StopApi() {
  api_thread_.request_stop();
  rep_->Close();
  if (api_thread_.joinable()) api_thread_.join();
}

Status ServePlane::Enqueue(std::vector<EventBatch> batches) {
  return queue_.PushAll(std::move(batches));
}

void ServePlane::PublishLoop() {
  while (true) {
    // Bulk pop: under collector fan-in the queue runs non-empty, and taking
    // everything available in one lock acquisition keeps this loop off the
    // sequencer's critical path. Crash semantics are per batch below.
    auto batches = queue_.PopAll(kBulkPop);
    if (!batches.ok()) break;  // closed and drained
    for (EventBatch& batch : *batches) {
      // On crash, queued batches are discarded unprocessed: subscribers see
      // a sequence gap and heal it from the restored history API.
      if (crashed_->load(std::memory_order_acquire)) {
        if (discarded_ != nullptr) discarded_->Add(batch.size());
        continue;
      }
      // The message carries the batch's own payload reference; fan-out
      // below shares those bytes across every subscriber queue. Per-event
      // bookkeeping (delivery latency, trace spans, watermark) reads
      // through the view bound when the sequencer validated the batch, so
      // publishing neither re-validates nor materializes owning FsEvents.
      const std::shared_ptr<const std::string>& payload = batch.payload();
      const wire::EventBatchView& view = batch.view();
      const VirtualTime now = authority_->Now();
      const size_t count = view.size();
      for (size_t i = 0; i < count; ++i) {
        instruments_.delivery_latency->Record(now - view.time(i));
      }
      pub_->Publish(msgq::Message(std::string(kEventStreamTopic), payload));
      if (tracer_ != nullptr) {
        for (size_t i = 0; i < count; ++i) {
          if (view.trace_id(i) == 0) continue;
          tracer_->Record(view.trace_id(i), view.parent_span(i),
                          trace::kAggregatorPublish, "aggregator", now,
                          authority_->Now());
        }
      }
      if (wm_publish_ != nullptr && count > 0) {
        wm_publish_->Advance(view.time(count - 1));
      }
      instruments_.published->Add(batch.size());
      instruments_.batches_published->Add();
    }
  }
}

void ServePlane::ApiLoop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    auto request = rep_->ReceiveFor(kPollQuantum);
    if (!request.ok()) {
      if (request.status().code() == StatusCode::kClosed) break;
      continue;
    }
    HandleApiRequest(*request);
  }
}

void ServePlane::HandleApiRequest(msgq::Request& request) {
  const auto reply_error = [&request](std::string message) {
    json::Object err;
    err["error"] = json::Value(std::move(message));
    request.Reply(msgq::Message("api.error", json::Value(std::move(err)).Dump()));
  };
  auto parsed = json::Parse(request.message.bytes());
  if (!parsed.ok()) {
    reply_error(parsed.status().ToString());
    return;
  }
  const json::Value& query = *parsed;
  if (query.GetString("op") == "stats") {
    // Stats channel: the same REQ/REP socket that serves history answers
    // fleet status (SLO alerts, flow ledger, watermarks) when the owner
    // wired a provider; a bare shard answers with its fleet position.
    if (config_->status_provider) {
      request.Reply(msgq::Message("api.stats", config_->status_provider()));
      return;
    }
    json::Object stats;
    stats["shard"] = json::Value(static_cast<int64_t>(config_->shard_index));
    stats["shards"] = json::Value(static_cast<int64_t>(config_->shard_count));
    stats["last_seq"] = json::Value(catalog_->store().LastSeq());
    request.Reply(
        msgq::Message("api.stats", json::Value(std::move(stats)).Dump()));
    return;
  }
  const int64_t from_seq = query.GetInt("from_seq", 0);
  const int64_t max = query.GetInt("max", 1024);
  if (from_seq < 0 || max < 0) {
    reply_error("from_seq and max must not be negative");
    return;
  }
  const EventStore& store = catalog_->store();
  uint64_t first_available = 0;
  std::vector<FsEvent> events;
  if (query.Has("from_time_ns") || query.Has("to_time_ns")) {
    const VirtualTime from(query.GetInt("from_time_ns", 0));
    const VirtualTime to(query.GetInt("to_time_ns", INT64_MAX));
    events = store.QueryTimeRange(from, to, static_cast<size_t>(max));
    first_available = store.FirstSeq();
  } else {
    events = store.Query(static_cast<uint64_t>(from_seq), static_cast<size_t>(max),
                         &first_available);
  }
  json::Object reply;
  reply["first_available"] = json::Value(first_available);
  reply["last_seq"] = json::Value(store.LastSeq());
  // Fleet position, so federation clients can sanity-check their routing.
  reply["shard"] = json::Value(static_cast<int64_t>(config_->shard_index));
  reply["shards"] = json::Value(static_cast<int64_t>(config_->shard_count));
  json::Array array;
  array.reserve(events.size());
  for (const FsEvent& event : events) array.push_back(event.ToJson());
  reply["events"] = json::Value(std::move(array));
  request.Reply(msgq::Message("api.reply", json::Value(std::move(reply)).Dump()));
}

}  // namespace sdci::monitor
