#include "monitor/event.h"

#include "common/strings.h"
#include "monitor/wire_v4.h"

namespace sdci::monitor {

std::string FsEvent::ToString() const {
  std::string out = strings::Format("{} {}", lustre::ChangeLogTypeName(type),
                                    path.empty() ? ("<" + target_fid.ToString() + ">") : path);
  if (type == lustre::ChangeLogType::kRename && !source_path.empty()) {
    out += " from " + source_path;
  }
  return out;
}

json::Value FsEvent::ToJson() const {
  json::Object obj;
  obj["mdt"] = json::Value(static_cast<int64_t>(mdt_index));
  obj["index"] = json::Value(static_cast<int64_t>(record_index));
  obj["seq"] = json::Value(static_cast<int64_t>(global_seq));
  obj["type"] = json::Value(std::string(lustre::ChangeLogTypeName(type)));
  obj["time_ns"] = json::Value(static_cast<int64_t>(time.count()));
  obj["flags"] = json::Value(static_cast<int64_t>(flags));
  obj["path"] = json::Value(path);
  obj["name"] = json::Value(name);
  if (!source_path.empty()) obj["source_path"] = json::Value(source_path);
  obj["target_fid"] = json::Value(target_fid.ToString());
  obj["parent_fid"] = json::Value(parent_fid.ToString());
  if (trace_id != 0) {
    obj["trace_id"] = json::Value(trace_id);
    obj["parent_span"] = json::Value(parent_span);
  }
  // The history API serves JSON; federated backfill needs the HLC stamp to
  // merge restored events against other shards' streams.
  if (!hlc.IsZero()) {
    obj["hlc_wall_ns"] = json::Value(hlc.wall_ns);
    obj["hlc_logical"] = json::Value(static_cast<int64_t>(hlc.logical));
    obj["hlc_origin"] = json::Value(static_cast<int64_t>(hlc.origin));
  }
  return json::Value(std::move(obj));
}

Result<FsEvent> FsEvent::FromJson(const json::Value& value) {
  if (!value.is_object()) return InvalidArgumentError("event must be a JSON object");
  FsEvent event;
  event.mdt_index = static_cast<int>(value.GetInt("mdt"));
  event.record_index = static_cast<uint64_t>(value.GetInt("index"));
  event.global_seq = static_cast<uint64_t>(value.GetInt("seq"));
  auto type = lustre::ParseChangeLogType(value.GetString("type", "MARK"));
  if (!type.ok()) return type.status();
  event.type = *type;
  event.time = VirtualTime(value.GetInt("time_ns"));
  event.flags = static_cast<uint32_t>(value.GetInt("flags"));
  event.path = value.GetString("path");
  event.name = value.GetString("name");
  event.source_path = value.GetString("source_path");
  auto target = lustre::Fid::Parse(value.GetString("target_fid", "[0x0:0x0:0x0]"));
  if (!target.ok()) return target.status();
  event.target_fid = *target;
  auto parent = lustre::Fid::Parse(value.GetString("parent_fid", "[0x0:0x0:0x0]"));
  if (!parent.ok()) return parent.status();
  event.parent_fid = *parent;
  event.trace_id = static_cast<uint64_t>(value.GetInt("trace_id"));
  event.parent_span = static_cast<uint64_t>(value.GetInt("parent_span"));
  event.hlc.wall_ns = value.GetInt("hlc_wall_ns");
  event.hlc.logical = static_cast<uint32_t>(value.GetInt("hlc_logical"));
  event.hlc.origin = static_cast<uint32_t>(value.GetInt("hlc_origin"));
  return event;
}

std::string EncodeEventBatch(const std::vector<FsEvent>& events) {
  return wire::EncodeEventBatchV4(events.data(), events.size());
}

Result<std::vector<FsEvent>> DecodeEventBatch(std::string_view payload) {
  auto view = wire::EventBatchView::Bind(payload);
  if (!view.ok()) return view.status();
  return view->Materialize();
}

std::string EventTopic(const FsEvent& event) { return EventTopic(event.type); }

std::string EventTopic(lustre::ChangeLogType type) {
  return std::string(kEventStreamTopic) + std::string(lustre::ChangeLogTypeName(type));
}

// ---------- EventBatch ----------

struct EventBatch::Rep {
  // Exactly one of {events, payload} is the authoritative side at
  // construction; the other is derived lazily, at most once, via its
  // once_flag. `count` is snapshotted up front so size() never forces
  // a materialization. `view` is bound over `payload` whenever that is
  // set. A decode-side batch has both from construction, so reading them
  // needs no once_flag.
  bool encode_side = false;
  mutable std::vector<FsEvent> events;
  mutable std::shared_ptr<const std::string> payload;
  mutable wire::EventBatchView view;
  mutable std::once_flag encode_once;
  mutable std::once_flag decode_once;
  // True once `events` is populated (acquire pairs with the call_once
  // publisher, so readers skip the once_flag on the fast path).
  mutable std::atomic<bool> has_events{false};
  size_t count = 0;
};

EventBatch::EventBatch(std::vector<FsEvent> events) {
  auto rep = std::make_shared<Rep>();
  rep->encode_side = true;
  rep->events = std::move(events);
  rep->count = rep->events.size();
  rep->has_events.store(true, std::memory_order_release);
  rep_ = std::move(rep);
}

Result<EventBatch> EventBatch::FromPayload(std::shared_ptr<const std::string> payload) {
  if (payload == nullptr) return InvalidArgumentError("null event batch payload");
  // Validate in place, materialize nothing. The events are decoded lazily
  // on the first events() call — never, for a batch that only transits
  // queues and the publish socket.
  auto view = wire::EventBatchView::Bind(*payload);
  if (!view.ok()) return view.status();
  if (view->empty()) return InvalidArgumentError("zero-event batch on the wire");
  return EventBatch(std::move(payload), *view);
}

EventBatch::EventBatch(std::shared_ptr<const std::string> payload,
                       const wire::EventBatchView& view) {
  auto rep = std::make_shared<Rep>();
  rep->count = view.size();
  rep->payload = std::move(payload);
  rep->view = view;
  rep_ = std::move(rep);
}

Result<EventBatch> EventBatch::FromPayload(std::string payload) {
  return FromPayload(std::make_shared<const std::string>(std::move(payload)));
}

const std::vector<FsEvent>& EventBatch::events() const noexcept {
  static const std::vector<FsEvent> kEmpty;
  if (rep_ == nullptr) return kEmpty;
  if (!rep_->has_events.load(std::memory_order_acquire)) {
    // Materialize the validated v4 payload, at most once, even when
    // pipeline threads race here.
    std::call_once(rep_->decode_once, [this] {
      rep_->events = rep_->view.Materialize();
      rep_->has_events.store(true, std::memory_order_release);
    });
  }
  return rep_->events;
}

size_t EventBatch::size() const noexcept {
  return rep_ == nullptr ? 0 : rep_->count;
}

std::shared_ptr<const std::string> EventBatch::payload() const {
  if (rep_ == nullptr) {
    return std::make_shared<const std::string>(EncodeEventBatch({}));
  }
  if (!rep_->encode_side) return rep_->payload;
  // call_once (not a bare null check) so concurrent pipeline threads cannot
  // race the lazy encode; once encoded the payload never changes.
  std::call_once(rep_->encode_once, [this] {
    rep_->payload = std::make_shared<const std::string>(EncodeEventBatch(rep_->events));
    rep_->view = wire::EventBatchView::OfEncoded(*rep_->payload);
  });
  return rep_->payload;
}

const wire::EventBatchView& EventBatch::view() const {
  static const wire::EventBatchView kEmpty;
  if (rep_ == nullptr) return kEmpty;
  if (rep_->encode_side) (void)payload();  // binds the view as it encodes
  return rep_->view;
}

std::shared_ptr<const std::string> EventBatch::FlatPayloadV4() const noexcept {
  // Decode-side batches set rep_->payload at construction; encode-side
  // batches leave it null until payload() runs, so this never races the
  // lazy encode.
  if (rep_ == nullptr) return nullptr;
  return rep_->payload;
}

}  // namespace sdci::monitor
