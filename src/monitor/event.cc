#include "monitor/event.h"

#include <utility>

#include "common/strings.h"

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

EventBatch::EventBatch(const std::vector<FsEvent>& events)
    : payload_(std::make_shared<const std::string>(EncodeEventBatch(events))),
      view_(wire::EventBatchView::OfEncoded(*payload_)) {}

Result<EventBatch> EventBatch::FromPayload(std::shared_ptr<const std::string> payload) {
  if (payload == nullptr) return InvalidArgumentError("null event batch payload");
  auto view = wire::EventBatchView::Bind(*payload);
  if (!view.ok()) return view.status();
  if (view->empty()) return InvalidArgumentError("zero-event batch on the wire");
  return EventBatch(std::move(payload), *view);
}

Result<EventBatch> EventBatch::FromPayload(std::string payload) {
  return FromPayload(std::make_shared<const std::string>(std::move(payload)));
}

EventBatch::EventBatch(EventBatch&& other) noexcept
    : payload_(std::move(other.payload_)), view_(std::exchange(other.view_, {})) {}

EventBatch& EventBatch::operator=(EventBatch&& other) noexcept {
  payload_ = std::move(other.payload_);
  view_ = std::exchange(other.view_, {});
  return *this;
}

}  // namespace sdci::monitor
