#include "monitor/wire_v4.h"

#include "common/strings.h"
#include "lustre/changelog.h"
#include "monitor/event.h"

namespace sdci::monitor::wire {

namespace {

// The validation ceiling for type bytes; anything above is hostile.
constexpr uint32_t kMaxType = static_cast<uint32_t>(lustre::ChangeLogType::kAtime);

void FillRecord(EventRecordV4& rec, const FsEvent& event,
                const uint64_t* span_override) noexcept {
  rec.record_index = event.record_index;
  rec.global_seq = event.global_seq;
  rec.time_ns = event.time.count();
  rec.target_seq = event.target_fid.seq;
  rec.parent_seq = event.parent_fid.seq;
  rec.trace_id = event.trace_id;
  rec.parent_span = span_override != nullptr ? *span_override : event.parent_span;
  rec.hlc_wall_ns = event.hlc.wall_ns;
  rec.mdt_index = static_cast<uint32_t>(event.mdt_index);
  rec.flags = event.flags;
  rec.target_oid = event.target_fid.oid;
  rec.target_ver = event.target_fid.ver;
  rec.parent_oid = event.parent_fid.oid;
  rec.parent_ver = event.parent_fid.ver;
  rec.hlc_logical = event.hlc.logical;
  rec.hlc_origin = event.hlc.origin;
  rec.type = static_cast<uint32_t>(event.type);
  rec.reserved = 0;
}

}  // namespace

size_t EncodedSizeV4(const FsEvent* events, size_t count) noexcept {
  size_t strings = 0;
  for (size_t i = 0; i < count; ++i) {
    strings += events[i].path.size() + events[i].name.size() +
               events[i].source_path.size();
  }
  return kHeaderSize + count * kEventStride + (3 * count + 1) * 4 + strings;
}

std::string EncodeEventBatchV4(const FsEvent* events, size_t count,
                               const uint64_t* parent_span_override) {
  const size_t total = EncodedSizeV4(events, count);
  std::string out;
  out.resize(total);
  char* base = out.data();

  BatchHeaderV4 header;
  header.version = kWireV4;
  header.header_size = static_cast<uint16_t>(kHeaderSize);
  header.count = static_cast<uint32_t>(count);
  header.events_off = static_cast<uint32_t>(kHeaderSize);
  header.offsets_off = static_cast<uint32_t>(kHeaderSize + count * kEventStride);
  header.strings_off =
      static_cast<uint32_t>(header.offsets_off + (3 * count + 1) * 4);
  header.total_size = static_cast<uint32_t>(total);
  header.flags = 0;
  header.magic = kWireV4Magic;
  std::memcpy(base, &header, kHeaderSize);

  char* records = base + kHeaderSize;
  char* offsets = base + header.offsets_off;
  char* heap = base + header.strings_off;
  uint32_t cursor = 0;
  for (size_t i = 0; i < count; ++i) {
    const FsEvent& event = events[i];
    EventRecordV4 rec;
    FillRecord(rec, event,
               parent_span_override != nullptr ? &parent_span_override[i] : nullptr);
    std::memcpy(records + i * kEventStride, &rec, kEventStride);
    StoreU32Le(offsets + (3 * i) * 4, cursor);
    std::memcpy(heap + cursor, event.path.data(), event.path.size());
    cursor += static_cast<uint32_t>(event.path.size());
    StoreU32Le(offsets + (3 * i + 1) * 4, cursor);
    std::memcpy(heap + cursor, event.name.data(), event.name.size());
    cursor += static_cast<uint32_t>(event.name.size());
    StoreU32Le(offsets + (3 * i + 2) * 4, cursor);
    std::memcpy(heap + cursor, event.source_path.data(), event.source_path.size());
    cursor += static_cast<uint32_t>(event.source_path.size());
  }
  StoreU32Le(offsets + (3 * count) * 4, cursor);
  return out;
}

Result<EventBatchView> EventBatchView::Bind(std::string_view payload) {
  // All arithmetic below is u64 on values bounded by u32 fields, so a
  // hostile count/offset cannot overflow size_t on 64-bit targets.
  // The version word is checked first, so any payload that is not v4 is
  // rejected as an unknown codec version however short it is.
  uint16_t version = 0;
  if (payload.size() < sizeof(version)) {
    return InvalidArgumentError("payload shorter than its codec version");
  }
  std::memcpy(&version, payload.data(), sizeof(version));
  if (version != kWireV4) {
    return InvalidArgumentError(strings::Format("unknown codec version {}", version));
  }
  if (payload.size() < kHeaderSize) {
    return InvalidArgumentError("v4 batch shorter than its header");
  }
  BatchHeaderV4 header;
  std::memcpy(&header, payload.data(), kHeaderSize);
  if (header.header_size != kHeaderSize || header.magic != kWireV4Magic ||
      header.flags != 0) {
    return InvalidArgumentError("corrupt v4 batch header");
  }
  const uint64_t count = header.count;
  const uint64_t events_off = kHeaderSize;
  const uint64_t offsets_off = events_off + count * kEventStride;
  const uint64_t strings_off = offsets_off + (3 * count + 1) * 4;
  if (header.events_off != events_off || header.offsets_off != offsets_off ||
      header.strings_off != strings_off || strings_off > payload.size()) {
    return InvalidArgumentError("v4 batch section offsets are inconsistent");
  }
  if (header.total_size != payload.size()) {
    return InvalidArgumentError("v4 batch total_size does not match payload");
  }
  const uint64_t heap_size = payload.size() - strings_off;
  // The offset table is cumulative: o[0] == 0, monotone, o[3n] == heap
  // size. That single scan bounds every string_view handed out later.
  const char* base = payload.data();
  uint64_t prev = LoadU32Le(base + offsets_off);
  if (prev != 0) return InvalidArgumentError("v4 offset table does not start at 0");
  for (uint64_t j = 1; j <= 3 * count; ++j) {
    const uint64_t off = LoadU32Le(base + offsets_off + j * 4);
    if (off < prev) return InvalidArgumentError("v4 offset table not monotone");
    prev = off;
  }
  if (prev != heap_size) {
    return InvalidArgumentError("v4 offset table does not cover the string heap");
  }
  for (uint64_t i = 0; i < count; ++i) {
    const auto* rec = reinterpret_cast<const EventRecordV4*>(
        base + events_off + i * kEventStride);
    if (rec->type > kMaxType) return InvalidArgumentError("invalid event type byte");
  }
  return EventBatchView(base, header.count);
}

EventBatchView EventBatchView::OfEncoded(std::string_view payload) noexcept {
  BatchHeaderV4 header;
  std::memcpy(&header, payload.data(), kHeaderSize);
  return EventBatchView(payload.data(), header.count);
}

EventView EventBatchView::operator[](size_t i) const noexcept {
  const char* heap = strings();
  const uint32_t o0 = offset(3 * i);
  const uint32_t o1 = offset(3 * i + 1);
  const uint32_t o2 = offset(3 * i + 2);
  const uint32_t o3 = offset(3 * i + 3);
  return EventView(record(i), std::string_view(heap + o0, o1 - o0),
                   std::string_view(heap + o1, o2 - o1),
                   std::string_view(heap + o2, o3 - o2));
}

FsEvent EventView::Materialize() const {
  FsEvent event;
  event.mdt_index = mdt_index();
  event.record_index = record_index();
  event.global_seq = global_seq();
  event.type = type();
  event.time = time();
  event.flags = flags();
  event.path.assign(path_);
  event.name.assign(name_);
  event.source_path.assign(source_);
  event.target_fid = target_fid();
  event.parent_fid = parent_fid();
  event.trace_id = trace_id();
  event.parent_span = parent_span();
  event.hlc = hlc();
  return event;
}

std::vector<FsEvent> EventBatchView::Materialize() const {
  std::vector<FsEvent> out;
  out.reserve(count_);
  for (size_t i = 0; i < count_; ++i) out.push_back((*this)[i].Materialize());
  return out;
}

}  // namespace sdci::monitor::wire
