// Flat wire format v4: the zero-copy event batch layout.
//
// The pipeline's only wire codec. Unlike a field-wise stream decoded into
// owning FsEvents, a v4 payload is readable in place: a fixed-size batch header, `count` packed
// fixed-width event records, a cumulative string-offset table, then one
// string heap. Decoding is a pointer-cast-plus-validate — an O(count)
// scan of the offset table and type bytes, no allocations — after which
// every field is an O(1) read through EventBatchView / EventView, with
// paths as string_views aliasing the payload bytes (which msgq::Message
// already refcounts). An owning FsEvent is materialized only where a
// consumer genuinely needs one (a history page, the history API's JSON).
//
//   offset 0                32                 32+104*count
//   +--------------------+ +----------------+ +---------------+ +--------+
//   | BatchHeaderV4 (32) | | EventRecordV4  | | u32 offsets   | | string |
//   |                    | |   x count      | |   3*count+1   | |  heap  |
//   +--------------------+ +----------------+ +---------------+ +--------+
//
// Event i's strings are heap[o[3i]..o[3i+1]) = path, [o[3i+1]..o[3i+2]) =
// name, [o[3i+2]..o[3i+3]) = source_path; o[0] == 0 and o[3*count] is the
// heap size, so the table is also a structural checksum (monotone, exact
// total) that validation enforces before any view is handed out.
//
// Because global_seq, the HLC stamp and the trace parent live at fixed
// offsets in EventRecordV4, the aggregator's sequencer stamps them
// directly into the received bytes (MutableBatchV4) instead of decoding
// and re-encoding the batch — the zero-copy ingest path.
//
// Layout discipline follows Lustre's wirecheck.c: every offset and size
// below is pinned by static_asserts in wire_v4_check.cc, so the build
// fails if the cast-in-place layout ever drifts.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/hlc.h"
#include "common/serde.h"
#include "common/status.h"
#include "lustre/changelog.h"
#include "lustre/fid.h"

namespace sdci::monitor {
struct FsEvent;  // monitor/event.h, which includes this header
}  // namespace sdci::monitor

namespace sdci::monitor::wire {

static_assert(std::endian::native == std::endian::little,
              "wire v4 is little-endian on the wire and in memory");

constexpr uint16_t kWireV4 = 4;
// "SDC1", little-endian. Cheap armor against casting a non-batch payload.
constexpr uint32_t kWireV4Magic = 0x31434453u;

#pragma pack(push, 1)
// alignment-1 packed structs: casting an arbitrary (char*) payload offset
// to these types is well-defined, and member reads compile to
// unaligned-safe loads (UBSan-clean regardless of where the payload sits).
struct BatchHeaderV4 {
  uint16_t version;      // == kWireV4 (any other value: unknown codec version)
  uint16_t header_size;  // == sizeof(BatchHeaderV4)
  uint32_t count;        // events in the batch
  uint32_t events_off;   // == header_size
  uint32_t offsets_off;  // == events_off + count * sizeof(EventRecordV4)
  uint32_t strings_off;  // == offsets_off + (3 * count + 1) * 4
  uint32_t total_size;   // == whole payload size (no trailing bytes)
  uint32_t flags;        // reserved, 0
  uint32_t magic;        // == kWireV4Magic
};

struct EventRecordV4 {
  // 8-byte fields first, then 4-byte: natural packing, zero padding.
  uint64_t record_index;
  uint64_t global_seq;   // patched in place by the sequencer
  int64_t time_ns;
  uint64_t target_seq;
  uint64_t parent_seq;
  uint64_t trace_id;
  uint64_t parent_span;  // patched in place by traced stages
  int64_t hlc_wall_ns;   // patched in place by the sequencer
  uint32_t mdt_index;
  uint32_t flags;
  uint32_t target_oid;
  uint32_t target_ver;
  uint32_t parent_oid;
  uint32_t parent_ver;
  uint32_t hlc_logical;  // patched in place by the sequencer
  uint32_t hlc_origin;   // patched in place by the sequencer
  uint32_t type;         // lustre::ChangeLogType, validated <= kAtime
  uint32_t reserved;
};
#pragma pack(pop)

constexpr size_t kHeaderSize = sizeof(BatchHeaderV4);
constexpr size_t kEventStride = sizeof(EventRecordV4);

// Exact encoded size of a batch (header + records + offset table + heap).
[[nodiscard]] size_t EncodedSizeV4(const FsEvent* events, size_t count) noexcept;

// Encodes `events[0..count)` as one v4 payload in a single exact-size
// allocation (the per-batch arena: no intermediate FsEvent copies, no
// per-field buffer growth). `parent_span_override`, when non-null, is
// written as event i's parent_span instead of events[i].parent_span — the
// collector publishes under fresh span ids without copying the events.
[[nodiscard]] std::string EncodeEventBatchV4(
    const FsEvent* events, size_t count,
    const uint64_t* parent_span_override = nullptr);

// One event read in place. Cheap value type: a record pointer plus the
// three string_views resolved from the offset table. Every accessor is a
// direct load from the payload bytes the view was bound over.
class EventView {
 public:
  [[nodiscard]] int mdt_index() const noexcept { return static_cast<int>(rec_->mdt_index); }
  [[nodiscard]] uint64_t record_index() const noexcept { return rec_->record_index; }
  [[nodiscard]] uint64_t global_seq() const noexcept { return rec_->global_seq; }
  [[nodiscard]] lustre::ChangeLogType type() const noexcept {
    return static_cast<lustre::ChangeLogType>(rec_->type);
  }
  [[nodiscard]] VirtualTime time() const noexcept { return VirtualTime(rec_->time_ns); }
  [[nodiscard]] uint32_t flags() const noexcept { return rec_->flags; }
  [[nodiscard]] std::string_view path() const noexcept { return path_; }
  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  [[nodiscard]] std::string_view source_path() const noexcept { return source_; }
  [[nodiscard]] lustre::Fid target_fid() const noexcept {
    return lustre::Fid{rec_->target_seq, rec_->target_oid, rec_->target_ver};
  }
  [[nodiscard]] lustre::Fid parent_fid() const noexcept {
    return lustre::Fid{rec_->parent_seq, rec_->parent_oid, rec_->parent_ver};
  }
  [[nodiscard]] uint64_t trace_id() const noexcept { return rec_->trace_id; }
  [[nodiscard]] uint64_t parent_span() const noexcept { return rec_->parent_span; }
  [[nodiscard]] HlcStamp hlc() const noexcept {
    return HlcStamp{rec_->hlc_wall_ns, rec_->hlc_logical, rec_->hlc_origin};
  }

  // Owning copy, for history pages and consumers.
  [[nodiscard]] FsEvent Materialize() const;

 private:
  friend class EventBatchView;
  EventView(const EventRecordV4* rec, std::string_view path,
            std::string_view name, std::string_view source) noexcept
      : rec_(rec), path_(path), name_(name), source_(source) {}

  const EventRecordV4* rec_;
  std::string_view path_, name_, source_;
};

// A validated, non-owning view over one v4 batch payload. Bind() performs
// the full structural validation (header invariants, monotone offset
// table with exact heap total, type bytes in range); after it succeeds
// every accessor is a bounds-safe O(1) read. The view aliases the payload
// bytes — the caller keeps them alive (and, for readers, unchanged).
class EventBatchView {
 public:
  EventBatchView() noexcept = default;  // empty batch

  // Validates `payload` as a v4 batch. Fails with InvalidArgument on
  // anything malformed; never reads out of bounds on hostile input.
  static Result<EventBatchView> Bind(std::string_view payload);
  // The view of bytes EncodeEventBatchV4 just produced: well-formed by
  // construction, so no validation pass.
  static EventBatchView OfEncoded(std::string_view payload) noexcept;

  [[nodiscard]] size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] EventView operator[](size_t i) const noexcept;

  // Hot-path single-field reads that skip string resolution entirely.
  [[nodiscard]] lustre::ChangeLogType type(size_t i) const noexcept {
    return static_cast<lustre::ChangeLogType>(record(i)->type);
  }
  [[nodiscard]] VirtualTime time(size_t i) const noexcept {
    return VirtualTime(record(i)->time_ns);
  }
  [[nodiscard]] uint64_t global_seq(size_t i) const noexcept {
    return record(i)->global_seq;
  }
  [[nodiscard]] uint64_t trace_id(size_t i) const noexcept {
    return record(i)->trace_id;
  }
  [[nodiscard]] uint64_t parent_span(size_t i) const noexcept {
    return record(i)->parent_span;
  }

  [[nodiscard]] std::vector<FsEvent> Materialize() const;

 private:
  EventBatchView(const char* base, uint32_t count) noexcept
      : base_(base), count_(count) {}

  [[nodiscard]] const EventRecordV4* record(size_t i) const noexcept {
    return reinterpret_cast<const EventRecordV4*>(base_ + kHeaderSize +
                                                  i * kEventStride);
  }
  [[nodiscard]] uint32_t offset(size_t j) const noexcept {
    return LoadU32Le(base_ + kHeaderSize + count_ * kEventStride + j * 4);
  }
  [[nodiscard]] const char* strings() const noexcept {
    return base_ + kHeaderSize + count_ * kEventStride + (3 * size_t{count_} + 1) * 4;
  }

  const char* base_ = nullptr;
  uint32_t count_ = 0;
};

// In-place patching of the sequencer-owned fields of a v4 payload the
// caller has already validated (and exclusively owns — typically the
// mutable buffer between decode-validate and publish-freeze). This is how
// ingest stamps global_seq / HLC / trace parents without a decode+encode
// round trip.
class MutableBatchV4 {
 public:
  explicit MutableBatchV4(std::string& payload) noexcept
      : base_(payload.data()) {}

  void SetGlobalSeq(size_t i, uint64_t seq) noexcept {
    StoreU64Le(field(i, offsetof(EventRecordV4, global_seq)), seq);
  }
  void SetHlc(size_t i, const HlcStamp& stamp) noexcept {
    StoreI64Le(field(i, offsetof(EventRecordV4, hlc_wall_ns)), stamp.wall_ns);
    StoreU32Le(field(i, offsetof(EventRecordV4, hlc_logical)), stamp.logical);
    StoreU32Le(field(i, offsetof(EventRecordV4, hlc_origin)), stamp.origin);
  }
  void SetParentSpan(size_t i, uint64_t span) noexcept {
    StoreU64Le(field(i, offsetof(EventRecordV4, parent_span)), span);
  }

 private:
  [[nodiscard]] char* field(size_t i, size_t member_off) noexcept {
    return base_ + kHeaderSize + i * kEventStride + member_off;
  }
  char* base_;
};

// True when `payload` carries the v4 version word (dispatch peek only —
// says nothing about structural validity).
[[nodiscard]] inline bool LooksLikeV4(std::string_view payload) noexcept {
  if (payload.size() < 2) return false;
  uint16_t version;
  std::memcpy(&version, payload.data(), sizeof(version));
  return version == kWireV4;
}

}  // namespace sdci::monitor::wire
