// FsEvent: a processed file-system event as consumed by Ripple agents.
//
// The Collector turns raw ChangeLog records — which identify files by FID —
// into events carrying user-friendly absolute paths (the paper's
// "Processing" step). Events travel Collector → Aggregator → consumers as
// msgq messages; two codecs are provided: the flat v4 binary layout (the
// one wire format) and JSON (the historic-events API).
//
// EventBatch is the unit the pipeline moves, and it has one
// representation: refcounted v4 bytes plus the EventBatchView bound over
// them. A producer's FsEvents are encoded once, when the batch is built; a
// received payload is validated once and shared. Every hand-off after that
// — msgq fan-out, the aggregator's publish/store queues, subscriber
// delivery, the agent's rule filter — reads those same bytes in place.
// Owning FsEvents exist only at the edges that ask for them (events(): the
// history API's JSON, tests).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/hlc.h"
#include "common/json.h"
#include "common/status.h"
#include "lustre/changelog.h"
#include "lustre/fid.h"
#include "monitor/wire_v4.h"

namespace sdci::monitor {

struct FsEvent {
  // Provenance.
  int mdt_index = 0;            // MDT whose ChangeLog produced the event
  uint64_t record_index = 0;    // per-MDT changelog index
  uint64_t global_seq = 0;      // assigned by the Aggregator

  // Payload.
  lustre::ChangeLogType type = lustre::ChangeLogType::kMark;
  VirtualTime time{};
  uint32_t flags = 0;
  std::string path;         // absolute path of the target ("" if unresolved)
  std::string name;         // entry name within the parent
  std::string source_path;  // rename source ("" otherwise)
  lustre::Fid target_fid;
  lustre::Fid parent_fid;

  // Trace context (common/tracing.h). trace_id == 0 means unsampled and
  // costs downstream stages a single compare. The collector decides
  // sampling when the event is born; each traced stage rewrites
  // parent_span to its own span id before handing the event on, so the
  // wire always carries the producer-side span to parent against.
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;

  // Fleet-wide ordering stamp (common/hlc.h), assigned by the sequencer of
  // the aggregator shard that sequenced the event (origin == shard index).
  // Within one shard HLC order equals global_seq order; across shards it
  // is the total order the federation layer merges by. Zero on events that
  // never passed through an aggregator.
  HlcStamp hlc;

  [[nodiscard]] size_t ApproxBytes() const noexcept {
    return sizeof(FsEvent) + path.capacity() + name.capacity() + source_path.capacity();
  }

  // One-line human form, e.g. "CREAT /proj/data/run1.h5".
  [[nodiscard]] std::string ToString() const;

  [[nodiscard]] json::Value ToJson() const;
  static Result<FsEvent> FromJson(const json::Value& value);
};

// Binary wire codec. A message payload holds one batch (>= 1 event) in
// the flat, in-place-readable v4 layout (monitor/wire_v4.h). It is the
// only codec: a payload whose leading version word is anything else is
// rejected as an unknown codec version, like any other malformed payload.

std::string EncodeEventBatch(const std::vector<FsEvent>& events);
Result<std::vector<FsEvent>> DecodeEventBatch(std::string_view payload);

// Per-type topic name of one event, e.g. "fsevent.CREAT". EventSubscriber
// takes a prefix of these names ("fsevent." for everything, "fsevent.CREAT"
// for creates) and filters on each event's type.
std::string EventTopic(const FsEvent& event);
std::string EventTopic(lustre::ChangeLogType type);

// The one msgq topic every message on the aggregator's public stream
// carries. A message is one sequenced batch of mixed types, so a raw SUB
// must subscribe to this topic (or "") to see the stream; a narrower
// prefix receives nothing rather than a silently partial stream.
inline constexpr std::string_view kEventStreamTopic = "fsevent.";

// An immutable batch of events: a reference on its v4 wire bytes and the
// view bound over them. Copying an EventBatch is one reference-count bump;
// the bytes are never duplicated. This is what travels through the
// aggregator's internal queues and what producers / consumers hand to msgq
// (the message payload IS the batch's payload pointer, so PUB fan-out to
// N subscribers moves zero bytes). A moved-from batch is empty.
class EventBatch {
 public:
  EventBatch() = default;  // empty batch; payload() is null

  // Encodes `events` now (Collector, subscriber filtering, backfill).
  explicit EventBatch(const std::vector<FsEvent>& events);

  // Validates the wire bytes and shares (not copies) them. Rejects
  // malformed payloads and zero-event batches (a wire message carries >= 1
  // event). Validation is an in-place scan; no event is materialized.
  static Result<EventBatch> FromPayload(std::shared_ptr<const std::string> payload);
  static Result<EventBatch> FromPayload(std::string payload);

  EventBatch(const EventBatch&) = default;
  EventBatch& operator=(const EventBatch&) = default;
  EventBatch(EventBatch&& other) noexcept;
  EventBatch& operator=(EventBatch&& other) noexcept;

  [[nodiscard]] size_t size() const noexcept { return view_.size(); }
  [[nodiscard]] bool empty() const noexcept { return view_.empty(); }

  // The v4 wire bytes.
  [[nodiscard]] const std::shared_ptr<const std::string>& payload() const noexcept {
    return payload_;
  }
  // Alias of payload().
  [[nodiscard]] const std::shared_ptr<const std::string>& FlatPayloadV4() const noexcept {
    return payload_;
  }
  // The view over payload(): every field is an O(1) read in place.
  [[nodiscard]] const wire::EventBatchView& view() const noexcept { return view_; }

  // Materializes owning copies of the events: an edge call that decodes
  // the whole batch afresh on every call. Pipeline stages read view().
  [[nodiscard]] std::vector<FsEvent> events() const { return view_.Materialize(); }

 private:
  EventBatch(std::shared_ptr<const std::string> payload, wire::EventBatchView view) noexcept
      : payload_(std::move(payload)), view_(view) {}

  std::shared_ptr<const std::string> payload_;
  wire::EventBatchView view_;  // bound over *payload_
};

}  // namespace sdci::monitor
