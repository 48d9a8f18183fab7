// FsEvent: a processed file-system event as consumed by Ripple agents.
//
// The Collector turns raw ChangeLog records — which identify files by FID —
// into events carrying user-friendly absolute paths (the paper's
// "Processing" step). Events travel Collector → Aggregator → consumers as
// msgq messages; two codecs are provided: the flat v4 binary layout (the
// one wire format) and JSON (the historic-events API).
//
// EventBatch is the unit the pipeline moves: an immutable set of events
// plus its wire encoding, both shared by reference. A batch is encoded at
// most once (lazily, on first payload() use) and decoded at most once per
// process; every hand-off after that — msgq fan-out, the aggregator's
// publish/store queues, consumer delivery — shares the same bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/hlc.h"
#include "common/json.h"
#include "common/status.h"
#include "lustre/changelog.h"
#include "lustre/fid.h"

namespace sdci::monitor {

namespace wire {
class EventBatchView;
}  // namespace wire

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

// An immutable batch of events with a shared, at-most-once-computed wire
// encoding. Copying an EventBatch is two reference-count bumps: the decoded
// events and the encoded payload are shared, never duplicated. This is what
// travels through the aggregator's internal queues and what producers /
// consumers hand to msgq (the message payload IS the batch's payload
// pointer, so PUB fan-out to N subscribers moves zero bytes).
class EventBatch {
 public:
  EventBatch() = default;  // empty batch

  // Encode-side construction (Collector, subscriber filtering). The wire
  // encoding is computed lazily on the first payload() call and cached.
  explicit EventBatch(std::vector<FsEvent> events);

  // Decode-side construction: validates the wire bytes and shares (not
  // copies) them as the batch's encoding. Rejects malformed payloads and
  // zero-event batches (a wire message carries >= 1 event). Validation is
  // an in-place scan and NO events are materialized: size() is answered
  // from the flat layout, and the owning FsEvents exist only once
  // a consumer first calls events(). The store keeps the bytes and
  // materializes only the pages its history API returns.
  static Result<EventBatch> FromPayload(std::shared_ptr<const std::string> payload);
  static Result<EventBatch> FromPayload(std::string payload);

  // Owning events; for a decode-side batch the first call materializes
  // them (thread-safe, at most once per batch).
  [[nodiscard]] const std::vector<FsEvent>& events() const noexcept;
  [[nodiscard]] size_t size() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  // The encoded wire bytes; encoded on first call, shared thereafter.
  // Thread-safe (batches are shared across pipeline threads).
  [[nodiscard]] std::shared_ptr<const std::string> payload() const;

  // The validated v4 wire bytes backing this batch, or null while it has
  // none (an encode-side batch before its first payload() call). Never
  // triggers an encode or a materialization:
  // zero-copy consumers (the agent's rule filter) Bind an EventBatchView
  // over these bytes and read paths as string_views in place.
  [[nodiscard]] std::shared_ptr<const std::string> FlatPayloadV4() const noexcept;

  // The view over payload(), bound once: by FromPayload's validation, or
  // at encode for an encode-side batch (encoding it first if needed).
  // Never re-validates and never materializes.
  [[nodiscard]] const wire::EventBatchView& view() const;

 private:
  friend class EventStore;  // rebuilds batches from the bytes it retains
  struct Rep;  // event.cc

  // A decode-side batch over `payload`, whose view the caller bound
  // before (no second validation pass).
  EventBatch(std::shared_ptr<const std::string> payload, const wire::EventBatchView& view);

  std::shared_ptr<const Rep> rep_;
};

}  // namespace sdci::monitor
