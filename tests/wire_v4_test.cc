// Flat wire format v4: in-place views, zero-copy aliasing, and the
// sequencer's fixed-offset patch path. Layout constants themselves are
// pinned at compile time by monitor/wire_v4_check.cc; these tests cover
// the runtime behavior built on top of them.
#include "monitor/wire_v4.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

#include "monitor/event.h"

namespace sdci::monitor::wire {
namespace {

FsEvent SampleEvent(uint64_t seq) {
  FsEvent event;
  event.mdt_index = 3;
  event.record_index = 41 + seq;
  event.global_seq = seq;
  event.type = lustre::ChangeLogType::kCreate;
  event.time = Micros(1000 + static_cast<int64_t>(seq));
  event.flags = 0x11;
  event.path = "/proj/run/frame.h5";
  event.name = "frame.h5";
  event.target_fid = lustre::Fid{0x2000004aull, 77, 0};
  event.parent_fid = lustre::Fid::Root();
  event.trace_id = 0xfeed0000 + seq;
  event.parent_span = 0xbeef0000 + seq;
  event.hlc = HlcStamp{static_cast<int64_t>(9000 + seq), 2, 1};
  return event;
}

TEST(WireV4, EncodedSizeMatchesEncoderOutput) {
  const std::vector<FsEvent> events{SampleEvent(1), SampleEvent(2)};
  const std::string payload = EncodeEventBatchV4(events.data(), events.size());
  EXPECT_EQ(payload.size(), EncodedSizeV4(events.data(), events.size()));
  EXPECT_EQ(payload.size(), kHeaderSize + 2 * kEventStride +
                                (3 * 2 + 1) * 4 +
                                2 * (events[0].path.size() + events[0].name.size()));
}

TEST(WireV4, ViewReadsEveryFieldInPlace) {
  const FsEvent original = SampleEvent(5);
  const std::string payload = EncodeEventBatchV4(&original, 1);
  auto batch = EventBatchView::Bind(payload);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 1u);
  const EventView view = (*batch)[0];
  EXPECT_EQ(view.mdt_index(), original.mdt_index);
  EXPECT_EQ(view.record_index(), original.record_index);
  EXPECT_EQ(view.global_seq(), original.global_seq);
  EXPECT_EQ(view.type(), original.type);
  EXPECT_EQ(view.time(), original.time);
  EXPECT_EQ(view.flags(), original.flags);
  EXPECT_EQ(view.path(), original.path);
  EXPECT_EQ(view.name(), original.name);
  EXPECT_EQ(view.source_path(), original.source_path);
  EXPECT_EQ(view.target_fid(), original.target_fid);
  EXPECT_EQ(view.parent_fid(), original.parent_fid);
  EXPECT_EQ(view.trace_id(), original.trace_id);
  EXPECT_EQ(view.parent_span(), original.parent_span);
  EXPECT_EQ(view.hlc(), original.hlc);
}

TEST(WireV4, ViewStringsAliasThePayload) {
  // The zero-copy contract: path/name/source_path are string_views INTO
  // the bound payload's string heap — no per-field allocation on read.
  const FsEvent original = SampleEvent(1);
  const std::string payload = EncodeEventBatchV4(&original, 1);
  auto batch = EventBatchView::Bind(payload);
  ASSERT_TRUE(batch.ok());
  const EventView view = (*batch)[0];
  const auto inside = [&](std::string_view s) {
    return s.data() >= payload.data() && s.data() + s.size() <= payload.data() + payload.size();
  };
  EXPECT_TRUE(inside(view.path()));
  EXPECT_TRUE(inside(view.name()));
  // Materializing at the store boundary copies out of the heap.
  const FsEvent owned = view.Materialize();
  EXPECT_EQ(owned.path, original.path);
  EXPECT_NE(static_cast<const void*>(owned.path.data()),
            static_cast<const void*>(view.path().data()));
}

TEST(WireV4, MutableBatchPatchesFixedOffsetFields) {
  // The sequencer's stamp-in-place path: global_seq, the HLC stamp and the
  // trace parent_span are patched at fixed offsets with no decode or
  // re-encode — every other field (and the string heap) must be untouched.
  std::vector<FsEvent> events{SampleEvent(1), SampleEvent(2)};
  std::string payload = EncodeEventBatchV4(events.data(), events.size());
  const std::string before = payload;
  {
    MutableBatchV4 mut(payload);
    mut.SetGlobalSeq(0, 1001);
    mut.SetGlobalSeq(1, 1002);
    mut.SetHlc(0, HlcStamp{777, 9, 4});
    mut.SetParentSpan(1, 0x1234);
  }
  auto batch = EventBatchView::Bind(payload);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ((*batch)[0].global_seq(), 1001u);
  EXPECT_EQ((*batch)[1].global_seq(), 1002u);
  EXPECT_EQ((*batch)[0].hlc(), (HlcStamp{777, 9, 4}));
  EXPECT_EQ((*batch)[1].parent_span(), 0x1234u);
  // Unpatched fields survive byte-for-byte.
  EXPECT_EQ((*batch)[0].path(), events[0].path);
  EXPECT_EQ((*batch)[1].hlc(), events[1].hlc);
  size_t diffs = 0;
  for (size_t i = 0; i < payload.size(); ++i) diffs += payload[i] != before[i];
  // seq u64 (<=8) + hlc 16 + span 8 changed bytes at most.
  EXPECT_LE(diffs, 32u);
  EXPECT_GT(diffs, 0u);
}

TEST(WireV4, ParentSpanOverrideLeavesSourceEventsUntouched) {
  // The collector publishes retried chunks under fresh span ids via the
  // encoder's override array instead of mutating the (retryable) events.
  const std::vector<FsEvent> events{SampleEvent(1), SampleEvent(2)};
  const uint64_t overrides[] = {0xaaaa, 0xbbbb};
  const std::string payload =
      EncodeEventBatchV4(events.data(), events.size(), overrides);
  auto batch = EventBatchView::Bind(payload);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)[0].parent_span(), 0xaaaau);
  EXPECT_EQ((*batch)[1].parent_span(), 0xbbbbu);
  EXPECT_EQ(events[0].parent_span, 0xbeef0001u);
}

TEST(WireV4, BindRejectsStructuralCorruption) {
  const FsEvent event = SampleEvent(1);
  const std::string good = EncodeEventBatchV4(&event, 1);
  EXPECT_TRUE(EventBatchView::Bind(good).ok());
  // Truncations at every boundary region.
  for (const size_t cut :
       {size_t{0}, size_t{1}, size_t{kHeaderSize - 1}, size_t{kHeaderSize},
        size_t{kHeaderSize + kEventStride - 1}, good.size() - 1}) {
    EXPECT_FALSE(EventBatchView::Bind(std::string_view(good).substr(0, cut)).ok())
        << "cut=" << cut;
  }
  // Trailing garbage (total_size mismatch).
  EXPECT_FALSE(EventBatchView::Bind(good + "x").ok());
  // Bad magic.
  std::string bad = good;
  bad[28] ^= 0x5a;
  EXPECT_FALSE(EventBatchView::Bind(bad).ok());
  // Count inflated past what the buffer holds.
  bad = good;
  bad[4] = 2;
  EXPECT_FALSE(EventBatchView::Bind(bad).ok());
}

TEST(EventCodec, CountGuardAcceptsDenseMinimalBatches) {
  // A batch of all-empty-string events is the densest legal encoding: the
  // payload is exactly header + count * (record + three offset entries) +
  // the closing offset, and it must decode at that exact size boundary.
  std::vector<FsEvent> batch(5);
  for (size_t i = 0; i < batch.size(); ++i) batch[i].global_seq = i + 1;
  const std::string payload = EncodeEventBatchV4(batch.data(), batch.size());
  EXPECT_EQ(payload.size(), kHeaderSize + batch.size() * (kEventStride + 3 * 4) + 4);
  auto decoded = DecodeEventBatch(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ((*decoded)[i].global_seq, i + 1);
    EXPECT_TRUE((*decoded)[i].path.empty());
  }
  // One byte short of the boundary is rejected.
  EXPECT_FALSE(
      DecodeEventBatch(std::string_view(payload).substr(0, payload.size() - 1)).ok());
}

TEST(EventCodec, CountGuardRejectsHostileCountWithoutOverReserve) {
  // A header count of 0xFFFFFFFF claims far more events than the payload
  // holds. Bind rejects it from the header arithmetic alone (u64, so the
  // section offsets cannot wrap) before any event is materialized; the
  // decoder never reserves for the claimed count.
  const FsEvent event = SampleEvent(1);
  std::string payload = EncodeEventBatchV4(&event, 1);
  const uint32_t hostile = 0xFFFFFFFFu;
  std::memcpy(payload.data() + offsetof(BatchHeaderV4, count), &hostile,
              sizeof(hostile));
  EXPECT_FALSE(EventBatchView::Bind(payload).ok());
  EXPECT_FALSE(DecodeEventBatch(payload).ok());
  EXPECT_FALSE(EventBatch::FromPayload(payload).ok());
}

TEST(WireV4, LooksLikeV4PeeksVersionOnly) {
  const FsEvent event = SampleEvent(1);
  EXPECT_TRUE(LooksLikeV4(EncodeEventBatchV4(&event, 1)));
  // A hand-built version-3 header (u16 version, u32 count): the peek reads
  // the version word and nothing else.
  const std::string v3_header("\x03\x00\x01\x00\x00\x00", 6);
  EXPECT_FALSE(LooksLikeV4(v3_header));
  EXPECT_FALSE(LooksLikeV4(""));
  EXPECT_FALSE(LooksLikeV4("\x04"));  // one byte is not a version field
}

}  // namespace
}  // namespace sdci::monitor::wire
