#include "monitor/event.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>

#include "monitor/wire_v4.h"

namespace sdci::monitor {
namespace {

FsEvent SampleEvent(uint64_t seq = 7) {
  FsEvent event;
  event.mdt_index = 2;
  event.record_index = 13106;
  event.global_seq = seq;
  event.type = lustre::ChangeLogType::kCreate;
  event.time = Micros(123456789);
  event.flags = 0x1;
  event.path = "/proj/data/scan.h5";
  event.name = "scan.h5";
  event.target_fid = lustre::Fid{0x200000402ull, 0xa046, 0};
  event.parent_fid = lustre::Fid::Root();
  return event;
}

void ExpectEventsEqual(const FsEvent& a, const FsEvent& b) {
  EXPECT_EQ(a.mdt_index, b.mdt_index);
  EXPECT_EQ(a.record_index, b.record_index);
  EXPECT_EQ(a.global_seq, b.global_seq);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.source_path, b.source_path);
  EXPECT_EQ(a.target_fid, b.target_fid);
  EXPECT_EQ(a.parent_fid, b.parent_fid);
}

TEST(EventCodec, BinaryRoundTrip) {
  std::vector<FsEvent> batch{SampleEvent(1), SampleEvent(2), SampleEvent(3)};
  batch[1].type = lustre::ChangeLogType::kRename;
  batch[1].source_path = "/proj/old/scan.h5";
  const std::string payload = EncodeEventBatch(batch);
  auto decoded = DecodeEventBatch(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 3u);
  for (size_t i = 0; i < 3; ++i) ExpectEventsEqual((*decoded)[i], batch[i]);
}

TEST(EventCodec, EmptyBatchRoundTrips) {
  auto decoded = DecodeEventBatch(EncodeEventBatch({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(EventCodec, RejectsTruncatedPayload) {
  const std::string payload = EncodeEventBatch({SampleEvent()});
  for (const size_t cut : {size_t{0}, size_t{1}, size_t{5}, payload.size() / 2, payload.size() - 1}) {
    EXPECT_FALSE(DecodeEventBatch(std::string_view(payload).substr(0, cut)).ok())
        << "cut=" << cut;
  }
}

TEST(EventCodec, RejectsTrailingGarbage) {
  EXPECT_FALSE(DecodeEventBatch(EncodeEventBatch({SampleEvent()}) + "x").ok());
}

TEST(EventCodec, RejectsBadVersionAndType) {
  std::string payload = EncodeEventBatch({SampleEvent()});
  payload[0] = 0x7F;  // clobber version
  EXPECT_FALSE(DecodeEventBatch(payload).ok());

  // v4 is the only codec: the retired field-wise versions 1-3 are unknown
  // versions like any other, however well-formed the rest of the payload.
  for (const uint16_t version : {uint16_t{1}, uint16_t{2}, uint16_t{3}}) {
    payload = EncodeEventBatch({SampleEvent()});
    std::memcpy(payload.data(), &version, sizeof(version));
    auto decoded = DecodeEventBatch(payload);
    ASSERT_FALSE(decoded.ok()) << "v" << version;
    EXPECT_NE(decoded.status().ToString().find("unknown codec version"),
              std::string::npos)
        << decoded.status().ToString();
    EXPECT_FALSE(EventBatch::FromPayload(payload).ok()) << "v" << version;
  }

  payload = EncodeEventBatch({SampleEvent()});
  // v4 type field: u32 at header(32) + record offset 96 = byte 128.
  payload[wire::kHeaderSize + 96] = 99;
  EXPECT_FALSE(DecodeEventBatch(payload).ok());
}

TEST(EventJson, RoundTrip) {
  FsEvent event = SampleEvent();
  event.type = lustre::ChangeLogType::kRename;
  event.source_path = "/old/path";
  auto decoded = FsEvent::FromJson(event.ToJson());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectEventsEqual(*decoded, event);
}

TEST(EventJson, RoundTripThroughText) {
  const FsEvent event = SampleEvent();
  auto parsed = json::Parse(event.ToJson().Dump());
  ASSERT_TRUE(parsed.ok());
  auto decoded = FsEvent::FromJson(*parsed);
  ASSERT_TRUE(decoded.ok());
  ExpectEventsEqual(*decoded, event);
}

TEST(EventJson, RejectsNonObject) {
  EXPECT_FALSE(FsEvent::FromJson(json::Value(3)).ok());
  EXPECT_FALSE(FsEvent::FromJson(json::Value("x")).ok());
}

TEST(EventTopic, EncodesType) {
  FsEvent event = SampleEvent();
  EXPECT_EQ(EventTopic(event), "fsevent.CREAT");
  event.type = lustre::ChangeLogType::kUnlink;
  EXPECT_EQ(EventTopic(event), "fsevent.UNLNK");
}

TEST(EventBatch, PayloadIsEncodedOnceAndShared) {
  const EventBatch batch({SampleEvent(1), SampleEvent(2)});
  const auto first = batch.payload();
  ASSERT_NE(first, nullptr);
  // Stable: every payload() call returns the same allocation.
  EXPECT_EQ(batch.payload().get(), first.get());
  auto decoded = DecodeEventBatch(*first);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 2u);
}

TEST(EventBatch, FromPayloadSharesWireBytes) {
  const EventBatch source({SampleEvent(1), SampleEvent(2), SampleEvent(3)});
  const auto wire = source.payload();
  auto received = EventBatch::FromPayload(wire);
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  // The received batch keeps the exact wire allocation: no re-encode.
  EXPECT_EQ(received->payload().get(), wire.get());
  ASSERT_EQ(received->size(), 3u);
  const std::vector<FsEvent> got = received->events();
  const std::vector<FsEvent> sent = source.events();
  for (size_t i = 0; i < 3; ++i) ExpectEventsEqual(got[i], sent[i]);
}

TEST(EventBatch, FromPayloadRejectsZeroEventBatch) {
  // An empty batch encodes fine, but the wire contract is >= 1 event.
  EXPECT_FALSE(EventBatch::FromPayload(EncodeEventBatch({})).ok());
  EXPECT_FALSE(EventBatch::FromPayload(std::shared_ptr<const std::string>()).ok());
}

TEST(EventBatch, FromPayloadRejectsCorruptOffsetTable) {
  // v4 strings live in a shared heap indexed by a cumulative offset table
  // right after the records; o[0] must be 0 and the offsets monotone.
  // For a single event the table starts at header(32) + stride(104) = 136.
  const size_t table = wire::kHeaderSize + wire::kEventStride;
  {
    std::string payload = EncodeEventBatch({SampleEvent()});
    ASSERT_GT(payload.size(), table + 4);
    payload[table] = '\x7f';  // o[0] != 0
    EXPECT_FALSE(EventBatch::FromPayload(std::move(payload)).ok());
  }
  {
    std::string payload = EncodeEventBatch({SampleEvent()});
    // Non-monotone: o[1] (end of the path string) points past the heap.
    payload[table + 4] = '\xff';
    payload[table + 5] = '\xff';
    payload[table + 6] = '\xff';
    payload[table + 7] = '\x7f';
    EXPECT_FALSE(EventBatch::FromPayload(std::move(payload)).ok());
  }
}

TEST(EventBatch, ReceivedBatchAnswersSizeAndTypesFromItsView) {
  // A received v4 batch is validated in place; size() and the type column
  // (what a subscriber's type filter reads) come straight from the bound
  // view, which agrees with a fresh Bind of the same bytes. events() is
  // the edge call that materializes owning copies.
  std::vector<FsEvent> sent{SampleEvent(1), SampleEvent(2)};
  sent[1].type = lustre::ChangeLogType::kUnlink;
  const EventBatch source(sent);
  auto received = EventBatch::FromPayload(source.payload());
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received->size(), 2u);
  EXPECT_EQ(received->view().type(0), lustre::ChangeLogType::kCreate);
  EXPECT_EQ(received->view().type(1), lustre::ChangeLogType::kUnlink);
  auto view = wire::EventBatchView::Bind(*received->FlatPayloadV4());
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->size(), 2u);
  EXPECT_EQ(view->type(0), lustre::ChangeLogType::kCreate);
  EXPECT_EQ(view->type(1), lustre::ChangeLogType::kUnlink);
  const std::vector<FsEvent> got = received->events();
  ASSERT_EQ(got.size(), 2u);
  ExpectEventsEqual(got[0], sent[0]);
  ExpectEventsEqual(got[1], sent[1]);
}

TEST(EventBatch, CopyReadsCorrectlyAfterTheOriginalIsDestroyed) {
  // A copy is a reference on the same bytes plus its own view over them:
  // it stays readable, field by field, once every other owner is gone.
  const std::vector<FsEvent> sent{SampleEvent(1), SampleEvent(2), SampleEvent(3)};
  auto original = std::make_unique<EventBatch>(
      EventBatch::FromPayload(EncodeEventBatch(sent)).value());
  const std::string* bytes = original->payload().get();
  const EventBatch copy = *original;
  original.reset();
  EXPECT_EQ(copy.payload().get(), bytes) << "a copy shares the bytes";
  ASSERT_EQ(copy.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(copy.view()[i].path(), sent[i].path);
    EXPECT_EQ(copy.view().global_seq(i), sent[i].global_seq);
    ExpectEventsEqual(copy.view()[i].Materialize(), sent[i]);
  }
  // Moving hands the bytes on and leaves the source empty.
  EventBatch source = copy;
  const EventBatch moved = std::move(source);
  EXPECT_EQ(moved.payload().get(), bytes);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.payload(), nullptr);
}

TEST(EventBatch, RandomizedRoundTripProperty) {
  std::mt19937_64 rng(20260806);
  const std::string alphabet = "abcdefghij/._-";
  for (int round = 0; round < 50; ++round) {
    std::vector<FsEvent> events;
    const size_t count = 1 + rng() % 32;
    for (size_t i = 0; i < count; ++i) {
      FsEvent event;
      event.mdt_index = static_cast<int>(rng() % 16);
      event.record_index = rng();
      event.global_seq = rng();
      event.type = static_cast<lustre::ChangeLogType>(
          rng() % (static_cast<uint64_t>(lustre::ChangeLogType::kAtime) + 1));
      event.time = VirtualTime(static_cast<int64_t>(rng() % (1ull << 62)));
      event.flags = static_cast<uint32_t>(rng());
      const auto random_string = [&](size_t max_len) {
        std::string out;
        for (size_t n = rng() % (max_len + 1); n > 0; --n) {
          out.push_back(alphabet[rng() % alphabet.size()]);
        }
        return out;
      };
      event.path = random_string(80);
      event.name = random_string(24);
      event.source_path = random_string(80);
      event.target_fid = lustre::Fid{rng(), static_cast<uint32_t>(rng()),
                                     static_cast<uint32_t>(rng())};
      event.parent_fid = lustre::Fid{rng(), static_cast<uint32_t>(rng()),
                                     static_cast<uint32_t>(rng())};
      events.push_back(std::move(event));
    }
    const EventBatch batch(events);
    auto received = EventBatch::FromPayload(batch.payload());
    ASSERT_TRUE(received.ok()) << received.status().ToString();
    ASSERT_EQ(received->size(), events.size());
    const std::vector<FsEvent> got = received->events();
    for (size_t i = 0; i < events.size(); ++i) ExpectEventsEqual(got[i], events[i]);
  }
}

TEST(EventToString, HumanReadable) {
  FsEvent event = SampleEvent();
  EXPECT_EQ(event.ToString(), "CREAT /proj/data/scan.h5");
  event.path.clear();
  EXPECT_EQ(event.ToString(), "CREAT <[0x200000402:0xa046:0x0]>");
  event = SampleEvent();
  event.type = lustre::ChangeLogType::kRename;
  event.source_path = "/a/b";
  EXPECT_EQ(event.ToString(), "RENME /proj/data/scan.h5 from /a/b");
}

}  // namespace
}  // namespace sdci::monitor
