// Deterministic fuzz sweeps: hostile input must produce Status errors,
// never crashes, hangs or acceptance of garbage. Parameterized over seeds
// so each suite instance explores a different corner of input space.
#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "lustre/fid.h"
#include "monitor/event.h"
#include "lustre/changelog.h"
#include "ripple/rule.h"
#include "workload/fsdump.h"
#include "workload/trace.h"

namespace sdci {
namespace {

std::string RandomBytes(Rng& rng, size_t max_len) {
  std::string out;
  const size_t n = rng.NextBelow(max_len + 1);
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out += static_cast<char>(rng.NextBelow(256));
  }
  return out;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, EventDecoderNeverCrashesOnRandomBytes) {
  Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    (void)monitor::DecodeEventBatch(RandomBytes(rng, 200));
  }
  SUCCEED();
}

TEST_P(FuzzTest, EventBatchFromPayloadNeverCrashesOnRandomBytes) {
  Rng rng(GetParam() ^ 0xBA7C);
  for (int i = 0; i < 3000; ++i) {
    auto batch = monitor::EventBatch::FromPayload(RandomBytes(rng, 200));
    // Accepted garbage must still satisfy the wire contract.
    if (batch.ok()) {
      EXPECT_FALSE(batch->empty());
    }
  }
  SUCCEED();
}

TEST_P(FuzzTest, EventDecoderRejectsMutatedValidPayloads) {
  Rng rng(GetParam() ^ 0xF00D);
  monitor::FsEvent event;
  event.type = lustre::ChangeLogType::kCreate;
  event.path = "/a/b/c.dat";
  event.name = "c.dat";
  const std::string valid = monitor::EncodeEventBatch({event, event});
  int rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const size_t pos = rng.NextBelow(mutated.size());
    mutated[pos] = static_cast<char>(rng.NextBelow(256));
    auto decoded = monitor::DecodeEventBatch(mutated);
    if (!decoded.ok()) ++rejected;
    // Acceptance is allowed (many byte flips only change field values);
    // what matters is no crash and structural integrity when accepted.
    if (decoded.ok()) {
      EXPECT_LE(decoded->size(), 1000u);
    }
  }
  EXPECT_GT(rejected, 0);
}

monitor::FsEvent RandomEvent(Rng& rng) {
  monitor::FsEvent event;
  event.mdt_index = static_cast<int>(rng.NextBelow(8));
  event.record_index = rng.NextU64();
  event.global_seq = rng.NextU64();
  event.type = static_cast<lustre::ChangeLogType>(
      rng.NextBelow(static_cast<uint64_t>(lustre::ChangeLogType::kAtime) + 1));
  event.time = VirtualTime(static_cast<int64_t>(rng.NextU64() >> 2));
  event.flags = static_cast<uint32_t>(rng.NextU64());
  const auto random_path = [&](size_t max_len) {
    static constexpr char kPathish[] = "abcdef/._-";
    std::string out;
    for (size_t n = rng.NextBelow(max_len + 1); n > 0; --n) {
      out += kPathish[rng.NextBelow(sizeof(kPathish) - 1)];
    }
    return out;
  };
  event.path = random_path(60);
  event.name = random_path(20);
  event.source_path = random_path(60);
  event.target_fid = lustre::Fid{rng.NextU64(), static_cast<uint32_t>(rng.NextU64()),
                                 static_cast<uint32_t>(rng.NextU64())};
  event.parent_fid = lustre::Fid{rng.NextU64(), static_cast<uint32_t>(rng.NextU64()),
                                 static_cast<uint32_t>(rng.NextU64())};
  event.trace_id = rng.NextBelow(2) == 0 ? 0 : rng.NextU64();
  event.parent_span = event.trace_id == 0 ? 0 : rng.NextU64();
  event.hlc = HlcStamp{static_cast<int64_t>(rng.NextU64() >> 2),
                       static_cast<uint32_t>(rng.NextU64()),
                       static_cast<uint32_t>(rng.NextBelow(16))};
  return event;
}

void ExpectEveryFieldEqual(const monitor::FsEvent& got, const monitor::FsEvent& want) {
  EXPECT_EQ(got.mdt_index, want.mdt_index);
  EXPECT_EQ(got.record_index, want.record_index);
  EXPECT_EQ(got.global_seq, want.global_seq);
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.flags, want.flags);
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.source_path, want.source_path);
  EXPECT_EQ(got.target_fid, want.target_fid);
  EXPECT_EQ(got.parent_fid, want.parent_fid);
  EXPECT_EQ(got.trace_id, want.trace_id);
  EXPECT_EQ(got.parent_span, want.parent_span);
  EXPECT_EQ(got.hlc, want.hlc);
}

TEST_P(FuzzTest, V4RoundTripsEveryFieldExactly) {
  // Every well-formed batch round-trips field for field — provenance,
  // payload, trace context and HLC stamp — through both decode entry
  // points: the eager decoder and the bound EventBatch.
  Rng rng(GetParam() ^ 0x4F1E);
  for (int round = 0; round < 200; ++round) {
    std::vector<monitor::FsEvent> events;
    const size_t count = 1 + rng.NextBelow(16);
    for (size_t i = 0; i < count; ++i) events.push_back(RandomEvent(rng));
    const std::string payload = monitor::EncodeEventBatch(events);
    auto decoded = monitor::DecodeEventBatch(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->size(), events.size());
    auto batch = monitor::EventBatch::FromPayload(payload);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), events.size());
    const std::vector<monitor::FsEvent> materialized = batch->events();
    for (size_t i = 0; i < events.size(); ++i) {
      ExpectEveryFieldEqual((*decoded)[i], events[i]);
      ExpectEveryFieldEqual(materialized[i], events[i]);
    }
  }
}

TEST_P(FuzzTest, V4RejectsTruncationAtEveryCut) {
  // Every strict prefix of a valid payload must be rejected, at every cut
  // point from 0 to size-1: cuts inside the version word, the header, the
  // record block, the offset table and the string heap.
  Rng rng(GetParam() ^ 0xCC7);
  std::vector<monitor::FsEvent> events;
  for (size_t i = 0; i < 3; ++i) events.push_back(RandomEvent(rng));
  events[0].path = "/some/realistic/path.dat";  // non-empty heap
  const std::string payload = monitor::EncodeEventBatch(events);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    const std::string_view prefix = std::string_view(payload).substr(0, cut);
    EXPECT_FALSE(monitor::DecodeEventBatch(prefix).ok()) << "cut=" << cut;
    EXPECT_FALSE(monitor::EventBatch::FromPayload(std::string(prefix)).ok())
        << "cut=" << cut;
  }
}

TEST_P(FuzzTest, V4MutatedPayloadsNeverCrashAndStayStructurallySound) {
  // Bit flips across a valid v4 payload: decode must either reject or
  // return a batch whose views stay inside the buffer (the in-place
  // reader must never chase a corrupted offset out of bounds — this is
  // the sweep ASan/UBSan runs in check.sh).
  Rng rng(GetParam() ^ 0x4bad);
  std::vector<monitor::FsEvent> events;
  for (size_t i = 0; i < 4; ++i) events.push_back(RandomEvent(rng));
  const std::string valid = monitor::EncodeEventBatch(events);
  int rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const size_t flips = 1 + rng.NextBelow(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<char>(1 << rng.NextBelow(8));
    }
    auto decoded = monitor::DecodeEventBatch(mutated);
    if (!decoded.ok()) {
      ++rejected;
      continue;
    }
    for (const monitor::FsEvent& event : *decoded) {
      EXPECT_LE(event.path.size(), mutated.size());
      EXPECT_LE(event.source_path.size(), mutated.size());
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST_P(FuzzTest, JsonParserNeverCrashesOnRandomInput) {
  Rng rng(GetParam() ^ 0xBEEF);
  static constexpr char kJsonish[] = "{}[]\",:0123456789.eE+-truefalsnu \t\n\\x";
  for (int i = 0; i < 3000; ++i) {
    std::string text;
    const size_t n = rng.NextBelow(80);
    for (size_t j = 0; j < n; ++j) {
      text += kJsonish[rng.NextBelow(sizeof(kJsonish) - 1)];
    }
    auto parsed = json::Parse(text);
    if (parsed.ok()) {
      // Whatever parsed must re-serialize and re-parse to itself.
      auto again = json::Parse(parsed->Dump());
      ASSERT_TRUE(again.ok()) << text;
      EXPECT_EQ(*again, *parsed) << text;
    }
  }
}

TEST_P(FuzzTest, JsonRandomBytesNeverCrash) {
  Rng rng(GetParam() ^ 0xCAFE);
  for (int i = 0; i < 2000; ++i) {
    (void)json::Parse(RandomBytes(rng, 120));
  }
  SUCCEED();
}

TEST_P(FuzzTest, FidParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x51D);
  static constexpr char kFidish[] = "[]0x123abcdef: tp=";
  for (int i = 0; i < 5000; ++i) {
    std::string text;
    const size_t n = rng.NextBelow(40);
    for (size_t j = 0; j < n; ++j) {
      text += kFidish[rng.NextBelow(sizeof(kFidish) - 1)];
    }
    auto fid = lustre::Fid::Parse(text);
    if (fid.ok()) {
      // Round trip must hold for accepted inputs.
      auto again = lustre::Fid::Parse(fid->ToString());
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(*again, *fid);
    }
  }
}

TEST_P(FuzzTest, DumpParserNeverCrashes) {
  Rng rng(GetParam() ^ 0xD0D0);
  static constexpr char kDumpish[] = "/ab|0123456789-\nx";
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    const size_t n = rng.NextBelow(120);
    for (size_t j = 0; j < n; ++j) {
      text += kDumpish[rng.NextBelow(sizeof(kDumpish) - 1)];
    }
    (void)workload::ParseDump(text);
  }
  SUCCEED();
}

TEST_P(FuzzTest, TraceParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x7ACE);
  static constexpr char kTraceish[] = "createmkdirwriteunlinkrenamermdir/ 0123456789\n";
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    const size_t n = rng.NextBelow(100);
    for (size_t j = 0; j < n; ++j) {
      text += kTraceish[rng.NextBelow(sizeof(kTraceish) - 1)];
    }
    auto parsed = workload::ParseTrace(text);
    if (parsed.ok()) {
      // Accepted input round-trips.
      auto again = workload::ParseTrace(workload::SerializeTrace(*parsed));
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->size(), parsed->size());
    }
  }
}

TEST_P(FuzzTest, RuleSetParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x5E7);
  static constexpr char kRuleish[] =
      "{}[]\",:idtriggeractionagentmailpathevents/*.0";
  for (int i = 0; i < 1500; ++i) {
    std::string text;
    const size_t n = rng.NextBelow(120);
    for (size_t j = 0; j < n; ++j) {
      text += kRuleish[rng.NextBelow(sizeof(kRuleish) - 1)];
    }
    (void)ripple::ParseRuleSet(text);
  }
  SUCCEED();
}

TEST_P(FuzzTest, ChangeLogDumpParserNeverCrashes) {
  Rng rng(GetParam() ^ 0xC109);
  static constexpr char kDumpish[] = "0123456789 CREATUNLNK:.x[]tps=name_\n";
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    const size_t n = rng.NextBelow(100);
    for (size_t j = 0; j < n; ++j) {
      text += kDumpish[rng.NextBelow(sizeof(kDumpish) - 1)];
    }
    (void)lustre::ChangeLogRecord::ParseDumpLine(text);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace sdci
