// Microbenchmarks (google-benchmark) for the hot primitives: FID codec,
// ChangeLog append/read, glob matching, JSON, event wire codec, LRU cache
// and pub-sub message fan-out. These bound the simulator's own overhead —
// the costs that must stay far below the modeled latencies for the
// virtual-time results to be trustworthy.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/glob.h"
#include "common/json.h"
#include "common/lru.h"
#include "common/queue.h"
#include "common/rng.h"
#include "common/spsc.h"
#include "lustre/changelog.h"
#include "lustre/fid.h"
#include "lustre/filesystem.h"
#include "monitor/event.h"
#include "msgq/context.h"
#include "ripple/rule_index.h"

namespace sdci {
namespace {

void BM_FidRender(benchmark::State& state) {
  const lustre::Fid fid{0x200000402ull, 0xa046, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fid.ToString());
  }
}
BENCHMARK(BM_FidRender);

void BM_FidParse(benchmark::State& state) {
  const std::string text = "[0x200000402:0xa046:0x0]";
  for (auto _ : state) {
    benchmark::DoNotOptimize(lustre::Fid::Parse(text));
  }
}
BENCHMARK(BM_FidParse);

void BM_ChangeLogAppend(benchmark::State& state) {
  lustre::ChangeLog log(0);
  const auto consumer = log.RegisterConsumer();
  lustre::ChangeLogRecord record;
  record.type = lustre::ChangeLogType::kCreate;
  record.target = lustre::Fid{0x200000400ull, 7, 0};
  record.parent = lustre::Fid::Root();
  record.name = "data1.txt";
  uint64_t appended = 0;
  for (auto _ : state) {
    const uint64_t index = log.Append(record);
    benchmark::DoNotOptimize(index);
    if (++appended % 4096 == 0) (void)log.Clear(consumer, index);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ChangeLogAppend);

void BM_ChangeLogReadBatch(benchmark::State& state) {
  lustre::ChangeLog log(0);
  lustre::ChangeLogRecord record;
  record.type = lustre::ChangeLogType::kCreate;
  record.name = "data1.txt";
  for (int i = 0; i < 4096; ++i) log.Append(record);
  std::vector<lustre::ChangeLogRecord> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(log.ReadFrom(1, 256, out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ChangeLogReadBatch);

void BM_GlobMatch(benchmark::State& state) {
  const Glob glob("/projects/**/raw/*.h5");
  const std::string path = "/projects/apsu/2017/run12/raw/scan_00042.h5";
  for (auto _ : state) {
    benchmark::DoNotOptimize(glob.Matches(path));
  }
}
BENCHMARK(BM_GlobMatch);

// The price of ONE glob match (above) vs ONE indexed probe against 100k
// installed rules (below): the whole point of the compiled RuleIndex is
// that the probe stays within a small constant factor of a single match
// instead of paying 100k of them.
void BM_RuleIndexProbe100k(benchmark::State& state) {
  Rng rng(42);
  ripple::RuleIndex::Builder builder;
  for (uint64_t i = 0; i < 100000; ++i) {
    ripple::Rule rule;
    rule.id = "r" + std::to_string(10000000 + i);
    const std::string dir = "/tenants/t" + std::to_string(100000 + i / 4);
    const char* ext = (i % 2) != 0 ? "h5" : "tif";
    rule.trigger.path_glob =
        Glob(dir + "/data/**/*." + ext);
    rule.action.agent = "exec";
    builder.Add(std::move(rule));
  }
  const auto index = builder.Build();
  ripple::RuleIndex::Scratch scratch;
  const std::string path = "/tenants/t112345/data/run12/scan_00042.h5";
  const std::string name = "scan_00042.h5";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->MatchesAny(ripple::kCreated, path, name, scratch));
  }
}
BENCHMARK(BM_RuleIndexProbe100k);

void BM_JsonParseRule(benchmark::State& state) {
  const std::string text = R"({"id":"r1","trigger":{"events":["created"],
    "path":"/lab/**","suffix":".tif"},"action":{"type":"transfer",
    "agent":"laptop","params":{"destination_endpoint":"home",
    "destination_dir":"/backup","bandwidth_mbps":800}}})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::Parse(text));
  }
}
BENCHMARK(BM_JsonParseRule);

monitor::FsEvent SampleEvent() {
  monitor::FsEvent event;
  event.mdt_index = 0;
  event.record_index = 13106;
  event.type = lustre::ChangeLogType::kCreate;
  event.path = "/projects/apsu/2017/run12/raw/scan_00042.h5";
  event.name = "scan_00042.h5";
  event.target_fid = lustre::Fid{0x200000402ull, 0xa046, 0};
  event.parent_fid = lustre::Fid::Root();
  return event;
}

void BM_EventEncodeBatch16(benchmark::State& state) {
  const std::vector<monitor::FsEvent> batch(16, SampleEvent());
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor::EncodeEventBatch(batch));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_EventEncodeBatch16);

void BM_EventDecodeBatch16(benchmark::State& state) {
  const std::vector<monitor::FsEvent> batch(16, SampleEvent());
  const std::string payload = monitor::EncodeEventBatch(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor::DecodeEventBatch(payload));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_EventDecodeBatch16);

// --- End-to-end batch pipeline: encode → fan-out to K subscribers →
// decode, per batch of 16 events. The shared payload is encoded once and
// validated once per subscriber, however large K grows. ---

void BM_PipelineSharedBatch(benchmark::State& state) {
  const int64_t subscribers = state.range(0);
  msgq::Context context;
  auto pub = context.CreatePub("inproc://pipe");
  std::vector<std::shared_ptr<msgq::SubSocket>> subs;
  for (int64_t i = 0; i < subscribers; ++i) {
    auto sub = context.CreateSub("inproc://pipe", 1u << 20);
    sub->Subscribe("");
    subs.push_back(std::move(sub));
  }
  const std::vector<monitor::FsEvent> events(16, SampleEvent());
  for (auto _ : state) {
    // Producer: encode once, publish shared bytes.
    const monitor::EventBatch batch(events);
    pub->Publish(msgq::Message("fsevent.CREAT", batch.payload()));
    // Consumers: each decodes its shared copy once.
    for (auto& sub : subs) {
      auto message = sub->TryReceive();
      auto received = monitor::EventBatch::FromPayload(message->payload);
      benchmark::DoNotOptimize(received->size());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_PipelineSharedBatch)->Arg(1)->Arg(4)->Arg(16);

// --- Contended queue hand-off: the mutex+CV BoundedQueue (post wake-up
// audit: single notify_one with baton cascade) vs the lock-free SpscRing
// used on the collector-reader and ingest-receiver hops. Ping measures
// the blocking round-trip (wake-up latency dominates); Stream measures
// sustained producer→consumer throughput with the consumer live (the
// contended case the audit targets). ---

void BM_BoundedQueuePing(benchmark::State& state) {
  BoundedQueue<uint64_t> req(64), rsp(64);
  std::thread echo([&] {
    for (;;) {
      auto item = req.Pop();
      if (!item.ok()) return;
      (void)rsp.Push(item.value());
    }
  });
  uint64_t i = 0;
  for (auto _ : state) {
    (void)req.Push(i++);
    benchmark::DoNotOptimize(rsp.Pop());
  }
  req.Close();
  echo.join();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BoundedQueuePing);

void BM_SpscRingPing(benchmark::State& state) {
  SpscRing<uint64_t> req(64), rsp(64);
  std::thread echo([&] {
    for (;;) {
      auto item = req.Pop();
      if (!item.ok()) return;
      (void)rsp.Push(item.value());
    }
  });
  uint64_t i = 0;
  for (auto _ : state) {
    (void)req.Push(i++);
    benchmark::DoNotOptimize(rsp.Pop());
  }
  req.Close();
  echo.join();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscRingPing);

void BM_BoundedQueueStream(benchmark::State& state) {
  BoundedQueue<uint64_t> queue(1024);
  std::atomic<uint64_t> consumed{0};
  std::thread consumer([&] {
    while (queue.Pop().ok()) consumed.fetch_add(1, std::memory_order_relaxed);
  });
  uint64_t i = 0;
  for (auto _ : state) {
    (void)queue.Push(i++);
  }
  queue.Close();
  consumer.join();
  benchmark::DoNotOptimize(consumed.load());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BoundedQueueStream);

void BM_SpscRingStream(benchmark::State& state) {
  SpscRing<uint64_t> ring(1024);
  std::atomic<uint64_t> consumed{0};
  std::thread consumer([&] {
    while (ring.Pop().ok()) consumed.fetch_add(1, std::memory_order_relaxed);
  });
  uint64_t i = 0;
  for (auto _ : state) {
    (void)ring.Push(i++);
  }
  ring.Close();
  consumer.join();
  benchmark::DoNotOptimize(consumed.load());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscRingStream);

void BM_LruCacheHit(benchmark::State& state) {
  LruCache<lustre::Fid, std::string, lustre::FidHash> cache(1024);
  Rng rng(1);
  std::vector<lustre::Fid> fids;
  for (uint32_t i = 0; i < 512; ++i) {
    const lustre::Fid fid{0x200000400ull, i + 2, 0};
    cache.Put(fid, "/some/dir/path");
    fids.push_back(fid);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(fids[i++ % fids.size()]));
  }
}
BENCHMARK(BM_LruCacheHit);

void BM_PubSubFanout(benchmark::State& state) {
  msgq::Context context;
  auto pub = context.CreatePub("inproc://bench");
  std::vector<std::shared_ptr<msgq::SubSocket>> subs;
  for (int64_t i = 0; i < state.range(0); ++i) {
    auto sub = context.CreateSub("inproc://bench", 1u << 20);
    sub->Subscribe("");
    subs.push_back(std::move(sub));
  }
  msgq::Message message("topic", std::string(128, 'x'));
  size_t published = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pub->Publish(message));
    if (++published % 1024 == 0) {
      for (auto& sub : subs) {
        while (sub->TryReceive().has_value()) {
        }
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PubSubFanout)->Arg(1)->Arg(4)->Arg(16);

// --- Raw (uncosted) file system primitives: the simulator's own speed,
// which bounds how fast virtual experiments can run. ---

void BM_FsCreate(benchmark::State& state) {
  TimeAuthority authority(1.0);
  lustre::FileSystemConfig config;
  lustre::FileSystem fs(config, authority);
  (void)fs.MkdirAll("/bench");
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.Create("/bench/f" + std::to_string(i++)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FsCreate);

void BM_FsLookupDeep(benchmark::State& state) {
  TimeAuthority authority(1.0);
  lustre::FileSystemConfig config;
  lustre::FileSystem fs(config, authority);
  (void)fs.MkdirAll("/a/b/c/d/e");
  (void)fs.Create("/a/b/c/d/e/target.dat");
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.Lookup("/a/b/c/d/e/target.dat"));
  }
}
BENCHMARK(BM_FsLookupDeep);

void BM_FsFidToPath(benchmark::State& state) {
  TimeAuthority authority(1.0);
  lustre::FileSystemConfig config;
  lustre::FileSystem fs(config, authority);
  (void)fs.MkdirAll("/a/b/c/d/e");
  (void)fs.Create("/a/b/c/d/e/target.dat");
  const lustre::Fid fid = *fs.Lookup("/a/b/c/d/e/target.dat");
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.FidToPath(fid));
  }
}
BENCHMARK(BM_FsFidToPath);

void BM_FsRename(benchmark::State& state) {
  TimeAuthority authority(1.0);
  lustre::FileSystemConfig config;
  lustre::FileSystem fs(config, authority);
  (void)fs.Create("/ping");
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(flip ? fs.Rename("/pong", "/ping")
                                  : fs.Rename("/ping", "/pong"));
    flip = !flip;
  }
}
BENCHMARK(BM_FsRename);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(3);
  const ZipfGenerator zipf(1u << 20, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace
}  // namespace sdci

BENCHMARK_MAIN();
