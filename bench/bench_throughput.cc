// Reproduces the Section 5.2 "Event Throughput" experiment.
//
// The event generator loads the file system with the combined workload
// while the monitor extracts records from the ChangeLog, resolves paths
// (per-event fid2path — the deployed configuration), and reports events
// to a listening consumer. Reported numbers:
//   - generation rate (events/s journaled),
//   - monitor throughput during the loaded window (events/s delivered),
//   - the per-stage pipeline breakdown showing the processing stage is
//     the bottleneck,
//   - the no-loss check: after the backlog drains, every extracted event
//     was delivered.
//
// Paper: AWS 1053 of 1366 generated (77.1%); Iota 8162 of 9593 (-14.91%).
#include <chrono>
#include <cstdio>
#include <optional>

#include "bench_util.h"
#include "common/serde.h"
#include "monitor/consumer.h"
#include "monitor/event.h"
#include "monitor/monitor.h"
#include "monitor/wire_v4.h"
#include "workload/generator.h"

namespace sdci::bench {
namespace {

namespace wire = monitor::wire;

struct ThroughputResult {
  double generated_rate = 0;
  double monitor_rate = 0;
  double fraction = 0;
  uint64_t generated = 0;
  uint64_t delivered_during_window = 0;
  uint64_t extracted_total = 0;
  uint64_t delivered_total = 0;
  double fid2path_share = 0;  // fraction of collector busy time
  std::string detect_p50;
  std::string detect_p99;
  std::string deliver_p99;
};

ThroughputResult RunOne(const lustre::TestbedProfile& profile,
                        VirtualDuration window) {
  Env env(profile);
  msgq::Context context;

  monitor::MonitorConfig config;
  config.collector.resolve_mode = monitor::ResolveMode::kPerEvent;
  config.collector.poll_interval = Millis(20);
  monitor::Monitor mon(env.fs, profile, env.authority, context, config);
  monitor::EventSubscriber consumer(context, config.aggregator.publish_endpoint,
                                    "fsevent.", 1u << 20, msgq::HwmPolicy::kBlock);
  mon.Start();

  // Let the monitor absorb the staging burst before the window opens, and
  // take baseline counters so only window events are measured.
  uint64_t published_baseline = 0;
  uint64_t extracted_baseline = 0;
  workload::GeneratorConfig gen_config;
  gen_config.before_window = [&] {
    for (int i = 0; i < 400; ++i) {
      env.authority.SleepFor(Millis(50));
      const auto stats = mon.Stats();
      uint64_t appended = 0;
      for (size_t m = 0; m < env.fs.MdsCount(); ++m) {
        appended += env.fs.Mds(m).changelog().TotalAppended();
      }
      if (stats.aggregator.published == appended) break;
    }
    const auto stats = mon.Stats();
    published_baseline = stats.aggregator.published;
    extracted_baseline = stats.total_extracted;
  };
  workload::EventGenerator gen(env.fs, profile, env.authority, gen_config);
  (void)gen.Prepare();
  const auto report = gen.RunMixedFor(window);

  // Snapshot delivery at the moment generation stops.
  const uint64_t delivered_at_window =
      mon.Stats().aggregator.published - published_baseline;

  // Let the monitor drain its backlog, then verify no loss.
  for (int i = 0; i < 400; ++i) {
    env.authority.SleepFor(Millis(50));
    const auto stats = mon.Stats();
    if (stats.total_extracted == stats.aggregator.published &&
        stats.total_extracted - extracted_baseline >= report.events) {
      break;
    }
  }
  mon.Stop();

  const auto stats = mon.Stats();
  ThroughputResult result;
  result.generated = report.events;
  result.generated_rate = report.events_per_second;
  result.delivered_during_window = delivered_at_window;
  result.monitor_rate = RatePerSecond(delivered_at_window, report.elapsed);
  result.fraction =
      result.generated_rate <= 0 ? 0 : result.monitor_rate / result.generated_rate;
  result.extracted_total = stats.total_extracted - extracted_baseline;
  result.delivered_total = stats.aggregator.published - published_baseline;
  // Processing share: fid2path calls x per-call latency vs collector busy.
  uint64_t fid2path_calls = 0;
  for (const auto& c : stats.collectors) fid2path_calls += c.fid2path_calls;
  const double resolve_time =
      static_cast<double>(fid2path_calls) * ToSecondsF(profile.fid2path_latency);
  const double read_time = static_cast<double>(stats.total_extracted) *
                           ToSecondsF(profile.changelog_read_per_record);
  const double publish_time =
      static_cast<double>(stats.total_reported) / 16.0 *
      ToSecondsF(profile.collector_publish_latency);
  const double total_stage = resolve_time + read_time + publish_time;
  result.fid2path_share = total_stage <= 0 ? 0 : resolve_time / total_stage;
  const auto& detect = mon.collector(0).detection_latency();
  result.detect_p50 = FormatDuration(detect.Quantile(0.5));
  result.detect_p99 = FormatDuration(detect.Quantile(0.99));
  result.deliver_p99 = FormatDuration(mon.aggregator().delivery_latency().Quantile(0.99));
  return result;
}

// Saturated drain rate with N resolver workers (AWS profile, per-event
// fid2path — the configuration where resolution dominates and the
// pipelined collector's concurrency pays off).
double DrainRateWithWorkers(size_t workers) {
  const auto profile = lustre::TestbedProfile::Aws();
  Env env(profile);
  const uint64_t backlog = BuildBacklog(env.fs, 24, 100);
  msgq::Context context;
  monitor::MonitorConfig config;
  config.collector.resolve_mode = monitor::ResolveMode::kPerEvent;
  config.collector.resolver_workers = workers;
  config.collector.poll_interval = Millis(20);
  monitor::Monitor mon(env.fs, profile, env.authority, context, config);
  const VirtualTime start = env.authority.Now();
  mon.Start();
  while (mon.Stats().aggregator.published < backlog) {
    env.authority.SleepFor(Millis(10));
  }
  const double rate = RatePerSecond(backlog, env.authority.Now() - start);
  mon.Stop();
  return rate;
}

// The modeled per-event aggregator ingest cost the fan-in, window and
// fleet sweeps run at: the field-wise codec's decode cost, which makes the
// aggregator the bottleneck from 2 collectors on — the decode-bound regime
// the ingest pool and the sharded fleet were built for. The AWS profile's
// own 6us (flat v4 bind-and-stamp) is the deployment default.
constexpr VirtualDuration kDecodeBoundIngestLatency = Micros(35);

// Multi-collector fan-in drain rate (AWS profile, `collectors` MDSes each
// drained by its own collector running batched resolution with a 4-worker
// resolver pool — fast enough that a 35us/event serial ingest becomes the
// bottleneck at >1 collector). `ingest_workers` sizes the aggregator's
// decode pool; the sequencer, batch-log store and group-commit WAL run
// behind it. `shards` > 1 federates the aggregator into a fleet
// (collectors route by mdt % shards); `ingest_window` overrides the
// reorder-buffer auto sizing (0 = auto); `ingest_latency`, when set,
// overrides the profile's modeled per-event ingest cost.
double FanInDrainRate(size_t collectors, size_t ingest_workers, size_t shards = 1,
                      size_t ingest_window = 0,
                      std::optional<VirtualDuration> ingest_latency = std::nullopt) {
  auto profile = lustre::TestbedProfile::Aws();
  profile.mds_count = static_cast<uint32_t>(collectors);
  if (ingest_latency) profile.aggregator_ingest_latency = *ingest_latency;
  // Low dilation: real scheduler noise enters virtual time multiplied by
  // the dilation factor, and the 6-35us/event modeled ingest under test is
  // an order of magnitude smaller than the ops the default dilation is
  // tuned for (715us fid2path).
  TimeAuthority authority(Env::DilationFromEnv(2.0));
  // Spread directories over every MDS (DNE round-robin placement), so each
  // collector actually has a share of the backlog to feed in.
  lustre::FileSystemConfig fs_config = lustre::FileSystemConfig::FromProfile(profile);
  fs_config.dir_placement = lustre::DirPlacement::kRoundRobin;
  lustre::FileSystem fs(fs_config, authority);
  const uint64_t backlog = BuildBacklog(fs, 24, 100);
  msgq::Context context;
  monitor::MonitorConfig config;
  config.collector.resolve_mode = monitor::ResolveMode::kBatched;
  config.collector.resolver_workers = 4;
  config.collector.poll_interval = Millis(20);
  config.aggregator.ingest_workers = ingest_workers;
  config.aggregator.wal_group_max = 16;
  config.aggregator.ingest_window = ingest_window;
  config.aggregator_shards = shards;
  monitor::Monitor mon(fs, profile, authority, context, config);
  mon.Start();
  // Measure steady-state drain: start the clock only after 10% of the
  // backlog has been published, so thread spin-up and first-poll latency
  // don't dilute the rate.
  const uint64_t warmup = backlog / 10;
  while (mon.Stats().aggregator.published < warmup) {
    authority.SleepFor(Millis(5));
  }
  const uint64_t published_at_start = mon.Stats().aggregator.published;
  const VirtualTime start = authority.Now();
  while (mon.Stats().aggregator.published < backlog) {
    authority.SleepFor(Millis(5));
  }
  const double rate =
      RatePerSecond(backlog - published_at_start, authority.Now() - start);
  mon.Stop();
  return rate;
}

// --- Codec sweep: real wall-clock cost of the wire format itself (the
// one part of the pipeline the simulator does NOT model in virtual time —
// these are the cycles the monitor would spend on a real deployment, and
// the microbench that justifies the ingest-latency profile entries). ---

// Frozen comparator: the retired field-wise codec (wire v3), kept here
// only as the yardstick for the v4 speedup gates. The pipeline speaks flat
// v4 alone; nothing outside this sweep encodes or decodes this format.
namespace fieldwise {

constexpr uint16_t kVersion = 3;
// Fixed (non-string) bytes of one record: mdt u32 + index u64 + seq u64 +
// type u8 + time i64 + flags u32 + two fids (u64+u32+u32 each) + three u32
// string length prefixes + trace ids (2 x u64) + HLC (i64 + 2 x u32).
constexpr size_t kMinRecord = 4 + 8 + 8 + 1 + 8 + 4 + 2 * 16 + 3 * 4 + 2 * 8 + 16;

std::string Encode(const std::vector<monitor::FsEvent>& events) {
  BinaryWriter writer;
  writer.PutU16(kVersion);
  writer.PutU32(static_cast<uint32_t>(events.size()));
  for (const monitor::FsEvent& event : events) {
    writer.PutU32(static_cast<uint32_t>(event.mdt_index));
    writer.PutU64(event.record_index);
    writer.PutU64(event.global_seq);
    writer.PutU8(static_cast<uint8_t>(event.type));
    writer.PutI64(event.time.count());
    writer.PutU32(event.flags);
    writer.PutString(event.path);
    writer.PutString(event.name);
    writer.PutString(event.source_path);
    writer.PutU64(event.target_fid.seq);
    writer.PutU32(event.target_fid.oid);
    writer.PutU32(event.target_fid.ver);
    writer.PutU64(event.parent_fid.seq);
    writer.PutU32(event.parent_fid.oid);
    writer.PutU32(event.parent_fid.ver);
    writer.PutU64(event.trace_id);
    writer.PutU64(event.parent_span);
    writer.PutI64(event.hlc.wall_ns);
    writer.PutU32(event.hlc.logical);
    writer.PutU32(event.hlc.origin);
  }
  return writer.Take();
}

#define SDCI_READ_OR_RETURN(field, expr)      \
  {                                           \
    auto parsed = (expr);                     \
    if (!parsed.ok()) return parsed.status(); \
    field = std::move(parsed.value());        \
  }

Result<monitor::FsEvent> DecodeOne(BinaryReader& reader) {
  monitor::FsEvent event;
  uint32_t mdt = 0;
  SDCI_READ_OR_RETURN(mdt, reader.GetU32());
  event.mdt_index = static_cast<int>(mdt);
  SDCI_READ_OR_RETURN(event.record_index, reader.GetU64());
  SDCI_READ_OR_RETURN(event.global_seq, reader.GetU64());
  uint8_t type = 0;
  SDCI_READ_OR_RETURN(type, reader.GetU8());
  if (type > static_cast<uint8_t>(lustre::ChangeLogType::kAtime)) {
    return InvalidArgumentError("invalid event type byte");
  }
  event.type = static_cast<lustre::ChangeLogType>(type);
  int64_t time_ns = 0;
  SDCI_READ_OR_RETURN(time_ns, reader.GetI64());
  event.time = VirtualTime(time_ns);
  SDCI_READ_OR_RETURN(event.flags, reader.GetU32());
  SDCI_READ_OR_RETURN(event.path, reader.GetString());
  SDCI_READ_OR_RETURN(event.name, reader.GetString());
  SDCI_READ_OR_RETURN(event.source_path, reader.GetString());
  SDCI_READ_OR_RETURN(event.target_fid.seq, reader.GetU64());
  SDCI_READ_OR_RETURN(event.target_fid.oid, reader.GetU32());
  SDCI_READ_OR_RETURN(event.target_fid.ver, reader.GetU32());
  SDCI_READ_OR_RETURN(event.parent_fid.seq, reader.GetU64());
  SDCI_READ_OR_RETURN(event.parent_fid.oid, reader.GetU32());
  SDCI_READ_OR_RETURN(event.parent_fid.ver, reader.GetU32());
  SDCI_READ_OR_RETURN(event.trace_id, reader.GetU64());
  SDCI_READ_OR_RETURN(event.parent_span, reader.GetU64());
  SDCI_READ_OR_RETURN(event.hlc.wall_ns, reader.GetI64());
  SDCI_READ_OR_RETURN(event.hlc.logical, reader.GetU32());
  SDCI_READ_OR_RETURN(event.hlc.origin, reader.GetU32());
  return event;
}

#undef SDCI_READ_OR_RETURN

Result<std::vector<monitor::FsEvent>> Decode(std::string_view payload) {
  BinaryReader reader(payload);
  auto version = reader.GetU16();
  if (!version.ok()) return version.status();
  if (*version != kVersion) return InvalidArgumentError("not a field-wise v3 batch");
  auto count = reader.GetU32();
  if (!count.ok()) return count.status();
  if (*count > reader.Remaining() / kMinRecord) {
    return InvalidArgumentError("event count exceeds payload capacity");
  }
  std::vector<monitor::FsEvent> events;
  events.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto event = DecodeOne(reader);
    if (!event.ok()) return event.status();
    events.push_back(std::move(event.value()));
  }
  if (!reader.AtEnd()) return InvalidArgumentError("trailing bytes in event batch");
  return events;
}

}  // namespace fieldwise

// Defeats dead-code elimination without dragging google-benchmark in.
volatile uint64_t g_codec_sink = 0;

monitor::FsEvent CodecSampleEvent(uint64_t i) {
  monitor::FsEvent event;
  event.mdt_index = static_cast<int>(i % 4);
  event.record_index = 13106 + i;
  event.global_seq = i;
  event.type = lustre::ChangeLogType::kCreate;
  event.time = Micros(1000 + static_cast<int64_t>(i));
  event.flags = 0x11;
  event.path = strings::Format("/projects/apsu/2017/run12/raw/scan_{}.h5", i);
  event.name = strings::Format("scan_{}.h5", i);
  event.target_fid = lustre::Fid{0x200000402ull, static_cast<uint32_t>(i + 2), 0};
  event.parent_fid = lustre::Fid::Root();
  event.trace_id = 0xfeed0000 + i;
  event.parent_span = 0xbeef0000 + i;
  event.hlc = HlcStamp{static_cast<int64_t>(9000 + i), 2, 1};
  return event;
}

// Wall-clock ns per event for `fn` (which processes `ops_per_iter` events
// per call): doubling calibration until the sample is long enough for the
// clock to be trustworthy.
template <typename Fn>
double TimeNsPerOp(size_t ops_per_iter, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm caches and the allocator
  size_t iters = 64;
  for (;;) {
    const auto start = Clock::now();
    for (size_t i = 0; i < iters; ++i) fn();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= 0.02 || iters >= (size_t{1} << 22)) {
      return elapsed * 1e9 / (static_cast<double>(iters) * static_cast<double>(ops_per_iter));
    }
    iters *= 4;
  }
}

// A "consumer read" touches every fixed field and every path/name byte,
// so the legacy and v4 decode timings cover identical work: the only
// difference is how the bytes get from the wire into those reads.
uint64_t TouchDecoded(const std::vector<monitor::FsEvent>& events) {
  uint64_t sink = 0;
  for (const auto& e : events) {
    sink += e.record_index + e.global_seq + static_cast<uint64_t>(e.type) +
            e.flags + e.trace_id + e.parent_span + e.hlc.logical +
            e.target_fid.oid + e.parent_fid.oid;
    for (const char c : e.path) sink += static_cast<unsigned char>(c);
    for (const char c : e.name) sink += static_cast<unsigned char>(c);
  }
  return sink;
}

uint64_t TouchView(const wire::EventBatchView& batch) {
  uint64_t sink = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const wire::EventView e = batch[i];
    sink += e.record_index() + e.global_seq() + static_cast<uint64_t>(e.type()) +
            e.flags() + e.trace_id() + e.parent_span() + e.hlc().logical +
            e.target_fid().oid + e.parent_fid().oid;
    for (const char c : e.path()) sink += static_cast<unsigned char>(c);
    for (const char c : e.name()) sink += static_cast<unsigned char>(c);
  }
  return sink;
}

struct CodecTiming {
  double encode_ns = 0;  // per event
  double decode_ns = 0;  // per event (decode + read every field)
};

// `fieldwise` selects the frozen v3 comparator instead of the flat v4 codec.
CodecTiming MeasureCodec(size_t batch_size, bool fieldwise) {
  std::vector<monitor::FsEvent> events;
  events.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) events.push_back(CodecSampleEvent(i));
  CodecTiming timing;
  uint64_t sink = 0;
  if (!fieldwise) {
    timing.encode_ns = TimeNsPerOp(batch_size, [&] {
      sink += wire::EncodeEventBatchV4(events.data(), events.size()).size();
    });
    const std::string payload = wire::EncodeEventBatchV4(events.data(), events.size());
    timing.decode_ns = TimeNsPerOp(batch_size, [&] {
      const auto batch = wire::EventBatchView::Bind(payload);
      sink += TouchView(batch.value());
    });
  } else {
    timing.encode_ns = TimeNsPerOp(batch_size, [&] {
      sink += fieldwise::Encode(events).size();
    });
    const std::string payload = fieldwise::Encode(events);
    timing.decode_ns = TimeNsPerOp(batch_size, [&] {
      const auto decoded = fieldwise::Decode(payload);
      sink += TouchDecoded(decoded.value());
    });
  }
  g_codec_sink = sink;
  return timing;
}

}  // namespace
}  // namespace sdci::bench

int main(int argc, char** argv) {
  using namespace sdci;
  using namespace sdci::bench;

  const std::string json_out = JsonOutPath(argc, argv);
  const auto aws = RunOne(lustre::TestbedProfile::Aws(), Seconds(5.0));
  const auto iota = RunOne(lustre::TestbedProfile::Iota(), Seconds(5.0));

  PrintTable(
      "Section 5.2: Event throughput (per-event fid2path, 1 MDS)",
      {{"testbed", "generated ev/s", "monitor ev/s", "fraction", "paper"},
       {"AWS", F0(aws.generated_rate), F0(aws.monitor_rate),
        F2(aws.fraction * 100) + "%", "1053/1366 = 77.1%"},
       {"Iota", F0(iota.generated_rate), F0(iota.monitor_rate),
        F2(iota.fraction * 100) + "%", "8162/9593 = 85.1%"}});

  PrintTable(
      "Pipeline breakdown and loss check",
      {{"testbed", "extracted", "delivered", "lost", "fid2path share of stage cost"},
       {"AWS", std::to_string(aws.extracted_total), std::to_string(aws.delivered_total),
        std::to_string(aws.extracted_total - aws.delivered_total),
        F1(aws.fid2path_share * 100) + "%"},
       {"Iota", std::to_string(iota.extracted_total),
        std::to_string(iota.delivered_total),
        std::to_string(iota.extracted_total - iota.delivered_total),
        F1(iota.fid2path_share * 100) + "%"}});

  PrintTable("Event latency through the saturated pipeline (virtual time)",
             {{"testbed", "detect p50", "detect p99", "deliver p99"},
              {"AWS", aws.detect_p50, aws.detect_p99, aws.deliver_p99},
              {"Iota", iota.detect_p50, iota.detect_p99, iota.deliver_p99}});

  std::printf(
      "\nShape: monitor trails generation (bottleneck = per-event path\n"
      "resolution), gap larger on AWS; zero events lost once processed;\n"
      "latencies grow with the backlog (the pipeline runs saturated).\n");

  // Resolver worker sweep: the pipelined collector overlaps fid2path
  // latency across workers while the publisher re-sequences, so drain
  // throughput should scale until the serial read stage dominates.
  const std::vector<size_t> worker_counts{1, 2, 4, 8};
  std::vector<double> sweep_rates;
  for (const size_t workers : worker_counts) {
    sweep_rates.push_back(DrainRateWithWorkers(workers));
  }
  std::vector<std::vector<std::string>> sweep_rows;
  sweep_rows.push_back({"resolver workers", "drain ev/s", "speedup vs 1"});
  for (size_t i = 0; i < worker_counts.size(); ++i) {
    sweep_rows.push_back({std::to_string(worker_counts[i]), F0(sweep_rates[i]),
                          F2(sweep_rates[i] / sweep_rates[0]) + "x"});
  }
  PrintTable("Resolver worker sweep (AWS, per-event fid2path, saturated drain)",
             sweep_rows);
  std::printf(
      "\nShape: near-linear scaling at low worker counts (resolution is the\n"
      "bottleneck), flattening as the serial ChangeLog read stage and the\n"
      "in-order publisher become the limit.\n");

  // Aggregator fan-in sweep: N collectors feed one aggregator; the serial
  // decode loop saturates at ~1/aggregator_ingest_latency events/s no
  // matter the fan-in, while the parallel ingest pool rides the collector
  // feed rate until the sequencer or the collectors become the limit.
  // Run at the field-wise codec's 35us/event ingest cost: this sweep (and
  // the window and fleet studies below) characterize the decode-bound
  // regime the ingest pool and the sharded fleet were built for; the v4
  // sections afterward show the flat codec's cost removing that regime.
  const std::vector<size_t> fanin_counts{1, 2, 4, 8};
  const std::vector<size_t> ingest_worker_counts{1, 4};
  // rates[c][w] = drain rate with fanin_counts[c] collectors and
  // ingest_worker_counts[w] aggregator decode workers.
  std::vector<std::vector<double>> fanin_rates;
  for (const size_t collectors : fanin_counts) {
    std::vector<double> row;
    for (const size_t workers : ingest_worker_counts) {
      row.push_back(FanInDrainRate(collectors, workers, 1, 0, kDecodeBoundIngestLatency));
    }
    fanin_rates.push_back(row);
  }
  std::vector<std::vector<std::string>> fanin_rows;
  fanin_rows.push_back(
      {"collectors", "1 ingest worker ev/s", "4 ingest workers ev/s", "speedup"});
  for (size_t c = 0; c < fanin_counts.size(); ++c) {
    fanin_rows.push_back({std::to_string(fanin_counts[c]), F0(fanin_rates[c][0]),
                          F0(fanin_rates[c][1]),
                          F2(fanin_rates[c][1] / fanin_rates[c][0]) + "x"});
  }
  PrintTable(
      "Aggregator fan-in sweep (AWS, batched resolve, saturated drain)",
      fanin_rows);
  const double aggregator_speedup = fanin_rates[2][1] / fanin_rates[2][0];
  std::printf(
      "\nShape: at 1 collector the aggregator keeps up either way; from 2\n"
      "collectors the serial decode loop is the ceiling, and 4 ingest\n"
      "workers lift drain to the collectors' aggregate feed rate\n"
      "(aggregator speedup at 4 collectors: %.2fx).\n",
      aggregator_speedup);

  // Ingest-window study (see EXPERIMENTS.md): the reorder buffer bounds
  // how far the receiver runs ahead of the sequencer, so under wide
  // fan-in a small window can throttle the decode pool before the
  // sequencer is actually the limit. Measured at 4 and 8 collectors with
  // the 4-worker pool.
  const std::vector<size_t> window_fanins{4, 8};
  const std::vector<size_t> window_sizes{16, 64};
  // window_rates[f][w] = drain rate at window_fanins[f] collectors with
  // an ingest window of window_sizes[w].
  std::vector<std::vector<double>> window_rates;
  for (const size_t collectors : window_fanins) {
    std::vector<double> row;
    for (const size_t window : window_sizes) {
      row.push_back(FanInDrainRate(collectors, 4, 1, window, kDecodeBoundIngestLatency));
    }
    window_rates.push_back(row);
  }
  std::vector<std::vector<std::string>> window_rows;
  window_rows.push_back(
      {"collectors", "window 16 ev/s", "window 64 ev/s", "64 vs 16"});
  for (size_t f = 0; f < window_fanins.size(); ++f) {
    window_rows.push_back({std::to_string(window_fanins[f]),
                           F0(window_rates[f][0]), F0(window_rates[f][1]),
                           F2(window_rates[f][1] / window_rates[f][0]) + "x"});
  }
  PrintTable("Ingest window under fan-in (4 ingest workers)", window_rows);

  // Fleet sweep: the same 8-collector feed against one aggregator vs a
  // 4-shard fleet of the *same per-shard configuration* (the deployment
  // default: serial ingest). Collectors route by mdt % shards, so each
  // shard runs its own receiver, sequencer, WAL and store — sharding
  // scales the whole serial pipeline, where the ingest pool alone only
  // parallelizes decode. The pooled variant (4 workers/shard) is
  // reported alongside; on few-core hosts it converges to the machine's
  // real compute ceiling rather than the architecture's.
  const double fleet_1_shard = fanin_rates[3][0];
  const double fleet_4_shards = FanInDrainRate(8, 1, 4, 0, kDecodeBoundIngestLatency);
  const double fleet_speedup = fleet_4_shards / fleet_1_shard;
  const double fleet_4_shards_pooled = FanInDrainRate(8, 4, 4, 0, kDecodeBoundIngestLatency);
  PrintTable(
      "Aggregator fleet at 8-collector fan-in (default serial shards)",
      {{"shards", "drain ev/s", "speedup", "with 4 workers/shard"},
       {"1", F0(fleet_1_shard), "1.00x", F0(fanin_rates[3][1])},
       {"4", F0(fleet_4_shards), F2(fleet_speedup) + "x",
        F0(fleet_4_shards_pooled)}});
  std::printf(
      "\nShape: one aggregator serializes all 8 collectors through a single\n"
      "sequencer; 4 shards split the fan-in so sequencing, WAL commits and\n"
      "store appends run in parallel across the fleet (speedup: %.2fx).\n",
      fleet_speedup);

  // Codec sweep (real wall-clock, not virtual time): field-wise v3 vs the
  // flat v4 layout, at small/typical/large batch sizes. Decode includes
  // reading every field and every path byte, so v4's advantage is the
  // absence of per-field parsing and string allocation — not skipped work.
  const std::vector<size_t> codec_batches{1, 8, 64};
  std::vector<CodecTiming> legacy_timings;
  std::vector<CodecTiming> v4_timings;
  for (const size_t batch : codec_batches) {
    legacy_timings.push_back(MeasureCodec(batch, /*fieldwise=*/true));
    v4_timings.push_back(MeasureCodec(batch, /*fieldwise=*/false));
  }
  std::vector<std::vector<std::string>> codec_rows;
  codec_rows.push_back({"batch", "v3 enc ns/ev", "v4 enc ns/ev", "enc speedup",
                        "v3 dec ns/ev", "v4 dec ns/ev", "dec speedup"});
  for (size_t i = 0; i < codec_batches.size(); ++i) {
    codec_rows.push_back(
        {std::to_string(codec_batches[i]), F0(legacy_timings[i].encode_ns),
         F0(v4_timings[i].encode_ns),
         F2(legacy_timings[i].encode_ns / v4_timings[i].encode_ns) + "x",
         F0(legacy_timings[i].decode_ns), F0(v4_timings[i].decode_ns),
         F2(legacy_timings[i].decode_ns / v4_timings[i].decode_ns) + "x"});
  }
  PrintTable("Wire codec sweep (wall clock; decode = bind + read all fields)",
             codec_rows);
  // Headline numbers come from the steady-state batch size (64: collectors
  // publish 16-64 event chunks when draining a backlog).
  const size_t headline = codec_batches.size() - 1;
  const double wire_speedup_decode =
      legacy_timings[headline].decode_ns / v4_timings[headline].decode_ns;
  const double wire_speedup_encode =
      legacy_timings[headline].encode_ns / v4_timings[headline].encode_ns;
  std::printf(
      "\nShape: v4 decode is a validate-and-alias pass, so its per-event\n"
      "cost stays flat while v3 pays per-field parses and three string\n"
      "allocations per event (decode speedup at batch 64: %.2fx).\n",
      wire_speedup_decode);

  // The same 8-collector fan-in drained through one aggregator at the two
  // modeled ingest costs: 35us/event (the field-wise decode cost the sweeps
  // above run at) vs the AWS profile's 6us/event (v4 bind + stamp-in-place),
  // each with the deployment-default serial ingest and with the 4-worker
  // decode pool. Both runs take the same v4 code path, so the ratio is a
  // calibration of two profile inputs — the codec sweep above is what
  // backs the 6us figure with measured wall clock.
  const double ingest_drain_legacy = fanin_rates[3][0];
  const double ingest_drain_legacy_pooled = fanin_rates[3][1];
  const double ingest_drain_v4 = FanInDrainRate(8, 1);
  const double ingest_drain_v4_pooled = FanInDrainRate(8, 4);
  const double ingest_drain_v4_speedup = ingest_drain_v4 / ingest_drain_legacy;
  PrintTable(
      "Ingest drain at 8-collector fan-in (1 shard, modeled ingest cost)",
      {{"ingest cost", "serial ingest ev/s", "4-worker pool ev/s", "serial ratio"},
       {"35us/ev (field-wise)", F0(ingest_drain_legacy),
        F0(ingest_drain_legacy_pooled), "1.00x"},
       {"6us/ev (flat v4)", F0(ingest_drain_v4), F0(ingest_drain_v4_pooled),
        F2(ingest_drain_v4_speedup) + "x"}});
  std::printf(
      "\nShape: at the flat codec's modeled cost a single serial ingest\n"
      "thread drains at the collectors' aggregate feed rate (%.2fx over the\n"
      "35us/event regime; a calibration ratio, not a measured codec win) and\n"
      "the decode pool no longer moves the number.\n",
      ingest_drain_v4_speedup);

  MetricSet metrics;
  for (size_t i = 0; i < codec_batches.size(); ++i) {
    const std::string b = std::to_string(codec_batches[i]);
    metrics.Set("wire_v3_encode_ns_b" + b, legacy_timings[i].encode_ns);
    metrics.Set("wire_v4_encode_ns_b" + b, v4_timings[i].encode_ns);
    metrics.Set("wire_v3_decode_ns_b" + b, legacy_timings[i].decode_ns);
    metrics.Set("wire_v4_decode_ns_b" + b, v4_timings[i].decode_ns);
  }
  metrics.Set("wire_speedup_decode", wire_speedup_decode);
  metrics.Set("wire_speedup_encode", wire_speedup_encode);
  metrics.Set("ingest_drain_v4", ingest_drain_v4);
  metrics.Set("ingest_drain_v4_pooled", ingest_drain_v4_pooled);
  metrics.Set("ingest_drain_legacy", ingest_drain_legacy);
  metrics.Set("ingest_drain_legacy_pooled", ingest_drain_legacy_pooled);
  metrics.Set("ingest_drain_v4_speedup", ingest_drain_v4_speedup);
  for (size_t f = 0; f < window_fanins.size(); ++f) {
    for (size_t w = 0; w < window_sizes.size(); ++w) {
      metrics.Set("fanin_" + std::to_string(window_fanins[f]) + "c_window_" +
                      std::to_string(window_sizes[w]) + "_drain_rate",
                  window_rates[f][w]);
    }
  }
  metrics.Set("fleet_8c_1_shard_drain_rate", fleet_1_shard);
  metrics.Set("fleet_8c_4_shards_drain_rate", fleet_4_shards);
  metrics.Set("fleet_8c_4_shards_pooled_drain_rate", fleet_4_shards_pooled);
  metrics.Set("fleet_speedup_4_shards", fleet_speedup);
  for (size_t c = 0; c < fanin_counts.size(); ++c) {
    for (size_t w = 0; w < ingest_worker_counts.size(); ++w) {
      metrics.Set("fanin_" + std::to_string(fanin_counts[c]) + "c_workers_" +
                      std::to_string(ingest_worker_counts[w]) + "_drain_rate",
                  fanin_rates[c][w]);
    }
  }
  metrics.Set("aggregator_speedup_4_workers", aggregator_speedup);
  for (size_t i = 0; i < worker_counts.size(); ++i) {
    metrics.Set("workers_" + std::to_string(worker_counts[i]) + "_drain_rate",
                sweep_rates[i]);
  }
  metrics.Set("speedup_4_workers", sweep_rates[2] / sweep_rates[0]);
  metrics.Set("aws_generated_rate", aws.generated_rate);
  metrics.Set("aws_monitor_rate", aws.monitor_rate);
  metrics.Set("aws_fraction", aws.fraction);
  metrics.Set("aws_lost",
              static_cast<double>(aws.extracted_total - aws.delivered_total));
  metrics.Set("iota_generated_rate", iota.generated_rate);
  metrics.Set("iota_monitor_rate", iota.monitor_rate);
  metrics.Set("iota_fraction", iota.fraction);
  metrics.Set("iota_lost",
              static_cast<double>(iota.extracted_total - iota.delivered_total));
  WriteMetricsJson(json_out, metrics);
  return 0;
}
