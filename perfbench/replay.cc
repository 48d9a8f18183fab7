#include "replay.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <thread>

#include "common/json.h"
#include "lustre/fid2path.h"
#include "monitor/aggregator.h"
#include "monitor/event_store.h"
#include "monitor/wire_v4.h"
#include "msgq/context.h"
#include "ripple/rule_index.h"
#include "ripple/sqs.h"
#include "stats.h"

namespace perfbench {

namespace lustre = sdci::lustre;
namespace monitor = sdci::monitor;
namespace ripple = sdci::ripple;

namespace {

// Events per collector message (CollectorConfig::publish_batch default)
// and batches per WAL group commit (AggregatorConfig::wal_group_max).
constexpr size_t kPublishBatch = 16;
constexpr size_t kWalGroup = 16;
constexpr size_t kReplayFiles = 20000;
constexpr int kChurnCycles = 10;

// Times `body` under a span named `name`; returns the elapsed ns.
template <typename F>
double Timed(SpanLog& spans, const char* name, F&& body) {
  const int64_t start = NowNs();
  body();
  const int64_t end = NowNs();
  spans.Record(name, start, end);
  return static_cast<double>(end - start);
}

double PerUnit(double ns, size_t units) {
  return units == 0 ? 0 : ns / static_cast<double>(units);
}

struct Lustre {
  double read_ns_per_record = 0;
  double fid2path_ns_per_call = 0;
};

// A fresh 4-MDT file system staged like the drain backlog, with no
// ChangeLog consumer (records are retained): ReadFrom in read_batch-sized
// calls, then one fid2path per record parent, as the collector does.
Lustre ReplayLustre(uint64_t seed, SpanLog& spans) {
  const sdci::TimeAuthority authority(1.0);
  const lustre::TestbedProfile profile = ZeroProfile();
  auto config = lustre::FileSystemConfig::FromProfile(profile);
  config.dir_placement = lustre::DirPlacement::kRoundRobin;
  lustre::FileSystem fs(config, authority);
  Require(fs.Mkdir("/replay").ok(), "replay mkdir");
  std::vector<std::string> dirs;
  for (int d = 0; d < 64; ++d) {
    dirs.push_back("/replay/d" + std::to_string(d));
    Require(fs.Mkdir(dirs.back()).ok(), "replay mkdir");
  }
  std::mt19937_64 rng(seed);
  for (size_t k = 0; k < kReplayFiles; ++k) {
    const std::string path = dirs[rng() % dirs.size()] + "/f" + std::to_string(k) + ".dat";
    Require(fs.Create(path).ok() && fs.WriteFile(path, 4096).ok(), "replay stage");
  }
  Lustre out;
  std::vector<lustre::ChangeLogRecord> records;
  std::vector<lustre::ChangeLogRecord> batch;
  size_t read = 0;
  const double read_ns = Timed(spans, "lustre.changelog_read", [&] {
    for (size_t mdt = 0; mdt < fs.MdsCount(); ++mdt) {
      uint64_t next = 1;
      while (true) {
        batch.clear();
        const size_t n = fs.Mds(mdt).changelog().ReadFrom(next, 256, batch);
        if (n == 0) break;
        read += n;
        next = batch.back().index + 1;
        records.insert(records.end(), batch.begin(), batch.end());
      }
    }
  });
  out.read_ns_per_record = PerUnit(read_ns, read);
  const lustre::Fid2PathService fid2path(fs, profile);
  sdci::DelayBudget budget(authority);
  size_t resolved = 0;
  const double resolve_ns = Timed(spans, "lustre.fid2path", [&] {
    for (const auto& record : records) resolved += fid2path.Resolve(record.parent, budget).ok();
  });
  Require(resolved == records.size(), "replay fid2path failures");
  out.fid2path_ns_per_call = PerUnit(resolve_ns, records.size());
  return out;
}

struct Replayed {
  std::vector<std::vector<monitor::FsEvent>> chunks;  // publish_batch chunks
  std::vector<std::shared_ptr<const std::string>> payloads;
  std::vector<monitor::EventBatch> bound;
  size_t events = 0;
};

}  // namespace

std::vector<LayerMetric> LayerMetrics(Workload workload, uint64_t seed,
                                      const RoundResult& traced,
                                      LiveTrace& trace) {
  SpanLog& spans = trace.spans;
  std::vector<LayerMetric> out;
  const auto add = [&out](std::string name, std::string unit, double value) {
    out.push_back(LayerMetric{std::move(name), std::move(unit), value});
  };

  // --- lustre
  const Lustre lustre_rows = ReplayLustre(seed, spans);
  add("lustre.changelog_read_ns_per_record", "ns", lustre_rows.read_ns_per_record);
  add("lustre.fid2path_ns_per_call", "ns", lustre_rows.fid2path_ns_per_call);
  add("lustre.fs_op_ns", "ns", spans.MeanNs("lustre.fs_op"));

  // --- collector (live)
  const double calls_per_event =
      trace.collector_processed == 0
          ? 0
          : static_cast<double>(trace.collector_fid2path_calls) /
                static_cast<double>(trace.collector_processed);
  add("collector.fid2path_calls_per_event", "count", calls_per_event);
  add("collector.resolver_pool_depth_mean", "count",
      trace.gauge_mean["sdci_collector_resolver_pool_depth"]);
  add("collector.reorder_occupancy_mean", "count",
      trace.gauge_mean["sdci_collector_reorder_occupancy"]);
  add("collector.report_retries", "count", static_cast<double>(trace.collector_report_retries));

  // --- wire: the delivered events, re-chunked the way collectors publish.
  Replayed r;
  std::vector<monitor::FsEvent> all;
  for (const auto& batch : trace.captured) {
    const auto& events = batch.events();
    all.insert(all.end(), events.begin(), events.end());
  }
  r.events = all.size();
  Require(r.events > 0, "traced round captured no events");
  for (size_t i = 0; i < all.size(); i += kPublishBatch) {
    r.chunks.emplace_back(all.begin() + static_cast<ptrdiff_t>(i),
                          all.begin() + static_cast<ptrdiff_t>(std::min(all.size(), i + kPublishBatch)));
  }
  size_t bytes = 0;
  const double encode_ns = Timed(spans, "wire.encode", [&] {
    for (const auto& chunk : r.chunks) {
      r.payloads.push_back(std::make_shared<const std::string>(
          monitor::wire::EncodeEventBatchV4(chunk.data(), chunk.size())));
      bytes += r.payloads.back()->size();
    }
  });
  const double bind_ns = Timed(spans, "wire.bind", [&] {
    for (const auto& payload : r.payloads) {
      auto batch = monitor::EventBatch::FromPayload(payload);
      Require(batch.ok(), "replay bind: " + batch.status().ToString());
      r.bound.push_back(std::move(*batch));
    }
  });
  size_t materialized = 0;
  const double materialize_ns = Timed(spans, "wire.materialize", [&] {
    for (const auto& batch : r.bound) materialized += batch.events().size();
  });
  Require(materialized == r.events, "replay materialize count");
  add("wire.encode_ns_per_event", "ns", PerUnit(encode_ns, r.events));
  add("wire.bind_ns_per_event", "ns", PerUnit(bind_ns, r.events));
  add("wire.materialize_ns_per_event", "ns", PerUnit(materialize_ns, r.events));
  add("wire.bytes_per_event", "B", PerUnit(static_cast<double>(bytes), r.events));

  // --- msgq: one inproc PUB->SUB hop per message, 64 messages in flight.
  double hop_ns = 0;
  {
    sdci::msgq::Context context;
    auto pub = context.CreatePub("inproc://perfbench.hop");
    auto sub = context.CreateSub("inproc://perfbench.hop", 1024, sdci::msgq::HwmPolicy::kBlock);
    sub->Subscribe("fsevent.");
    hop_ns = Timed(spans, "msgq.hop", [&] {
      for (size_t i = 0; i < r.payloads.size(); i += 64) {
        const size_t end = std::min(r.payloads.size(), i + 64);
        for (size_t j = i; j < end; ++j) pub->Publish(sdci::msgq::Message("fsevent.CREAT", r.payloads[j]));
        for (size_t j = i; j < end; ++j) Require(sub->Receive().ok(), "replay hop receive");
      }
    });
  }
  const double events_per_message =
      trace.aggregator.batches_published == 0
          ? 0
          : static_cast<double>(trace.aggregator.published) /
                static_cast<double>(trace.aggregator.batches_published);
  add("msgq.hop_ns_per_message", "ns", PerUnit(hop_ns, r.payloads.size()));
  add("msgq.events_per_message", "count", events_per_message);
  add("msgq.sub_queue_depth_mean", "count", trace.gauge_mean["sdci_msgq_sub_queue_depth"]);
  add("msgq.sub_dropped", "count", trace.sub_dropped);

  // --- ingest: WAL group commits over the bound batches.
  double wal_ns = 0;
  {
    monitor::AggregatorCheckpoint checkpoint(r.events + 1);
    std::vector<monitor::EventBatch> group;
    uint64_t next_seq = 1;
    wal_ns = Timed(spans, "ingest.wal_append", [&] {
      for (size_t i = 0; i < r.bound.size(); i += kWalGroup) {
        group.assign(r.bound.begin() + static_cast<ptrdiff_t>(i),
                     r.bound.begin() + static_cast<ptrdiff_t>(std::min(r.bound.size(), i + kWalGroup)));
        for (const auto& batch : group) next_seq += batch.size();
        checkpoint.Append(group, next_seq);
      }
    });
  }
  add("ingest.wal_append_ns_per_event", "ns", PerUnit(wal_ns, r.events));
  add("ingest.batches_per_wal_commit", "count",
      trace.aggregator.wal_commits == 0
          ? 0
          : static_cast<double>(trace.aggregator.batches_received) /
                static_cast<double>(trace.aggregator.wal_commits));
  add("ingest.pool_depth_mean", "count", trace.gauge_mean["sdci_aggregator_ingest_pool_depth"]);
  add("ingest.reorder_occupancy_mean", "count",
      trace.gauge_mean["sdci_aggregator_reorder_occupancy"]);
  add("ingest.decode_errors", "count", static_cast<double>(trace.aggregator.decode_errors));

  // --- catalog: one shard's batches (its sequences are dense), appended
  // to a default-capacity store, then sequence pages and time windows.
  double store_append_ns = 0;
  {
    std::vector<const monitor::EventBatch*> shard0;
    size_t shard0_events = 0;
    for (const auto& batch : trace.captured) {
      if (batch.events().front().hlc.origin == 0) {
        shard0.push_back(&batch);
        shard0_events += batch.size();
      }
    }
    monitor::EventStore store(params::kStoreCapacity);
    const double append_ns = Timed(spans, "catalog.store_append", [&] {
      for (const auto* batch : shard0) store.Append(*batch);
    });
    store_append_ns = PerUnit(append_ns, shard0_events);
    add("catalog.store_append_ns_per_event", "ns", store_append_ns);
    std::mt19937_64 rng(seed ^ 0xca7a);
    const uint64_t first = store.FirstSeq();
    const uint64_t last = store.LastSeq();
    size_t returned = 0;
    const double query_ns = Timed(spans, "catalog.query_seq", [&] {
      for (int i = 0; i < 200 && last > first + params::kPageLarge; ++i) {
        returned += store.Query(first + rng() % (last - first - params::kPageLarge),
                                params::kPageLarge)
                        .size();
      }
    });
    add("catalog.query_seq_ns_per_event", "ns", PerUnit(query_ns, returned));
    std::vector<int64_t> times;
    for (const auto* batch : shard0) {
      for (const auto& e : batch->events()) times.push_back(e.time.count());
    }
    std::sort(times.begin(), times.end());
    size_t windowed = 0;
    const double time_ns = Timed(spans, "catalog.query_time", [&] {
      for (int i = 0; i < 200 && times.size() > 2 * params::kWindowEvents; ++i) {
        const size_t a = rng() % (times.size() - params::kWindowEvents);
        windowed += store.QueryTimeRange(sdci::VirtualTime(times[a]),
                                         sdci::VirtualTime(times[a + params::kWindowEvents]),
                                         4 * params::kWindowEvents)
                        .size();
      }
    });
    add("catalog.query_time_ns_per_event", "ns", PerUnit(time_ns, windowed));
    add("catalog.bytes_per_event", "B",
        PerUnit(static_cast<double>(store.memory().CurrentBytes()), store.Size()));
    add("catalog.store_queue_depth_mean", "count",
        trace.gauge_mean["sdci_aggregator_store_queue_depth"]);
  }

  // --- serve: the history API's JSON edge, and pages from the idle site.
  const size_t json_events = std::min<size_t>(all.size(), 20000);
  const double json_ns = Timed(spans, "serve.history_json", [&] {
    for (size_t i = 0; i < json_events; ++i) {
      const std::string text = all[i].ToJson().Dump();
      auto parsed = sdci::json::Parse(text);
      Require(parsed.ok() && monitor::FsEvent::FromJson(*parsed).ok(), "replay json");
    }
  });
  add("serve.history_json_ns_per_event", "ns", PerUnit(json_ns, json_events));
  add("serve.fetch_page64_ms", "ms", trace.fetch_page64_ms);
  add("serve.fetch_page1024_ms", "ms", trace.fetch_page1024_ms);
  add("serve.publish_queue_depth_mean", "count",
      trace.gauge_mean["sdci_aggregator_publish_queue_depth"]);

  // --- federation
  add("federation.time_range_ns_per_event", "ns", trace.time_range_ns_per_event);
  add("federation.gaps_detected", "count", static_cast<double>(trace.gaps_detected));
  add("federation.events_backfilled", "count", static_cast<double>(trace.events_backfilled));

  // --- rules: the stream rule set over the delivered events.
  const std::vector<ripple::Rule> rules = StreamRules();
  std::vector<double> build_ms;
  std::shared_ptr<const ripple::RuleIndex> index;
  for (int i = 0; i < 5; ++i) {
    ripple::RuleIndex::Builder builder;
    for (const auto& rule : rules) builder.Add(rule);
    build_ms.push_back(Timed(spans, "rules.build", [&] { index = builder.Build(); }) / 1e6);
  }
  add("rules.build_ms", "ms", Median(build_ms));
  {
    ripple::RuleIndex::Scratch scratch;
    std::vector<uint32_t> matched;
    std::vector<monitor::wire::EventBatchView> views;
    for (const auto& payload : r.payloads) {
      auto view = monitor::wire::EventBatchView::Bind(*payload);
      Require(view.ok(), "replay view");
      views.push_back(*view);
    }
    const double probe_ns = Timed(spans, "rules.probe", [&] {
      for (const auto& view : views) {
        matched.clear();
        index->EvaluateBatch(view, scratch, matched);
      }
    });
    add("rules.probe_ns_per_event", "ns", PerUnit(probe_ns, r.events));
  }

  // --- agent and cloud: a stopped cloud and agent given the stream rules
  // through the control plane, churned, then fed the delivered batches.
  double rss_kb_per_update = 0;
  double deliver_ns = 0;
  {
    const sdci::TimeAuthority authority(1.0);
    lustre::FileSystem fs(lustre::FileSystemConfig::FromProfile(ZeroProfile()), authority);
    ripple::CloudService cloud(authority);
    ripple::EndpointRegistry endpoints;
    ripple::AgentConfig agent_config;
    agent_config.name = "site";
    ripple::Agent agent(agent_config, fs, cloud, endpoints, authority);
    for (const auto& rule : rules) Require(cloud.RegisterRule(rule).ok(), "replay rule");
    const double rss0 = RssKb();
    for (int k = 0; k < kChurnCycles; ++k) {
      const ripple::Rule rule = ChurnRule(static_cast<uint64_t>(k));
      Require(cloud.RegisterRule(rule).ok() && cloud.RemoveRule(rule.id).ok(), "replay churn");
    }
    rss_kb_per_update = (RssKb() - rss0) / (2.0 * kChurnCycles);
    deliver_ns = Timed(spans, "agent.deliver", [&] {
      for (const auto& batch : r.bound) agent.DeliverBatch(batch);
    });
  }
  add("rules.rss_kb_per_update", "kB", rss_kb_per_update);
  add("agent.deliver_ns_per_event", "ns", PerUnit(deliver_ns, r.events));
  add("agent.actions_deduped", "count", static_cast<double>(trace.agent.actions_deduped));
  add("agent.report_retries", "count", static_cast<double>(trace.agent.report_retries));

  double sqs_ns = 0;
  {
    const sdci::TimeAuthority authority(1.0);
    ripple::ReliableQueue queue(authority);
    constexpr int kMessages = 20000;
    sqs_ns = Timed(spans, "cloud.sqs_roundtrip", [&] {
      for (int i = 0; i < kMessages; ++i) {
        queue.Send("{\"agent\":\"site\",\"event\":" + std::to_string(i) + "}");
        auto message = queue.Receive();
        Require(message.has_value() && queue.Delete(message->receipt).ok(), "replay sqs");
      }
    }) / kMessages;
  }
  add("cloud.sqs_roundtrip_ns", "ns", sqs_ns);
  add("cloud.queue_visible_depth_mean", "count", trace.gauge_mean["sdci_cloud_queue_visible_depth"]);
  add("cloud.redeliveries", "count", static_cast<double>(trace.cloud.redeliveries));
  add("cloud.dead_letters", "count", static_cast<double>(trace.cloud.dead_letters));

  // --- process: idle burn, threads, and what the replayed rows leave
  // unexplained of the traced round's CPU per event.
  add("process.idle_cpu_cores", "cores", trace.idle_cpu_cores);
  add("process.threads", "count", trace.max_threads);
  const size_t subscribers = workload == Workload::kStream ? 2 : 1;
  double attributed = lustre_rows.read_ns_per_record +
                      lustre_rows.fid2path_ns_per_call * calls_per_event +
                      PerUnit(encode_ns, r.events) +
                      2 * PerUnit(bind_ns, r.events) +                  // ingest + consumer
                      PerUnit(hop_ns, r.payloads.size()) / kPublishBatch +  // collect hop
                      (events_per_message > 0
                           ? subscribers * PerUnit(hop_ns, r.payloads.size()) / events_per_message
                           : 0) +                                       // publish hops
                      PerUnit(materialize_ns, r.events) + store_append_ns;
  // An unsupervised fleet (the default) keeps no checkpoint WAL.
  if (trace.aggregator.wal_commits > 0) attributed += PerUnit(wal_ns, r.events);
  if (workload == Workload::kStream) attributed += PerUnit(deliver_ns, r.events);
  add("drain.unattributed_ns_per_event", "ns", traced.cpu_ns_per_event - attributed);
  const auto late = TailQuantile(traced.gen_late_us, 0.99);
  add("workload.gen_late_p99_us", "us", late.has_value() ? late->value : 0);
  return out;
}

}  // namespace perfbench
