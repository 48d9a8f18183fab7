#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <random>
#include <thread>

#include "lustre/fid.h"
#include "monitor/consumer.h"
#include "stats.h"

namespace perfbench {

namespace lustre = sdci::lustre;
namespace monitor = sdci::monitor;
namespace ripple = sdci::ripple;
using lustre::ChangeLogType;

namespace {

// Events the traced round keeps for the layer replay.
constexpr size_t kCaptureEvents = 100000;
// How long a round waits for the site to deliver everything it owes.
constexpr double kQuiesceDeadlineS = 60;

bool WaitUntil(const std::function<bool()>& done, double deadline_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(deadline_s * 1e9);
  while (!done()) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Open-loop pacing in 1 ms ticks: returns once an op due at `due` may be
// issued. A generator that is behind issues at once; otherwise it sleeps
// to the first tick boundary (counted from `t0`) at or after `due`, so ops
// go out in small bursts instead of one wake-up each, and each is up to a
// tick late — lateness its latency samples include, timed from `due`.
void AwaitDue(int64_t t0, int64_t due) {
  constexpr int64_t kTickNs = 1'000'000;
  const int64_t now = NowNs();
  if (now >= due) return;
  const int64_t wake = t0 + (due - t0 + kTickNs - 1) / kTickNs * kTickNs;
  std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
}

// Times one file-system mutation (a span in traced rounds) and requires it
// to succeed: the oracle predicted its record.
void FsOp(LiveTrace* trace, const std::string& what, const std::function<sdci::Status()>& op) {
  const int64_t start = trace != nullptr ? NowNs() : 0;
  const sdci::Status status = op();
  if (trace != nullptr) trace->spans.Record("lustre.fs_op", start, NowNs());
  Require(status.ok(), what + ": " + status.ToString());
}

std::vector<Dir> MakeDirs(lustre::FileSystem& fs, Oracle& oracle, const std::string& top,
                          size_t count) {
  const Dir base = MakeDir(fs, oracle, RootDir(), top);
  std::vector<Dir> dirs;
  char name[16];
  for (size_t i = 0; i < count; ++i) {
    std::snprintf(name, sizeof(name), "d%02zu", i);
    dirs.push_back(MakeDir(fs, oracle, base, name));
  }
  return dirs;
}

// The directory of each of `files` files: every directory gets the same
// number, in seeded order. Equal directories put equal record counts on
// each MDT and shard, so how long a backlog takes does not depend on how
// unevenly a seed happened to spread it.
std::vector<size_t> BalancedPlacement(size_t files, size_t dirs, std::mt19937_64& rng) {
  Require(files % dirs == 0, "files must divide evenly over directories");
  std::vector<size_t> placement(files);
  for (size_t k = 0; k < files; ++k) placement[k] = k % dirs;
  std::shuffle(placement.begin(), placement.end(), rng);
  return placement;
}

// Creates a file and gives it data: a CREAT and an MTIME record.
void CreateAndWrite(lustre::FileSystem& fs, Oracle& oracle, const Dir& dir,
                    const std::string& leaf, uint64_t size, int64_t due, LiveTrace* trace) {
  const std::string path = JoinPath(dir.path, leaf);
  oracle.Expect(dir.mdt, ChangeLogType::kCreate, path, due);
  FsOp(trace, "create " + path, [&] { return fs.Create(path).status(); });
  oracle.Expect(dir.mdt, ChangeLogType::kMtime, path, due);
  FsOp(trace, "write " + path, [&] { return fs.WriteFile(path, size); });
}

// Live per-layer readings and idle-site probes, taken after the site has
// quiesced and before it is torn down.
void ObserveQuiescedSite(Site& site, Consumer& consumer, GaugeSampler& sampler,
                         uint64_t seed, LiveTrace& trace) {
  sampler.Stop();
  for (const char* name :
       {"sdci_collector_resolver_pool_depth", "sdci_collector_reorder_occupancy",
        "sdci_msgq_sub_queue_depth", "sdci_aggregator_ingest_pool_depth",
        "sdci_aggregator_reorder_occupancy", "sdci_aggregator_store_queue_depth",
        "sdci_aggregator_publish_queue_depth", "sdci_cloud_queue_visible_depth"}) {
    trace.gauge_mean[name] = sampler.Mean(name);
  }
  trace.sub_dropped = sampler.Last("sdci_msgq_sub_dropped");
  trace.max_threads = sampler.max_threads();

  // The deployed site with no traffic: what its idle back-offs burn.
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t wall0 = NowNs();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  trace.idle_cpu_cores =
      static_cast<double>(ProcessCpuNs() - cpu0) / static_cast<double>(NowNs() - wall0);

  for (const auto& collector : site.collectors) {
    const auto stats = collector->Stats();
    trace.collector_processed += stats.processed;
    trace.collector_fid2path_calls += stats.fid2path_calls;
    trace.collector_report_retries += stats.report_retries;
  }
  trace.aggregator = site.fleet->Stats();
  trace.gaps_detected = site.subscriber->gaps_detected();
  trace.events_backfilled = site.subscriber->events_backfilled();
  if (site.agent != nullptr) {
    trace.agent = site.agent->Stats();
    trace.cloud = site.cloud->Stats();
  }

  // History API on an idle store: shard 0 sequence pages, and federated
  // time windows of about kWindowEvents events.
  std::mt19937_64 rng(seed ^ 0x5e7e);
  monitor::HistoryClient client(site.context, site.fleet->api_endpoint(0));
  auto probe = client.Fetch(1, 1);
  Require(probe.ok(), "history probe: " + probe.status().ToString());
  const uint64_t first = std::max<uint64_t>(probe->first_available, 1);
  const uint64_t last = probe->last_seq;
  const auto fetch_ms = [&](size_t max) {
    std::vector<double> ms;
    for (int i = 0; i < 10; ++i) {
      const uint64_t span = last > first + max ? last - first - max : 1;
      const uint64_t from = first + rng() % span;
      const int64_t start = NowNs();
      auto page = client.Fetch(from, max);
      const int64_t end = NowNs();
      Require(page.ok(), "history fetch: " + page.status().ToString());
      trace.spans.Record(max == params::kPageSmall ? "serve.fetch_page64" : "serve.fetch_page1024",
                         start, end);
      ms.push_back(static_cast<double>(end - start) / 1e6);
    }
    return Median(ms);
  };
  trace.fetch_page64_ms = fetch_ms(params::kPageSmall);
  trace.fetch_page1024_ms = fetch_ms(params::kPageLarge);

  std::vector<int64_t> times;
  for (const Delivery& d : consumer.Snapshot()) times.push_back(d.time_ns);
  std::sort(times.begin(), times.end());
  monitor::FleetHistoryClient fleet_client(site.context, site.fleet->api_endpoints());
  std::vector<double> per_event;
  if (times.size() > 2 * params::kWindowEvents) {
    for (int i = 0; i < 10; ++i) {
      // Recent half of the stream: never rotated out of either store.
      const size_t lo = times.size() / 2;
      const size_t a = lo + rng() % (times.size() - lo - params::kWindowEvents);
      const int64_t start = NowNs();
      auto page = fleet_client.FetchTimeRange(sdci::VirtualTime(times[a]),
                                              sdci::VirtualTime(times[a + params::kWindowEvents]),
                                              4 * params::kWindowEvents);
      const int64_t end = NowNs();
      Require(page.ok(), "federated fetch: " + page.status().ToString());
      trace.spans.Record("federation.time_range", start, end);
      if (!page->events.empty()) {
        per_event.push_back(static_cast<double>(end - start) /
                            static_cast<double>(page->events.size()));
      }
    }
  }
  trace.time_range_ns_per_event = Median(per_event);
}

// Shared tail of every round: traced observation, teardown, delivery check
// and delivery latencies of the timed records. Returns the delivery log.
std::vector<Delivery> FinishRound(Site& site, Consumer& consumer, const Oracle& oracle,
                                  GaugeSampler* sampler, uint64_t seed, LiveTrace* trace,
                                  RoundResult& result) {
  if (trace != nullptr) ObserveQuiescedSite(site, consumer, *sampler, seed, *trace);
  consumer.Stop();
  site.Stop();
  const std::vector<Delivery> log = consumer.TakeLog();
  if (trace != nullptr) trace->captured = consumer.TakeCaptured();
  result.deliveries = CheckDeliveries(oracle, log, kShards);
  for (const Delivery& d : log) {
    const ExpectedRecord* expected = oracle.Find(d.mdt, d.record_index);
    if (expected != nullptr && expected->due_ns != kUntimed) {
      result.deliver_ms.push_back(static_cast<double>(d.recv_ns - expected->due_ns) / 1e6);
    }
  }
  return log;
}

uint64_t TimedRecords(const Oracle& oracle) {
  uint64_t n = 0;
  for (size_t m = 0; m < oracle.mdts(); ++m) {
    for (uint64_t i = 1; i <= oracle.Count(m); ++i) {
      if (oracle.Find(static_cast<int>(m), i)->due_ns != kUntimed) ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------------- drain

RoundResult RunDrain(uint64_t seed, int64_t round_start, LiveTrace* trace) {
  RoundResult result;
  Site site(/*with_ripple=*/false, std::make_shared<sdci::MetricsRegistry>());
  Oracle oracle(kMdts);
  Consumer consumer(*site.subscriber, trace != nullptr ? kCaptureEvents : 0);
  consumer.Start();
  const std::vector<Dir> dirs = MakeDirs(site.fs, oracle, "drain", params::kDrainDirs);
  std::mt19937_64 rng(seed);
  const std::vector<size_t> placement = BalancedPlacement(params::kDrainFiles, dirs.size(), rng);
  char leaf[32];
  for (size_t k = 0; k < params::kDrainFiles; ++k) {
    std::snprintf(leaf, sizeof(leaf), "f%07zu.dat", k);
    CreateAndWrite(site.fs, oracle, dirs[placement[k]], leaf, 4096 + rng() % 65536, kUntimed,
                   trace);
  }
  RequireJournalMatches(site.fs, oracle);

  GaugeSampler sampler(site.registry);
  const int64_t t0 = NowNs();
  result.setup_s = static_cast<double>(t0 - round_start) / 1e9;
  oracle.SetDueForUntimed(t0);  // the whole backlog is due when the drain starts
  const int64_t cpu0 = ProcessCpuNs();
  if (trace != nullptr) sampler.Start();
  site.StartCollectors();
  const uint64_t total = oracle.Total();
  WaitUntil([&] { return consumer.count() >= total; }, kQuiesceDeadlineS);
  const int64_t cpu1 = ProcessCpuNs();
  result.timed_events = total;
  result.events_per_s =
      static_cast<double>(total) / (static_cast<double>(consumer.last_recv_ns() - t0) / 1e9);
  result.cpu_ns_per_event = static_cast<double>(cpu1 - cpu0) / static_cast<double>(total);
  FinishRound(site, consumer, oracle, &sampler, seed, trace, result);
  return result;
}

// ---------------------------------------------------------------- stream

struct StreamFile {
  uint32_t dir = 0;
  int home_mdt = 0;  // the MDT holding the inode (MTIME journals there)
  std::string leaf;
  int64_t last_touch = 0;  // op index
  bool h5 = false;
};

// The stream workload's op generator: seeded, deterministic in the op
// index, and predicting every record before it mutates.
class StreamGenerator {
 public:
  StreamGenerator(lustre::FileSystem& fs, Oracle& oracle, std::vector<Dir> dirs,
                  uint64_t seed, LiveTrace* trace)
      : fs_(&fs), oracle_(&oracle), dirs_(std::move(dirs)), rng_(seed), trace_(trace) {}

  void Stage(size_t files) {
    for (size_t i = 0; i < files; ++i) {
      Create(-static_cast<int64_t>(params::kStreamQuarantineOps), kUntimed);
    }
  }

  void Op(int64_t op, int64_t due) {
    const uint32_t roll = static_cast<uint32_t>(rng_() % 100);
    const bool ready =
        !fifo_.empty() &&
        files_[fifo_.front()].last_touch + static_cast<int64_t>(params::kStreamQuarantineOps) <= op;
    if (roll < 40 || !ready) {
      Create(op, due);
    } else if (roll < 70) {
      Write(op, due);
    } else if (roll < 85) {
      Rename(op, due);
    } else {
      Unlink(due);
    }
  }

 private:
  std::string Leaf(bool h5) {
    return "f" + std::to_string(next_id_++) + (h5 ? ".h5" : ".dat");
  }
  std::string PathOf(const StreamFile& f) const { return JoinPath(dirs_[f.dir].path, f.leaf); }

  void Create(int64_t op, int64_t due) {
    StreamFile f;
    f.dir = static_cast<uint32_t>(rng_() % dirs_.size());
    f.h5 = rng_() % params::kStreamH5OneIn == 0;
    f.leaf = Leaf(f.h5);
    f.home_mdt = dirs_[f.dir].mdt;  // files live on their parent's MDT
    f.last_touch = op;
    const std::string path = PathOf(f);
    oracle_->Expect(dirs_[f.dir].mdt, ChangeLogType::kCreate, path, due);
    FsOp(trace_, "create " + path, [&] { return fs_->Create(path).status(); });
    files_.push_back(std::move(f));
    fifo_.push_back(static_cast<uint32_t>(files_.size() - 1));
  }

  void Write(int64_t op, int64_t due) {
    const uint32_t id = fifo_.front();
    fifo_.pop_front();
    StreamFile& f = files_[id];
    const std::string path = PathOf(f);
    oracle_->Expect(f.home_mdt, ChangeLogType::kMtime, path, due);
    const uint64_t size = 4096 + rng_() % 65536;
    FsOp(trace_, "write " + path, [&] { return fs_->WriteFile(path, size); });
    f.last_touch = op;
    fifo_.push_back(id);
  }

  void Rename(int64_t op, int64_t due) {
    const uint32_t id = fifo_.front();
    fifo_.pop_front();
    StreamFile& f = files_[id];
    const std::string from = PathOf(f);
    const auto to_dir = static_cast<uint32_t>(rng_() % dirs_.size());
    const std::string leaf = Leaf(f.h5);
    const std::string to = JoinPath(dirs_[to_dir].path, leaf);
    const int src_mdt = dirs_[f.dir].mdt;
    const int dst_mdt = dirs_[to_dir].mdt;
    oracle_->Expect(src_mdt, ChangeLogType::kRename, to, due);
    if (dst_mdt != src_mdt) oracle_->Expect(dst_mdt, ChangeLogType::kRenameTo, to, due);
    FsOp(trace_, "rename " + from, [&] { return fs_->Rename(from, to); });
    f.dir = to_dir;
    f.leaf = leaf;
    f.last_touch = op;
    fifo_.push_back(id);
  }

  void Unlink(int64_t due) {
    const uint32_t id = fifo_.front();
    fifo_.pop_front();
    const std::string path = PathOf(files_[id]);
    oracle_->Expect(dirs_[files_[id].dir].mdt, ChangeLogType::kUnlink, path, due);
    FsOp(trace_, "unlink " + path, [&] { return fs_->Unlink(path); });
  }

  lustre::FileSystem* fs_;
  Oracle* oracle_;
  std::vector<Dir> dirs_;
  std::mt19937_64 rng_;
  LiveTrace* trace_;
  std::vector<StreamFile> files_;
  std::deque<uint32_t> fifo_;  // live files, least recently touched first
  uint64_t next_id_ = 0;
};

RoundResult RunStream(uint64_t seed, double timed_s, int64_t round_start, LiveTrace* trace) {
  RoundResult result;
  Site site(/*with_ripple=*/true, std::make_shared<sdci::MetricsRegistry>());
  Oracle oracle(kMdts);
  Consumer consumer(*site.subscriber, trace != nullptr ? kCaptureEvents : 0);
  consumer.Start();
  site.StartCollectors();

  // Rules go in first, through the cloud's control plane only, so every
  // event the site ever carries is evaluated against the full rule set.
  const std::vector<ripple::Rule> rules = StreamRules();
  for (const ripple::Rule& rule : rules) {
    const sdci::Status status = site.cloud->RegisterRule(rule);
    Require(status.ok(), "register " + rule.id + ": " + status.ToString());
  }
  const Dir top = MakeDir(site.fs, oracle, RootDir(), "proj");
  std::vector<Dir> dirs;
  for (size_t g = 0; g < params::kStreamGroups; ++g) {
    const Dir group = MakeDir(site.fs, oracle, top, "g" + std::to_string(g));
    for (size_t d = 0; d < params::kStreamDirsPerGroup; ++d) {
      dirs.push_back(MakeDir(site.fs, oracle, group, "d" + std::to_string(d)));
    }
  }
  const std::vector<std::string> watched = StreamDirPaths();
  for (size_t i = 0; i < dirs.size(); ++i) {
    Require(dirs[i].path == watched.at(i), "rules must watch the generated directories");
  }
  StreamGenerator generator(site.fs, oracle, dirs, seed, trace);
  generator.Stage(params::kStreamStagedFiles);
  const size_t setup_actions = ExpectedActions(oracle, rules, 0).size();
  const bool settled = WaitUntil(
      [&] {
        return consumer.count() >= oracle.Total() && site.actions->Count() >= setup_actions;
      },
      kQuiesceDeadlineS);
  Require(settled, "stream set-up did not settle");

  // The open loop: op i is due at tw + i / rate. The ops of the first
  // kWarmupS are checked but untimed (the first mutations after set-up pay
  // one-off costs); the timed phase starts at t0, with the first op after.
  GaugeSampler sampler(site.registry);
  const auto period_ns = static_cast<int64_t>(1e9 / params::kStreamRate);
  const auto warm_ops = static_cast<int64_t>(params::kWarmupS * params::kStreamRate);
  const auto ops = warm_ops + static_cast<int64_t>(timed_s * params::kStreamRate);
  const int64_t tw = NowNs();
  const int64_t t0 = tw + warm_ops * period_ns;
  result.setup_s = static_cast<double>(t0 - round_start) / 1e9;

  // Rule churn beside the probes: once a second, register then remove one
  // rule that never matches, timing each control-plane call.
  std::jthread churn([&](const std::stop_token& stop) {
    uint64_t k = 0;
    while (true) {
      const int64_t next = t0 + static_cast<int64_t>((static_cast<double>(k) + 1) *
                                                     params::kChurnPeriodS * 1e9);
      while (!stop.stop_requested() && NowNs() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (stop.stop_requested()) return;
      const ripple::Rule rule = ChurnRule(k++);
      for (int step = 0; step < 2; ++step) {
        const int64_t start = NowNs();
        const sdci::Status status =
            step == 0 ? site.cloud->RegisterRule(rule) : site.cloud->RemoveRule(rule.id);
        const int64_t end = NowNs();
        if (trace != nullptr) trace->spans.Record("rules.update", start, end);
        result.rule_update_ms.push_back(static_cast<double>(end - start) / 1e6);
        ++result.rule_updates;
        if (!status.ok()) ++result.rule_update_failures;
      }
    }
  });

  int64_t cpu0 = 0;
  int64_t gen_cpu0 = 0;
  for (int64_t op = 0; op < ops; ++op) {
    const int64_t due = tw + op * period_ns;
    AwaitDue(tw, due);
    if (op < warm_ops) {
      generator.Op(op, kUntimed);
      continue;
    }
    if (op == warm_ops) {
      cpu0 = ProcessCpuNs();
      gen_cpu0 = ThreadCpuNs();
      if (trace != nullptr) sampler.Start();
    }
    result.gen_late_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
    generator.Op(op, due);
  }
  const int64_t gen_cpu = ThreadCpuNs() - gen_cpu0;
  churn.request_stop();
  churn.join();

  const std::vector<ActionKey> expected_actions = ExpectedActions(oracle, rules);
  WaitUntil(
      [&] {
        return consumer.count() >= oracle.Total() &&
               site.actions->Count() >= expected_actions.size();
      },
      kQuiesceDeadlineS);
  const int64_t cpu1 = ProcessCpuNs();
  // Late duplicates still get a chance to show before the count is taken.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  result.timed_events = TimedRecords(oracle);
  result.events_per_s = static_cast<double>(result.timed_events) /
                        (static_cast<double>(consumer.last_recv_ns() - t0) / 1e9);
  result.cpu_ns_per_event =
      static_cast<double>(cpu1 - cpu0 - gen_cpu) / static_cast<double>(result.timed_events);

  FinishRound(site, consumer, oracle, &sampler, seed, trace, result);
  const std::vector<ExecutedAction> executed = site.actions->Take();
  result.actions = CheckActions(expected_actions, executed);
  for (const ExecutedAction& action : executed) {
    const ExpectedRecord* record = oracle.Find(action.key.mdt, action.key.record_index);
    if (record != nullptr && record->due_ns != kUntimed) {
      result.action_ms.push_back(static_cast<double>(action.done_ns - record->due_ns) / 1e6);
    }
  }
  return result;
}

// ---------------------------------------------------------------- history

PageEvent Compact(const monitor::FsEvent& e) {
  return PageEvent{e.hlc.origin, e.global_seq, e.mdt_index, e.record_index, e.time.count()};
}

// The closed-loop query client: one thread, one request at a time. Every
// page is checked; only queries started at or after `t0` are timed.
void QueryLoop(Site& site, const Consumer& consumer, const std::vector<Delivery>& prefill,
               uint64_t seed, int64_t t0, const std::stop_token& stop,
               std::vector<Page>& pages, RoundResult& result, LiveTrace* trace) {
  monitor::FleetHistoryClient client(site.context, site.fleet->api_endpoints());
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<uint64_t> prefill_last(kShards, 0);
  std::vector<int64_t> times;
  for (const Delivery& d : prefill) {
    prefill_last[d.shard] = std::max(prefill_last[d.shard], d.global_seq);
    times.push_back(d.time_ns);
  }
  std::sort(times.begin(), times.end());
  while (!stop.stop_requested()) {
    Page page;
    const uint32_t roll = static_cast<uint32_t>(rng() % 100);
    const auto shard = static_cast<uint32_t>(rng() % kShards);
    const char* span = nullptr;
    const int64_t start = NowNs();
    if (roll < params::kMixLargePct + params::kMixSmallPct) {
      page.kind = Page::Kind::kShardSeq;
      page.shard = shard;
      if (roll < params::kMixLargePct) {
        // Anywhere in the newer three quarters of the prefill: still retained.
        const uint64_t lo = prefill_last[shard] / 4;
        page.from_seq = lo + rng() % (prefill_last[shard] - lo - params::kPageLarge);
        page.max = params::kPageLarge;
        span = "serve.fetch_page1024";
      } else {
        // Near the head, a little behind what the consumer has already seen.
        const uint64_t head = consumer.head(shard);
        page.from_seq = head > 320 ? head - 320 : 1;
        page.max = params::kPageSmall;
        span = "serve.fetch_page64";
      }
      auto got = client.FetchShard(shard, page.from_seq, page.max, std::chrono::seconds(2));
      page.ok = got.ok();
      if (got.ok()) {
        for (const auto& e : got->events) page.events.push_back(Compact(e));
      }
    } else {
      page.kind = Page::Kind::kTimeRange;
      const size_t lo = times.size() / 4;
      const size_t a = lo + rng() % (times.size() - lo - params::kWindowEvents);
      page.from_time = times[a];
      page.to_time = times[a + params::kWindowEvents];
      span = "federation.time_range";
      auto got = client.FetchTimeRange(sdci::VirtualTime(page.from_time),
                                       sdci::VirtualTime(page.to_time),
                                       4 * params::kWindowEvents, std::chrono::seconds(2));
      page.ok = got.ok();
      if (got.ok()) {
        page.partial = got->partial;
        page.hlc_sorted = std::is_sorted(
            got->events.begin(), got->events.end(),
            [](const monitor::FsEvent& x, const monitor::FsEvent& y) { return x.hlc < y.hlc; });
        for (const auto& e : got->events) page.events.push_back(Compact(e));
      }
    }
    const int64_t end = NowNs();
    if (start >= t0) {
      if (trace != nullptr) trace->spans.Record(span, start, end);
      result.query_ms.push_back(static_cast<double>(end - start) / 1e6);
      result.query_events += page.events.size();
    }
    pages.push_back(std::move(page));
  }
  result.query_wall_s = static_cast<double>(NowNs() - t0) / 1e9;
}

RoundResult RunHistory(uint64_t seed, double timed_s, int64_t round_start, LiveTrace* trace) {
  RoundResult result;
  Site site(/*with_ripple=*/false, std::make_shared<sdci::MetricsRegistry>());
  Oracle oracle(kMdts);
  Consumer consumer(*site.subscriber, trace != nullptr ? kCaptureEvents : 0);
  consumer.Start();
  const std::vector<Dir> dirs = MakeDirs(site.fs, oracle, "hist", params::kHistoryDirs);
  std::mt19937_64 rng(seed);
  uint64_t next_file = 0;
  const auto leaf_of = [](uint64_t k) { return "h" + std::to_string(k) + ".dat"; };
  // Fill the catalog to capacity: stage, then let the collectors drain it.
  const std::vector<size_t> placement =
      BalancedPlacement(params::kHistoryPrefillFiles, dirs.size(), rng);
  for (size_t k = 0; k < params::kHistoryPrefillFiles; ++k) {
    CreateAndWrite(site.fs, oracle, dirs[placement[k]], leaf_of(next_file++),
                   4096 + rng() % 65536, kUntimed, trace);
  }
  RequireJournalMatches(site.fs, oracle);
  site.StartCollectors();
  Require(WaitUntil([&] { return consumer.count() >= oracle.Total(); }, kQuiesceDeadlineS),
          "history prefill did not drain");
  const std::vector<Delivery> prefill = consumer.Snapshot();

  // The paced writer: op i is due at tw + i / rate; even ops create a
  // file, odd ops write it. Writer and query client warm up for kWarmupS
  // (checked, untimed), then the timed phase starts at t0.
  GaugeSampler sampler(site.registry);
  const auto period_ns = static_cast<int64_t>(1e9 / params::kHistoryRate);
  const auto warm_ops = static_cast<int64_t>(params::kWarmupS * params::kHistoryRate) / 2 * 2;
  const auto ops = warm_ops + static_cast<int64_t>(timed_s * params::kHistoryRate) / 2 * 2;
  const int64_t tw = NowNs();
  const int64_t t0 = tw + warm_ops * period_ns;
  result.setup_s = static_cast<double>(t0 - round_start) / 1e9;
  std::vector<Page> pages;
  std::jthread queries([&](const std::stop_token& stop) {
    QueryLoop(site, consumer, prefill, seed, t0, stop, pages, result, trace);
  });
  int64_t cpu0 = 0;
  int64_t gen_cpu0 = 0;
  Dir dir;
  std::string path;
  for (int64_t op = 0; op < ops; ++op) {
    const int64_t scheduled = tw + op * period_ns;
    AwaitDue(tw, scheduled);
    const int64_t due = op < warm_ops ? kUntimed : scheduled;
    if (op == warm_ops) {
      cpu0 = ProcessCpuNs();
      gen_cpu0 = ThreadCpuNs();
      if (trace != nullptr) sampler.Start();
    }
    if (due != kUntimed) result.gen_late_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
    if (op % 2 == 0) {
      dir = dirs[rng() % dirs.size()];
      path = JoinPath(dir.path, leaf_of(next_file++));
      oracle.Expect(dir.mdt, ChangeLogType::kCreate, path, due);
      FsOp(trace, "create " + path, [&] { return site.fs.Create(path).status(); });
    } else {
      oracle.Expect(dir.mdt, ChangeLogType::kMtime, path, due);
      const uint64_t size = 4096 + rng() % 65536;
      FsOp(trace, "write " + path, [&] { return site.fs.WriteFile(path, size); });
    }
  }
  const int64_t gen_cpu = ThreadCpuNs() - gen_cpu0;
  queries.request_stop();
  queries.join();
  WaitUntil([&] { return consumer.count() >= oracle.Total(); }, kQuiesceDeadlineS);
  const int64_t cpu1 = ProcessCpuNs();
  result.timed_events = TimedRecords(oracle);
  result.events_per_s = static_cast<double>(result.timed_events) /
                        (static_cast<double>(consumer.last_recv_ns() - t0) / 1e9);
  result.cpu_ns_per_event =
      static_cast<double>(cpu1 - cpu0 - gen_cpu) / static_cast<double>(result.timed_events);
  // Pages are checked against the consumer's complete log.
  result.pages = CheckPages(pages, FinishRound(site, consumer, oracle, &sampler, seed, trace,
                                               result));
  return result;
}

}  // namespace

sdci::json::Value ParamsJson(Workload workload) {
  using sdci::json::Object;
  using sdci::json::Value;
  Object p;
  p["mdts"] = Value(static_cast<uint64_t>(kMdts));
  p["shards"] = Value(static_cast<uint64_t>(kShards));
  p["profile"] = Value("zeroed, dilation 1");
  switch (workload) {
    case Workload::kDrain:
      p["dirs"] = Value(static_cast<uint64_t>(params::kDrainDirs));
      p["files_per_round"] = Value(static_cast<uint64_t>(params::kDrainFiles));
      p["records_per_round"] = Value(static_cast<uint64_t>(2 * params::kDrainFiles));
      break;
    case Workload::kStream:
      p["rate_ops_per_s"] = Value(params::kStreamRate);
      p["dirs"] = Value(static_cast<uint64_t>(params::kStreamGroups * params::kStreamDirsPerGroup));
      p["rules"] = Value(static_cast<uint64_t>(params::kStreamRules));
      p["tenants"] = Value(static_cast<uint64_t>(params::kStreamTenants));
      p["staged_files"] = Value(static_cast<uint64_t>(params::kStreamStagedFiles));
      p["quarantine_ops"] = Value(params::kStreamQuarantineOps);
      p["h5_one_in"] = Value(static_cast<uint64_t>(params::kStreamH5OneIn));
      p["op_mix_pct"] = Value("create 40, write 30, rename 15, unlink 15");
      p["churn_period_s"] = Value(params::kChurnPeriodS);
      break;
    case Workload::kHistory:
      p["dirs"] = Value(static_cast<uint64_t>(params::kHistoryDirs));
      p["store_capacity_per_shard"] = Value(static_cast<uint64_t>(params::kStoreCapacity));
      p["prefill_records"] = Value(static_cast<uint64_t>(2 * params::kHistoryPrefillFiles));
      p["writer_ops_per_s"] = Value(params::kHistoryRate);
      p["query_mix_pct"] = Value("page1024 10, page64 80, time window 10");
      p["window_events"] = Value(static_cast<uint64_t>(params::kWindowEvents));
      break;
  }
  return Value(std::move(p));
}

std::vector<std::string> StreamDirPaths() {
  std::vector<std::string> paths;
  for (size_t g = 0; g < params::kStreamGroups; ++g) {
    for (size_t d = 0; d < params::kStreamDirsPerGroup; ++d) {
      paths.push_back("/proj/g" + std::to_string(g) + "/d" + std::to_string(d));
    }
  }
  return paths;
}

std::vector<ripple::Rule> StreamRules() {
  static constexpr uint32_t kKinds[] = {ripple::kCreated, ripple::kModified, ripple::kRenamed,
                                        ripple::kDeleted};
  const std::vector<std::string> dirs = StreamDirPaths();
  std::vector<ripple::Rule> rules;
  char id[32];
  for (size_t i = 0; i < params::kStreamRules; ++i) {
    ripple::Rule rule;
    std::snprintf(id, sizeof(id), "rule-%04zu", i);
    rule.id = id;
    rule.trigger.event_mask = kKinds[(i / dirs.size()) % 4];
    rule.trigger.path_glob = sdci::Glob(dirs[i % dirs.size()] + "/*.h5");
    rule.action.type = ripple::ActionType::kLocalCommand;
    rule.action.agent = "site";
    rule.action.params = sdci::json::Value(sdci::json::Object{{"command", "record {path}"}});
    rule.watch_agent = "site";
    rule.tenant = "tenant-" + std::to_string(i % params::kStreamTenants);
    rules.push_back(std::move(rule));
  }
  return rules;
}

ripple::Rule ChurnRule(uint64_t k) {
  ripple::Rule rule;
  rule.id = "churn-" + std::to_string(k);
  rule.trigger.event_mask = ripple::kCreated;
  rule.trigger.path_glob = sdci::Glob("/never/*.h5");
  rule.action.type = ripple::ActionType::kLocalCommand;
  rule.action.agent = "site";
  rule.action.params = sdci::json::Value(sdci::json::Object{{"command", "record {path}"}});
  rule.watch_agent = "site";
  rule.tenant = "tenant-0";
  return rule;
}

RoundResult RunRound(Workload workload, uint64_t seed, double timed_s, int64_t round_start_ns,
                     LiveTrace* trace) {
  switch (workload) {
    case Workload::kDrain:
      return RunDrain(seed, round_start_ns, trace);
    case Workload::kStream:
      return RunStream(seed, timed_s, round_start_ns, trace);
    case Workload::kHistory:
      return RunHistory(seed, timed_s, round_start_ns, trace);
  }
  Fatal("unknown workload");
}

}  // namespace perfbench
