#include "site.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "lustre/fid.h"
#include "monitor/wire_v4.h"
#include "stats.h"

namespace perfbench {

namespace lustre = sdci::lustre;
namespace monitor = sdci::monitor;
namespace ripple = sdci::ripple;

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

lustre::TestbedProfile ZeroProfile() {
  lustre::TestbedProfile profile;  // every latency defaults to zero
  profile.name = "perfbench-zero";
  profile.mds_count = kMdts;
  profile.ost_count = kMdts;
  profile.ost_capacity_bytes = 1ull << 50;
  profile.op.jitter_frac = 0.0;
  return profile;
}

sdci::Result<ripple::ActionOutcome> ActionRecorder::Execute(
    const ripple::ActionContext& context, const ripple::ActionRequest& request) {
  const int64_t now = NowNs();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    done_.push_back(ExecutedAction{
        ActionKey{request.rule_id, request.event.mdt_index, request.event.record_index}, now});
  }
  ripple::ActionOutcome outcome;
  outcome.success = true;
  outcome.completed_at = context.authority != nullptr ? context.authority->Now()
                                                      : sdci::VirtualTime{};
  return outcome;
}

size_t ActionRecorder::Count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return done_.size();
}

std::vector<ExecutedAction> ActionRecorder::Take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::move(done_);
}

namespace {

lustre::FileSystemConfig SiteFsConfig(const lustre::TestbedProfile& profile) {
  auto config = lustre::FileSystemConfig::FromProfile(profile);
  config.dir_placement = lustre::DirPlacement::kRoundRobin;
  return config;
}

monitor::RecoveringSubscriberConfig SubscriberConfig(
    const std::string& name, const std::shared_ptr<sdci::MetricsRegistry>& registry) {
  monitor::RecoveringSubscriberConfig config;
  config.start_seq = 1;  // accountable for every event
  config.policy = sdci::msgq::HwmPolicy::kBlock;
  config.name = name;
  config.metrics = registry;
  return config;
}

}  // namespace

Site::Site(bool with_ripple, std::shared_ptr<sdci::MetricsRegistry> metrics)
    : registry(std::move(metrics)), fs(SiteFsConfig(profile), authority) {
  context.AttachMetrics(registry);
  monitor::AggregatorFleetConfig fleet_config;
  fleet_config.shards = kShards;
  fleet_config.shard.metrics = registry;
  fleet = std::make_unique<monitor::AggregatorFleet>(profile, authority, context,
                                                     std::move(fleet_config));
  fleet->Start();
  for (size_t mdt = 0; mdt < kMdts; ++mdt) {
    monitor::CollectorConfig config;
    config.collect_endpoint = monitor::AggregatorFleet::ShardEndpoint(
        config.collect_endpoint, fleet->ShardForMdt(static_cast<uint32_t>(mdt)),
        fleet->shards());
    config.metrics = registry;
    collectors.push_back(std::make_unique<monitor::Collector>(
        fs, static_cast<int>(mdt), profile, authority, context, std::move(config)));
  }
  subscriber = std::make_unique<monitor::FleetSubscriber>(
      context, fleet->publish_endpoints(), fleet->api_endpoints(),
      SubscriberConfig("verify", registry));
  if (!with_ripple) return;

  ripple::CloudConfig cloud_config;
  cloud_config.metrics = registry;
  cloud = std::make_unique<ripple::CloudService>(authority, std::move(cloud_config));
  cloud->Start();
  endpoints.Register("site", fs);
  ripple::AgentConfig agent_config;
  agent_config.name = "site";
  agent_config.metrics = registry;
  agent = std::make_unique<ripple::Agent>(std::move(agent_config), fs, *cloud, endpoints,
                                          authority);
  auto recorder = std::make_unique<ActionRecorder>();
  actions = recorder.get();
  agent->RegisterExecutor(ripple::ActionType::kLocalCommand, std::move(recorder));
  agent->AttachSource(std::make_unique<monitor::FleetSubscriber>(
      context, fleet->publish_endpoints(), fleet->api_endpoints(),
      SubscriberConfig("agent", registry)));
  agent->Start();
}

Site::~Site() { Stop(); }

void Site::StartCollectors() {
  for (auto& collector : collectors) collector->Start();
}

void Site::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (agent != nullptr) agent->Stop();
  for (auto& collector : collectors) collector->Stop();
  fleet->Stop();
  if (cloud != nullptr) cloud->Stop();
}

Consumer::Consumer(monitor::FleetSubscriber& subscriber, size_t capture_events)
    : subscriber_(&subscriber), capture_events_(capture_events) {}

Consumer::~Consumer() { Stop(); }

void Consumer::Start() {
  thread_ = std::jthread([this](const std::stop_token& stop) { Run(stop); });
}

void Consumer::Stop() {
  if (!thread_.joinable()) return;
  thread_.request_stop();
  subscriber_->Close();
  thread_.join();
}

void Consumer::Run(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    auto batch = subscriber_->NextBatchFor(std::chrono::milliseconds(5));
    if (!batch.ok()) {
      if (batch.status().code() == sdci::StatusCode::kClosed) break;
      continue;
    }
    Append(*batch, NowNs());
  }
}

void Consumer::Append(const monitor::EventBatch& batch, int64_t now) {
  const auto fill = [now](Delivery& d, int mdt, uint32_t shard, uint64_t index,
                          uint64_t seq, int64_t time, std::string_view path,
                          lustre::ChangeLogType type) {
    d.mdt = mdt;
    d.shard = shard;
    d.record_index = index;
    d.global_seq = seq;
    d.time_ns = time;
    d.recv_ns = now;
    d.path_hash = PathHash(path);
    d.type = static_cast<uint8_t>(type);
  };
  std::vector<Delivery> rows(batch.size());
  bool bound = false;
  if (const auto payload = batch.FlatPayloadV4(); payload != nullptr) {
    const auto view = monitor::wire::EventBatchView::Bind(*payload);
    if (view.ok() && view->size() == rows.size()) {
      for (size_t i = 0; i < rows.size(); ++i) {
        const monitor::wire::EventView e = (*view)[i];
        fill(rows[i], e.mdt_index(), e.hlc().origin, e.record_index(), e.global_seq(),
             e.time().count(), e.path(), e.type());
      }
      bound = true;
    }
  }
  if (!bound) {
    const auto& events = batch.events();
    rows.resize(events.size());
    for (size_t i = 0; i < events.size(); ++i) {
      const monitor::FsEvent& e = events[i];
      fill(rows[i], e.mdt_index, e.hlc.origin, e.record_index, e.global_seq,
           e.time.count(), e.path, e.type);
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Delivery& d : rows) {
    if (d.shard < kShards && d.global_seq > head_[d.shard].load(std::memory_order_relaxed)) {
      head_[d.shard].store(d.global_seq, std::memory_order_release);
    }
  }
  log_.insert(log_.end(), rows.begin(), rows.end());
  if (captured_events_ < capture_events_) {
    captured_.push_back(batch);
    captured_events_ += batch.size();
  }
  last_recv_ns_.store(now, std::memory_order_release);
  count_.store(log_.size(), std::memory_order_release);
}

std::vector<Delivery> Consumer::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return log_;
}

std::vector<Delivery> Consumer::TakeLog() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::move(log_);
}

std::vector<monitor::EventBatch> Consumer::TakeCaptured() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::move(captured_);
}

GaugeSampler::GaugeSampler(std::shared_ptr<sdci::MetricsRegistry> registry)
    : registry_(std::move(registry)) {}

GaugeSampler::~GaugeSampler() { Stop(); }

void GaugeSampler::Start() {
  thread_ = std::jthread([this](const std::stop_token& stop) { Run(stop); });
}

void GaugeSampler::Stop() {
  if (!thread_.joinable()) return;
  thread_.request_stop();
  thread_.join();
}

void GaugeSampler::Run(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    const sdci::json::Value doc = registry_->ToJson();
    const int threads = ThreadCount();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& [name, rows] : doc["gauges"].AsObject()) {
        double total = 0;
        for (const auto& row : rows.AsArray()) total += row.GetNumber("value");
        Series& series = series_[name];
        series.sum += total;
        series.last = total;
      }
      ++samples_;
      max_threads_ = std::max(max_threads_, threads);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

double GaugeSampler::Mean(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(name);
  if (it == series_.end() || samples_ == 0) return 0;
  return it->second.sum / static_cast<double>(samples_);
}

double GaugeSampler::Last(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(name);
  return it == series_.end() ? 0 : it->second.last;
}

void SpanLog::Record(std::string name, int64_t start_ns, int64_t end_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& total = totals_[name];
  ++total.first;
  total.second += end_ns - start_ns;
  if (kept_.size() < kMaxKept) kept_.push_back(Span{std::move(name), start_ns, end_ns});
}

double SpanLog::MeanNs(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = totals_.find(name);
  if (it == totals_.end() || it->second.first == 0) return 0;
  return static_cast<double>(it->second.second) / static_cast<double>(it->second.first);
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : kept_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

std::string JoinPath(const std::string& dir, const std::string& leaf) {
  return dir == "/" ? "/" + leaf : dir + "/" + leaf;
}

Dir MakeDir(lustre::FileSystem& fs, Oracle& oracle, const Dir& parent,
            const std::string& leaf) {
  Dir dir{JoinPath(parent.path, leaf), 0};
  oracle.Expect(parent.mdt, lustre::ChangeLogType::kMkdir, dir.path, kUntimed);
  auto fid = fs.Mkdir(dir.path);
  Require(fid.ok(), "mkdir " + dir.path + ": " + fid.status().ToString());
  dir.mdt = lustre::MdtIndexOfFid(*fid);
  return dir;
}

void RequireJournalMatches(const lustre::FileSystem& fs, const Oracle& oracle) {
  for (size_t mdt = 0; mdt < kMdts; ++mdt) {
    const uint64_t journaled = fs.Mds(mdt).changelog().LastIndex();
    Require(journaled == oracle.Count(mdt),
            "MDT " + std::to_string(mdt) + " journaled " + std::to_string(journaled) +
                " records, the generator predicted " + std::to_string(oracle.Count(mdt)));
  }
}

}  // namespace perfbench
