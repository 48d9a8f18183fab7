#include "monitor/centralized.h"

namespace sdci::monitor {

CentralizedCollector::CentralizedCollector(lustre::FileSystem& fs,
                                           const lustre::TestbedProfile& profile,
                                           const TimeAuthority& authority,
                                           CentralizedConfig config)
    : fs_(&fs),
      profile_(profile),
      authority_(&authority),
      config_(config),
      fid2path_(fs, profile),
      budget_(authority),
      store_(config.store_capacity) {
  next_index_.resize(fs.MdsCount(), 1);
  consumer_ids_.reserve(fs.MdsCount());
  for (size_t i = 0; i < fs.MdsCount(); ++i) {
    consumer_ids_.push_back(fs.Mds(i).changelog().RegisterConsumer());
    const uint64_t first = fs.Mds(i).changelog().FirstIndex();
    next_index_[i] = first == 0 ? 1 : first;
  }
}

CentralizedCollector::~CentralizedCollector() {
  Stop();
  for (size_t i = 0; i < consumer_ids_.size(); ++i) {
    (void)fs_->Mds(i).changelog().DeregisterConsumer(consumer_ids_[i]);
  }
}

void CentralizedCollector::Start() {
  if (running_.exchange(true)) return;
  thread_ = std::jthread([this](const std::stop_token& stop) { Run(stop); });
}

void CentralizedCollector::Stop() {
  if (!running_.exchange(false)) return;
  thread_.request_stop();
  if (thread_.joinable()) thread_.join();
}

void CentralizedCollector::Run(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    size_t drained = 0;
    // The defining property of the baseline: MDS are visited one after
    // another by this single thread.
    for (size_t mdt = 0; mdt < fs_->MdsCount(); ++mdt) {
      drained += DrainMds(mdt);
    }
    if (drained == 0) {
      budget_.Flush();
      authority_->IdleFor(config_.poll_interval);
    }
  }
  for (size_t mdt = 0; mdt < fs_->MdsCount(); ++mdt) DrainMds(mdt);
  budget_.Flush();
}

size_t CentralizedCollector::DrainMds(size_t mdt) {
  auto& changelog = fs_->Mds(mdt).changelog();
  std::vector<lustre::ChangeLogRecord> records;
  const size_t n = changelog.ReadFrom(next_index_[mdt], config_.read_batch, records);
  budget_.Charge(profile_.changelog_read_base +
                 profile_.changelog_read_per_record * static_cast<int64_t>(n));
  if (n == 0) return 0;
  extracted_.fetch_add(n, std::memory_order_relaxed);
  next_index_[mdt] = records.back().index + 1;
  std::vector<FsEvent> events;
  events.reserve(records.size());
  for (const auto& record : records) {
    FsEvent event;
    event.mdt_index = static_cast<int>(mdt);
    event.record_index = record.index;
    event.global_seq = next_seq_++;
    event.type = record.type;
    event.time = record.time;
    event.flags = record.flags;
    event.name = record.name;
    event.target_fid = record.target;
    event.parent_fid = record.parent;
    auto parent_path = fid2path_.Resolve(record.parent, budget_);
    if (parent_path.ok()) {
      event.path = *parent_path == "/" ? "/" + record.name
                                       : *parent_path + "/" + record.name;
    }
    events.push_back(std::move(event));
  }
  processed_.fetch_add(events.size(), std::memory_order_relaxed);
  // One store entry per ChangeLog read batch, not one per event.
  store_.Append(EventBatch(std::move(events)));
  if (config_.purge) {
    budget_.Charge(profile_.changelog_clear_latency);
    (void)changelog.Clear(consumer_ids_[mdt], records.back().index);
  }
  return n;
}

size_t CentralizedCollector::DrainOnce() {
  size_t total = 0;
  while (true) {
    size_t drained = 0;
    for (size_t mdt = 0; mdt < fs_->MdsCount(); ++mdt) drained += DrainMds(mdt);
    if (drained == 0) break;
    total += drained;
  }
  budget_.Flush();
  return total;
}

CentralizedStats CentralizedCollector::Stats() const {
  CentralizedStats stats;
  stats.extracted = extracted_.load(std::memory_order_relaxed);
  stats.processed = processed_.load(std::memory_order_relaxed);
  stats.stored = store_.TotalAppended();
  return stats;
}

}  // namespace sdci::monitor
