#include "monitor/supervisor.h"

#include "common/log.h"
#include "common/strings.h"

namespace sdci::monitor {

CollectorSupervisor::CollectorSupervisor(lustre::FileSystem& fs,
                                         const lustre::TestbedProfile& profile,
                                         const TimeAuthority& authority,
                                         msgq::Context& context,
                                         CollectorConfig collector_config,
                                         SupervisorConfig config)
    : fs_(&fs),
      profile_(profile),
      authority_(&authority),
      context_(&context),
      collector_config_(std::move(collector_config)),
      config_(config),
      rng_(config.fault_seed) {
  collectors_.resize(fs.MdsCount());
}

CollectorSupervisor::~CollectorSupervisor() { Stop(); }

std::unique_ptr<Collector> CollectorSupervisor::MakeCollector(size_t mdt) const {
  return std::make_unique<Collector>(*fs_, static_cast<int>(mdt), profile_,
                                     *authority_, *context_, collector_config_);
}

void CollectorSupervisor::Start() {
  if (running_.exchange(true)) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (size_t mdt = 0; mdt < collectors_.size(); ++mdt) {
      collectors_[mdt] = MakeCollector(mdt);
      collectors_[mdt]->Start();
    }
  }
  thread_ = std::jthread([this](const std::stop_token& stop) { SuperviseLoop(stop); });
}

void CollectorSupervisor::Stop() {
  if (!running_.exchange(false)) return;
  thread_.request_stop();
  if (thread_.joinable()) thread_.join();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& collector : collectors_) {
    if (collector != nullptr) collector->Stop();
  }
}

void CollectorSupervisor::InjectCrash(size_t mdt) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (mdt >= collectors_.size() || collectors_[mdt] == nullptr) return;
  // A crash is abrupt: the collector never flushes or clears what it was
  // doing. Collector::Stop does a final drain, so to model a crash we
  // destroy without Stop's grace — Stop is still called by the destructor
  // chain, but any already-journaled-but-unread records stay in the
  // ChangeLog either way; "crash" here means losing the in-memory cursor.
  collectors_[mdt].reset();
  crashes_.Add();
  log::Debug("supervisor", "collector.{} crashed", mdt);
}

void CollectorSupervisor::SuperviseLoop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    authority_->IdleFor(config_.check_interval);
    const std::lock_guard<std::mutex> lock(mutex_);
    for (size_t mdt = 0; mdt < collectors_.size(); ++mdt) {
      if (collectors_[mdt] != nullptr && config_.crash_prob_per_check > 0 &&
          rng_.NextBool(config_.crash_prob_per_check)) {
        collectors_[mdt].reset();
        crashes_.Add();
      }
      if (collectors_[mdt] == nullptr) {
        collectors_[mdt] = MakeCollector(mdt);
        collectors_[mdt]->Start();
        restarts_.Add();
        log::Debug("supervisor", "collector.{} restarted", mdt);
      }
    }
  }
}

std::vector<CollectorStats> CollectorSupervisor::Stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CollectorStats> stats;
  stats.reserve(collectors_.size());
  for (const auto& collector : collectors_) {
    stats.push_back(collector == nullptr ? CollectorStats{} : collector->Stats());
  }
  return stats;
}

}  // namespace sdci::monitor
