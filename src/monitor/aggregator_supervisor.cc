#include "monitor/aggregator_supervisor.h"

#include "common/log.h"

namespace sdci::monitor {

AggregatorSupervisor::AggregatorSupervisor(const lustre::TestbedProfile& profile,
                                           const TimeAuthority& authority,
                                           msgq::Context& context,
                                           AggregatorConfig aggregator_config,
                                           AggregatorSupervisorConfig config)
    : profile_(profile),
      authority_(&authority),
      context_(&context),
      aggregator_config_(std::move(aggregator_config)),
      config_(config),
      checkpoint_(aggregator_config_.store_capacity),
      rng_(config.fault_seed),
      metrics_(aggregator_config_.metrics != nullptr
                   ? aggregator_config_.metrics
                   : std::make_shared<MetricsRegistry>()) {
  crashes_ = metrics_->GetCounter("sdci_aggregator_supervisor_crashes_total");
  restarts_ = metrics_->GetCounter("sdci_aggregator_supervisor_restarts_total");
  // The checkpoint outlives every incarnation; the weak token covers a
  // registry that outlives the supervisor itself.
  const std::weak_ptr<bool> alive = alive_;
  metrics_->RegisterCallback(
      "sdci_aggregator_checkpoint_next_seq", {},
      [alive, this]() -> std::optional<int64_t> {
        if (alive.expired()) return std::nullopt;
        return static_cast<int64_t>(checkpoint_.NextSeq());
      });
  metrics_->RegisterCallback(
      "sdci_aggregator_checkpoint_events", {},
      [alive, this]() -> std::optional<int64_t> {
        if (alive.expired()) return std::nullopt;
        return static_cast<int64_t>(checkpoint_.EventCount());
      });
  metrics_->RegisterCallback(
      "sdci_aggregator_checkpoint_commits", {},
      [alive, this]() -> std::optional<int64_t> {
        if (alive.expired()) return std::nullopt;
        return static_cast<int64_t>(checkpoint_.Commits());
      });
  // Bind the ingest socket once, outside any incarnation. Its queue is the
  // "network" between collectors and the aggregator service: hand-offs
  // accepted here survive a crash of the process behind it.
  if (aggregator_config_.transport == CollectTransport::kPubSub) {
    ingest_sub_ = context.CreateSub(aggregator_config_.collect_endpoint,
                                    aggregator_config_.ingest_hwm,
                                    msgq::HwmPolicy::kBlock);
    ingest_sub_->Subscribe("");  // all collectors
  } else {
    ingest_pull_ = context.CreatePull(aggregator_config_.collect_endpoint,
                                      aggregator_config_.ingest_hwm);
  }
}

AggregatorSupervisor::~AggregatorSupervisor() {
  alive_.reset();  // detach scrape callbacks before members die
  Stop();
}

std::unique_ptr<Aggregator> AggregatorSupervisor::MakeAggregator() {
  AggregatorAttachments attachments;
  attachments.checkpoint = &checkpoint_;
  attachments.ingest_sub = ingest_sub_;
  attachments.ingest_pull = ingest_pull_;
  return std::make_unique<Aggregator>(profile_, *authority_, *context_,
                                      aggregator_config_, std::move(attachments));
}

void AggregatorSupervisor::Start() {
  if (running_.exchange(true)) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    aggregator_ = MakeAggregator();
    aggregator_->Start();
  }
  thread_ = std::jthread([this](const std::stop_token& stop) { SuperviseLoop(stop); });
}

void AggregatorSupervisor::Stop() {
  if (!running_.exchange(false)) return;
  thread_.request_stop();
  if (thread_.joinable()) thread_.join();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (aggregator_ != nullptr) aggregator_->Stop();
}

void AggregatorSupervisor::CrashLocked() {
  if (aggregator_ == nullptr) return;
  aggregator_->Crash();
  // Bank this incarnation's counters AFTER the crash joins its workers so
  // Stats() stays cumulative across restarts: a snapshot taken while they
  // still ran would miss their final events — events subscribers may have
  // already received, which must therefore stay in the totals.
  const AggregatorStats stats = aggregator_->Stats();
  totals_.received += stats.received;
  totals_.batches_received += stats.batches_received;
  totals_.published += stats.published;
  totals_.batches_published += stats.batches_published;
  totals_.stored += stats.stored;
  totals_.decode_errors += stats.decode_errors;
  aggregator_.reset();
  crashes_->Add();
  log::Debug("supervisor", "aggregator crashed");
}

void AggregatorSupervisor::InjectCrash() {
  const std::lock_guard<std::mutex> lock(mutex_);
  CrashLocked();
}

void AggregatorSupervisor::BeginOutage() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (outage_) return;
  outage_ = true;
  // Refuse new deliveries first, then kill the process: collector batches
  // sent from here on are rejected at the socket (the sender still owns
  // them), while hand-offs already accepted stay queued for recovery.
  if (ingest_sub_ != nullptr) ingest_sub_->SetAccepting(false);
  if (ingest_pull_ != nullptr) ingest_pull_->SetAccepting(false);
  CrashLocked();
  log::Debug("supervisor", "outage began");
}

void AggregatorSupervisor::EndOutage() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!outage_) return;
  outage_ = false;
  if (ingest_sub_ != nullptr) ingest_sub_->SetAccepting(true);
  if (ingest_pull_ != nullptr) ingest_pull_->SetAccepting(true);
  log::Debug("supervisor", "outage ended; restart pending health check");
}

void AggregatorSupervisor::SuperviseLoop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    authority_->IdleFor(config_.check_interval);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (aggregator_ != nullptr && config_.crash_prob_per_check > 0 &&
        rng_.NextBool(config_.crash_prob_per_check)) {
      CrashLocked();
    }
    if (aggregator_ == nullptr && !outage_) {
      aggregator_ = MakeAggregator();
      aggregator_->Start();
      restarts_->Add();
      log::Debug("supervisor", "aggregator restarted at seq {}",
                 checkpoint_.NextSeq());
    }
  }
}

AggregatorStats AggregatorSupervisor::Stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  AggregatorStats stats = totals_;
  if (aggregator_ != nullptr) {
    const AggregatorStats current = aggregator_->Stats();
    stats.received += current.received;
    stats.batches_received += current.batches_received;
    stats.published += current.published;
    stats.batches_published += current.batches_published;
    stats.stored += current.stored;
    stats.decode_errors += current.decode_errors;
  }
  // Checkpoint-sourced fields are cumulative by construction (the
  // checkpoint outlives every incarnation), so they are read fresh rather
  // than banked in totals_.
  stats.checkpointed = checkpoint_.TotalAppended();
  stats.wal_commits = checkpoint_.Commits();
  return stats;
}

}  // namespace sdci::monitor
