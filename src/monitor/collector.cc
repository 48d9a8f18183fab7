#include "monitor/collector.h"

#include <algorithm>
#include <unordered_map>

#include "common/log.h"
#include "common/strings.h"
#include "monitor/wire_v4.h"

namespace sdci::monitor {

std::string_view ResolveModeName(ResolveMode mode) noexcept {
  switch (mode) {
    case ResolveMode::kPerEvent:
      return "per-event";
    case ResolveMode::kBatched:
      return "batched";
    case ResolveMode::kCached:
      return "cached";
    case ResolveMode::kBatchedCached:
      return "batched+cached";
  }
  return "?";
}

std::string_view CollectorTerminalName(CollectorTerminal terminal) noexcept {
  switch (terminal) {
    case CollectorTerminal::kRunning:
      return "running";
    case CollectorTerminal::kCleanStop:
      return "clean-stop";
    case CollectorTerminal::kReportsAbandoned:
      return "reports-abandoned";
  }
  return "?";
}

Collector::Collector(lustre::FileSystem& fs, int mdt_index,
                     const lustre::TestbedProfile& profile,
                     const TimeAuthority& authority, msgq::Context& context,
                     CollectorConfig config)
    : fs_(&fs),
      mdt_index_(mdt_index),
      profile_(profile),
      authority_(&authority),
      config_(std::move(config)),
      fid2path_(fs, profile),
      cache_(fid2path_, config_.cache_capacity, config_.cache_shards),
      budget_(authority),
      publish_budget_(authority),
      retry_rng_(config_.retry_seed + static_cast<uint64_t>(mdt_index)),
      reorder_(Window()),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : std::make_shared<MetricsRegistry>()),
      tracer_(config_.tracer),
      component_(strings::Format("collector.{}", mdt_index)) {
  const MetricLabels labels = {{"mdt", std::to_string(mdt_index_)}};
  extracted_ = metrics_->GetCounter("sdci_collector_extracted_total", labels);
  filtered_ = metrics_->GetCounter("sdci_collector_filtered_total", labels);
  processed_ = metrics_->GetCounter("sdci_collector_processed_total", labels);
  reported_ = metrics_->GetCounter("sdci_collector_reported_total", labels);
  resolve_failures_ =
      metrics_->GetCounter("sdci_collector_resolve_failures_total", labels);
  report_retries_ =
      metrics_->GetCounter("sdci_collector_report_retries_total", labels);
  events_spooled_ =
      metrics_->GetCounter("sdci_collector_events_spooled_total", labels);
  events_replayed_ =
      metrics_->GetCounter("sdci_collector_events_replayed_total", labels);
  reports_abandoned_ =
      metrics_->GetCounter("sdci_collector_reports_abandoned_total", labels);
  last_cleared_ = metrics_->GetGauge("sdci_collector_last_cleared_index", labels);
  const auto reason_labels = [&](const char* reason) {
    MetricLabels with = labels;
    with.emplace_back("reason", reason);
    return with;
  };
  follow_wakes_records_ = metrics_->GetCounter("sdci_collector_follow_wakes_total",
                                               reason_labels("records"));
  follow_wakes_timeout_ = metrics_->GetCounter("sdci_collector_follow_wakes_total",
                                               reason_labels("timeout"));
  detection_latency_ =
      metrics_->GetHistogram("sdci_collector_detection_latency", labels);
  const auto stage_labels = [&](const char* stage) {
    MetricLabels with = labels;
    with.emplace_back("stage", stage);
    return with;
  };
  read_stage_latency_ =
      metrics_->GetHistogram("sdci_collector_stage_latency", stage_labels("read"));
  resolve_stage_latency_ =
      metrics_->GetHistogram("sdci_collector_stage_latency", stage_labels("resolve"));
  publish_stage_latency_ =
      metrics_->GetHistogram("sdci_collector_stage_latency", stage_labels("publish"));
  // Scrape-time pipeline depths. The weak token keeps a scrape on a
  // shared registry from touching a destroyed collector.
  const std::weak_ptr<bool> alive = alive_;
  metrics_->RegisterCallback(
      "sdci_collector_resolver_pool_depth", labels,
      [alive, this]() -> std::optional<int64_t> {
        if (alive.expired()) return std::nullopt;
        const std::lock_guard<std::mutex> lock(pool_mutex_);
        return pool_ != nullptr ? static_cast<int64_t>(pool_->QueueDepth()) : 0;
      });
  metrics_->RegisterCallback(
      "sdci_collector_reorder_occupancy", labels,
      [alive, this]() -> std::optional<int64_t> {
        if (alive.expired()) return std::nullopt;
        return static_cast<int64_t>(reorder_.Occupancy());
      });
  worker_budgets_.reserve(Workers());
  for (size_t i = 0; i < Workers(); ++i) {
    worker_budgets_.push_back(std::make_unique<DelayBudget>(authority));
  }
  if (config_.local_store_capacity > 0) {
    local_store_ = std::make_unique<EventStore>(config_.local_store_capacity);
  }
  if (config_.spool_capacity > 0) {
    spool_ = std::make_unique<EventSpool>(config_.spool_capacity);
    metrics_->RegisterCallback(
        "sdci_collector_spool_depth", labels,
        [alive, this]() -> std::optional<int64_t> {
          if (alive.expired()) return std::nullopt;
          return static_cast<int64_t>(spool_->EventCount());
        });
  }
  const std::string instance = strings::Format("mdt{}", mdt_index_);
  if (config_.watermarks != nullptr) {
    wm_read_ = config_.watermarks->Handle(trace::kChangelogRead, instance);
    wm_extract_ =
        config_.watermarks->Handle(trace::kCollectorExtract, instance);
    wm_publish_ =
        config_.watermarks->Handle(trace::kCollectorPublish, instance);
  }
  if (config_.flow != nullptr) {
    FlowLedger& flow = *config_.flow;
    // Extraction: every record read either gets masked out or becomes a
    // resolved event (failed fid2path still reports the event with FIDs).
    flow.Bind("collector.extract", instance, FlowKind::kIn, "extracted",
              extracted_);
    flow.Bind("collector.extract", instance, FlowKind::kOut, "filtered",
              filtered_);
    flow.Bind("collector.extract", instance, FlowKind::kOut, "resolved",
              processed_);
    // Publication: resolved events leave accepted-by-transport (spool
    // replays count there exactly once), abandoned at shutdown, or sit in
    // the outage spool.
    flow.Bind("collector.publish", instance, FlowKind::kIn, "resolved",
              processed_);
    flow.Bind("collector.publish", instance, FlowKind::kOut, "reported",
              reported_);
    flow.Bind("collector.publish", instance, FlowKind::kOut, "abandoned",
              reports_abandoned_);
    if (spool_ != nullptr) {
      const auto spool_depth = [alive, this]() -> std::optional<int64_t> {
        if (alive.expired()) return std::nullopt;
        return static_cast<int64_t>(spool_->EventCount());
      };
      flow.BindCallback("collector.publish", instance, FlowKind::kHeld,
                        "spooled", spool_depth);
      // The spool itself, as its own identity: spilled in, replayed out.
      flow.Bind("collector.spool", instance, FlowKind::kIn, "spooled",
                events_spooled_);
      flow.Bind("collector.spool", instance, FlowKind::kOut, "replayed",
                events_replayed_);
      flow.BindCallback("collector.spool", instance, FlowKind::kHeld, "depth",
                        spool_depth);
    }
  }
  consumer_id_ = fs_->Mds(static_cast<size_t>(mdt_index_)).changelog().RegisterConsumer();
  if (config_.transport == CollectTransport::kPubSub) {
    pub_ = context.CreatePub(config_.collect_endpoint);
  } else {
    push_ = context.CreatePush(config_.collect_endpoint);
  }
  // Resume from the oldest retained record (a restarted collector re-reads
  // anything it had not cleared yet — at-least-once hand-off).
  const uint64_t first = fs_->Mds(static_cast<size_t>(mdt_index_)).changelog().FirstIndex();
  next_index_ = first == 0 ? 1 : first;
}

Collector::~Collector() {
  alive_.reset();  // detach scrape callbacks before the pipeline dies
  Stop();
  (void)fs_->Mds(static_cast<size_t>(mdt_index_)).changelog().DeregisterConsumer(consumer_id_);
}

size_t Collector::Workers() const noexcept {
  return std::max<size_t>(1, config_.resolver_workers);
}

size_t Collector::ChunkSize() const noexcept {
  // Two chunks per worker keeps everyone busy without shredding the
  // batched-resolve modes' amortization.
  return std::max<size_t>(1, config_.read_batch / (2 * Workers()));
}

size_t Collector::Window() const noexcept {
  return config_.reorder_window > 0 ? config_.reorder_window
                                    : std::max<size_t>(8, 4 * Workers());
}

void Collector::Start() {
  if (running_.exchange(true)) return;
  reorder_.Reopen();
  publish_aborted_ = false;
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    // The reader thread is the pool's only submitter (ReadPass and
    // MaybeScheduleSpoolReplay both run on it), as the SPSC feed requires
    // — this hop is the hottest hand-off on the collector side.
    pool_ = std::make_unique<ThreadPool>(Workers(), Window());
  }
  publisher_thread_ =
      std::jthread([this](const std::stop_token& stop) { PublisherLoop(stop); });
  thread_ = std::jthread([this](const std::stop_token& stop) { Run(stop); });
}

void Collector::Stop() {
  if (!running_.exchange(false)) return;
  // Stop order matters: bounding the publisher's delivery retries first
  // guarantees it keeps advancing tickets, which is what unblocks a reader
  // stalled on the reorder window; the reader then takes its final flush
  // pass, the pool drains every submitted chunk, and the publisher
  // releases the reorder buffer in order before joining.
  publisher_thread_.request_stop();
  thread_.request_stop();
  if (thread_.joinable()) thread_.join();
  if (pool_ != nullptr) pool_->Shutdown();
  reorder_.MarkDone();
  if (publisher_thread_.joinable()) publisher_thread_.join();
}

void Collector::Run(const std::stop_token& stop) {
  log::Debug(strings::Format("collector.{}", mdt_index_),
             "started ({} mode, {} resolver worker(s), window {})",
             ResolveModeName(config_.resolve_mode), Workers(), Window());
  const auto& changelog = fs_->Mds(static_cast<size_t>(mdt_index_)).changelog();
  while (!stop.stop_requested()) {
    if (!ReadPass()) {
      MaybeScheduleSpoolReplay();
      budget_.Flush();
      // Follow the log: wake as soon as one resolver chunk of records has
      // landed (a burst is read without waiting out a poll), or after
      // poll_interval for a partial chunk. Waking per record would shred
      // the pipeline's batches and spend CPU on hand-offs.
      if (changelog.WaitForRecords(next_index_, ChunkSize(),
                                   authority_->ToReal(config_.poll_interval),
                                   stop)) {
        follow_wakes_records_->Add(1);
      } else if (!stop.stop_requested()) {
        follow_wakes_timeout_->Add(1);
      }
    }
  }
  // Final flush pass so Stop() never abandons already-journaled records
  // that fit in one batch (tests rely on deterministic flush). The chunks
  // it submits drain through the pool and publisher before Stop returns.
  ReadPass();
  budget_.Flush();
}

bool Collector::ReadPass() {
  auto& changelog = fs_->Mds(static_cast<size_t>(mdt_index_)).changelog();
  const VirtualTime read_start =
      tracer_ != nullptr ? authority_->Now() : VirtualTime{};
  std::vector<lustre::ChangeLogRecord> records;
  const size_t n = changelog.ReadFrom(next_index_, config_.read_batch, records);
  const VirtualDuration read_cost =
      profile_.changelog_read_base +
      profile_.changelog_read_per_record * static_cast<int64_t>(n);
  budget_.Charge(read_cost);
  const VirtualTime read_end =
      tracer_ != nullptr ? authority_->Now() : VirtualTime{};
  if (n == 0) return false;
  read_stage_latency_->Record(read_cost);
  extracted_->Add(n);
  if (wm_read_ != nullptr) wm_read_->Advance(records.back().time);
  const uint64_t last_index = records.back().index;
  next_index_ = last_index + 1;

  // Filter push-down: drop masked-out record types before the costly
  // processing step.
  if (config_.report_mask != lustre::kFullChangeLogMask) {
    const auto masked_out = [&](const lustre::ChangeLogRecord& record) {
      return (config_.report_mask & lustre::MaskOf(record.type)) == 0;
    };
    const size_t before = records.size();
    records.erase(std::remove_if(records.begin(), records.end(), masked_out),
                  records.end());
    filtered_->Add(before - records.size());
  }

  // Slice the batch into ChunkSize() chunks so it spreads across the
  // pool. An all-filtered batch still submits one empty chunk:
  // the purge watermark must ride the ticket order, because clearing
  // through last_index also clears every earlier record — it may only
  // happen after all of them are published.
  size_t start = 0;
  do {
    const size_t end = std::min(records.size(), start + ChunkSize());
    ResolveChunk chunk;
    chunk.records.assign(records.begin() + static_cast<ptrdiff_t>(start),
                         records.begin() + static_cast<ptrdiff_t>(end));
    chunk.purge_index = end == records.size() ? last_index : 0;
    chunk.read_start = read_start;
    chunk.read_end = read_end;
    // Window backpressure (plain, non-interruptible wait: the publisher
    // advances tickets even when delivery fails during shutdown, so this
    // always terminates).
    chunk.ticket = reorder_.Acquire();
    if (!pool_->Submit([this, chunk = std::move(chunk)](size_t worker) mutable {
          ResolveChunkTask(std::move(chunk), worker);
        }).ok()) {
      return false;  // pool closed mid-shutdown; records stay unpurged
    }
    start = end;
  } while (start < records.size());
  return true;
}

void Collector::ResolveChunkTask(ResolveChunk chunk, size_t worker) {
  DelayBudget& budget = *worker_budgets_[worker];
  if (config_.resolve_hook) config_.resolve_hook(chunk.ticket);
  const VirtualDuration charged_before = budget.TotalCharged();
  chunk.events.reserve(chunk.records.size());
  ResolveRecords(chunk.records, chunk.events, budget, chunk.read_start,
                 chunk.read_end);
  processed_->Add(chunk.events.size());
  if (wm_extract_ != nullptr && !chunk.events.empty()) {
    wm_extract_->Advance(chunk.events.back().time);
  }
  resolve_stage_latency_->Record(budget.TotalCharged() - charged_before);
  // Realize this chunk's modeled resolution latency *before* completion:
  // the whole point of the worker pool is that these sleeps overlap
  // across workers instead of summing on one thread.
  budget.Flush();
  const uint64_t ticket = chunk.ticket;
  reorder_.Complete(ticket, std::move(chunk));
}

void Collector::MaybeScheduleSpoolReplay() {
  // With no fresh traffic the publisher sits blocked in AwaitNext and
  // would never notice the shard coming back. An empty tick chunk rides
  // the normal ticket path, giving PublishChunk a replay opportunity once
  // per idle poll interval. Only when the pipeline is otherwise drained —
  // in-flight chunks already trigger replay attempts themselves.
  if (spool_ == nullptr || spool_->Empty() || reorder_.Occupancy() != 0) return;
  ResolveChunk tick;
  tick.ticket = reorder_.Acquire();
  (void)pool_->Submit([this, tick = std::move(tick)](size_t worker) mutable {
    ResolveChunkTask(std::move(tick), worker);
  });
}

void Collector::PublisherLoop(const std::stop_token& stop) {
  while (true) {
    ResolveChunk chunk;
    if (!reorder_.AwaitNext(chunk)) break;  // reader done and buffer drained
    PublishChunk(chunk, stop);
    reorder_.Release();  // frees reorder-window room for the reader
  }
  publish_budget_.Flush();
}

bool Collector::TryReplaySpool() {
  // Oldest first, in publish_batch chunks, stopping at the first short
  // delivery (the shard is still — or again — down). Report() only counts
  // events on acceptance, so replayed events are reported exactly once.
  bool progress = false;
  while (!spool_->Empty()) {
    const std::vector<FsEvent> head =
        spool_->PeekFront(std::max<size_t>(1, config_.publish_batch));
    const size_t delivered = Report(head, publish_budget_);
    if (delivered > 0) {
      spool_->DropFront(delivered);
      events_replayed_->Add(delivered);
      progress = true;
    }
    if (delivered < head.size()) break;
  }
  return progress;
}

void Collector::PublishChunk(ResolveChunk& chunk, const std::stop_token& stop) {
  // An undelivered predecessor blocks everything after it: publishing (or
  // purging) past it would break in-order delivery and could clear records
  // whose events never made it out.
  if (publish_aborted_.load(std::memory_order_relaxed)) {
    if (!chunk.events.empty()) reports_abandoned_->Add(chunk.events.size());
    return;
  }
  // Spooled backlog replays ahead of fresh events: per-collector delivery
  // order is spool (accepted first) before this chunk.
  if (spool_ != nullptr && !spool_->Empty()) TryReplaySpool();
  if (!chunk.events.empty()) {
    // The local store sees events here — on the publisher, in ticket
    // order — so its append order matches ChangeLog order (QueryTimeRange
    // relies on timestamp-monotone appends).
    if (local_store_ != nullptr) local_store_->Append(EventBatch(chunk.events));
    const VirtualDuration charged_before = publish_budget_.TotalCharged();
    std::vector<FsEvent> pending = std::move(chunk.events);
    VirtualDuration backoff = config_.retry_backoff_min;
    VirtualDuration waited{0};  // accumulated backoff: the restart budget
    // While earlier events sit in the spool the shard is down (or just
    // recovered mid-replay): fresh events must queue behind them or the
    // per-MDT record order breaks on arrival.
    if (spool_ != nullptr && !spool_->Empty() && spool_->TryAppend(pending)) {
      events_spooled_->Add(pending.size());
      pending.clear();
    }
    while (!pending.empty()) {
      if (spool_ == nullptr || spool_->Empty()) {
        const size_t delivered = Report(pending, publish_budget_);
        pending.erase(pending.begin(),
                      pending.begin() + static_cast<ptrdiff_t>(delivered));
        if (pending.empty()) break;
      } else if (TryReplaySpool() && spool_->Empty()) {
        continue;  // backlog cleared; the fresh batch gets its turn
      }
      if (stop.stop_requested()) {
        // Shutdown with a dead aggregator: give up without purging; the
        // unpurged records are re-extracted by the next incarnation. The
        // abandoned tail makes this terminal status distinct from a clean
        // stop (reports_abandoned + CollectorTerminal::kReportsAbandoned).
        publish_aborted_.store(true, std::memory_order_relaxed);
        reports_abandoned_->Add(pending.size());
        return;
      }
      // Down past the restart budget: spill and move on, so the purge and
      // the reader are not hostage to the outage. A full spool falls
      // through to blocking retry — backpressure, never loss.
      if (spool_ != nullptr && waited >= config_.spool_after &&
          spool_->TryAppend(pending)) {
        events_spooled_->Add(pending.size());
        pending.clear();
        break;
      }
      // The aggregator is absent or saturated. Capped exponential backoff,
      // jittered so a fleet of collectors does not retry in lockstep
      // against a restarting aggregator. The stalled publisher fills the
      // reorder window, which stalls the reader: pipeline-wide backpressure.
      report_retries_->Add();
      publish_budget_.Flush();
      authority_->SleepFor(
          Seconds(retry_rng_.Jitter(ToSecondsF(backoff), config_.retry_jitter_frac)));
      waited += backoff;
      backoff = std::min(backoff * 2, config_.retry_backoff_max);
    }
    publish_stage_latency_->Record(publish_budget_.TotalCharged() - charged_before);
  }
  // Spooled events are durably held (write-ahead, like the checkpoint), so
  // purging records whose events sit in the spool is safe: replay — not
  // re-extraction — is their delivery path.
  if (chunk.purge_index > 0) PurgeThrough(chunk.purge_index, publish_budget_);
}

size_t Collector::DrainOnce() {
  const uint64_t reported_before = reported_->Get();
  std::vector<lustre::ChangeLogRecord> records;
  while (true) {
    records.clear();
    if (ProcessPass(records) != PassResult::kProgress) break;
  }
  budget_.Flush();
  return reported_->Get() - reported_before;
}

bool Collector::FlushHeld() {
  if (held_events_.empty()) return true;
  report_retries_->Add();
  const size_t delivered = Report(held_events_, budget_);
  held_events_.erase(held_events_.begin(),
                     held_events_.begin() + static_cast<ptrdiff_t>(delivered));
  if (!held_events_.empty()) return false;
  // The whole rejected batch is finally out: purge is safe now.
  PurgeThrough(held_last_index_, budget_);
  return true;
}

void Collector::PurgeThrough(uint64_t last_index, DelayBudget& budget) {
  if (!config_.purge) return;
  budget.Charge(profile_.changelog_clear_latency);
  auto& changelog = fs_->Mds(static_cast<size_t>(mdt_index_)).changelog();
  if (changelog.Clear(consumer_id_, last_index).ok()) {
    last_cleared_->Set(static_cast<int64_t>(last_index));
  }
}

Collector::PassResult Collector::ProcessPass(std::vector<lustre::ChangeLogRecord>& records) {
  // A rejected hand-off leaves its tail held; nothing new is extracted
  // until the hold drains, preserving delivery order per collector.
  if (!FlushHeld()) return PassResult::kRejected;

  auto& changelog = fs_->Mds(static_cast<size_t>(mdt_index_)).changelog();
  // Detection: extract new records (costed per read call + per record).
  // The read window is remembered so sampled events can retroactively
  // record a changelog.read span (two Now() calls per pass, not per event).
  const VirtualTime read_start =
      tracer_ != nullptr ? authority_->Now() : VirtualTime{};
  const size_t n = changelog.ReadFrom(next_index_, config_.read_batch, records);
  budget_.Charge(profile_.changelog_read_base +
                 profile_.changelog_read_per_record * static_cast<int64_t>(n));
  const VirtualTime read_end =
      tracer_ != nullptr ? authority_->Now() : VirtualTime{};
  if (n == 0) return PassResult::kIdle;
  extracted_->Add(n);
  if (wm_read_ != nullptr) wm_read_->Advance(records.back().time);
  const uint64_t last_index = records.back().index;
  next_index_ = last_index + 1;

  // Filter push-down: drop masked-out record types before the costly
  // processing step.
  if (config_.report_mask != lustre::kFullChangeLogMask) {
    const auto masked_out = [&](const lustre::ChangeLogRecord& record) {
      return (config_.report_mask & lustre::MaskOf(record.type)) == 0;
    };
    const size_t before = records.size();
    records.erase(std::remove_if(records.begin(), records.end(), masked_out),
                  records.end());
    filtered_->Add(before - records.size());
  }

  // Processing: resolve FIDs into absolute paths.
  std::vector<FsEvent> events;
  events.reserve(records.size());
  ResolveRecords(records, events, budget_, read_start, read_end);
  processed_->Add(events.size());
  if (wm_extract_ != nullptr && !events.empty()) {
    wm_extract_->Advance(events.back().time);
  }
  if (local_store_ != nullptr) local_store_->Append(EventBatch(events));

  // Aggregation hand-off. A failed hand-off (no aggregator accepting on
  // the endpoint) must not lose events: the undelivered tail is held —
  // extraction work is kept, the purge is deferred until the hold drains.
  const size_t delivered = Report(events, budget_);
  if (delivered < events.size()) {
    held_events_.assign(events.begin() + static_cast<ptrdiff_t>(delivered),
                        events.end());
    held_last_index_ = last_index;
    return PassResult::kRejected;
  }

  // Purge consumed records so the ChangeLog does not accumulate stale
  // entries (the collector's pointer makes this safe).
  PurgeThrough(last_index, budget_);
  // An all-filtered batch still means the log had records, so the caller
  // should not back off.
  return PassResult::kProgress;
}

void Collector::ResolveRecords(const std::vector<lustre::ChangeLogRecord>& records,
                               std::vector<FsEvent>& events, DelayBudget& budget,
                               VirtualTime read_start, VirtualTime read_end) {
  const bool batched = config_.resolve_mode == ResolveMode::kBatched ||
                       config_.resolve_mode == ResolveMode::kBatchedCached;
  const bool cached = config_.resolve_mode == ResolveMode::kCached ||
                      config_.resolve_mode == ResolveMode::kBatchedCached;
  // Batched modes pre-resolve the batch's *unique* parent directories with
  // one amortized fid2path call; kBatchedCached further strips out parents
  // already cached, so only cold parents pay the call at all.
  std::unordered_map<lustre::Fid, std::string, lustre::FidHash> parent_paths;
  if (batched) {
    std::vector<lustre::Fid> cold;
    for (const auto& record : records) {
      if (parent_paths.count(record.parent) > 0) continue;
      if (config_.resolve_mode == ResolveMode::kBatchedCached) {
        if (auto hit = cache_.Peek(record.parent)) {
          parent_paths.emplace(record.parent, std::move(*hit));
          continue;
        }
      }
      parent_paths.emplace(record.parent, std::string());
      cold.push_back(record.parent);
    }
    if (!cold.empty()) {
      const uint64_t fill_epoch = cached ? cache_.Epoch() : 0;
      auto resolved = fid2path_.ResolveBatch(cold, budget);
      if (resolved.ok()) {
        for (size_t i = 0; i < cold.size(); ++i) {
          parent_paths[cold[i]] = (*resolved)[i];
          if (cached && !(*resolved)[i].empty()) {
            cache_.Prime(cold[i], (*resolved)[i], fill_epoch);
          }
        }
      }
    }
  }

  for (const lustre::ChangeLogRecord& record : records) {
    // Sampling decision for this event's whole pipeline journey. At 0%
    // rate this is one compare; unsampled events skip every Now() below.
    const uint64_t trace_id = tracer_ != nullptr ? tracer_->SampleTrace() : 0;
    const VirtualTime extract_start =
        trace_id != 0 ? authority_->Now() : VirtualTime{};
    // Epoch snapshot for every cache fill derived from this record: a
    // rename/rmdir invalidation landing while the paths below are being
    // built must win over them.
    const uint64_t cache_epoch = cached ? cache_.Epoch() : 0;
    FsEvent event;
    event.mdt_index = mdt_index_;
    event.record_index = record.index;
    event.type = record.type;
    event.time = record.time;
    event.flags = record.flags;
    event.name = record.name;
    event.target_fid = record.target;
    event.parent_fid = record.parent;

    std::string parent_path;
    bool resolved = false;
    const VirtualTime resolve_start =
        trace_id != 0 ? authority_->Now() : VirtualTime{};
    switch (config_.resolve_mode) {
      case ResolveMode::kPerEvent: {
        auto path = fid2path_.Resolve(record.parent, budget);
        if (path.ok()) {
          parent_path = std::move(path.value());
          resolved = true;
        }
        break;
      }
      case ResolveMode::kCached: {
        auto path = cache_.ResolveParent(record.parent, budget);
        if (path.ok()) {
          parent_path = std::move(path.value());
          resolved = true;
        }
        break;
      }
      case ResolveMode::kBatched:
      case ResolveMode::kBatchedCached: {
        const auto it = parent_paths.find(record.parent);
        if (it != parent_paths.end() && !it->second.empty()) {
          parent_path = it->second;
          resolved = true;
        }
        break;
      }
    }
    const VirtualTime resolve_end =
        trace_id != 0 ? authority_->Now() : VirtualTime{};

    if (resolved) {
      event.path = parent_path == "/" ? "/" + record.name : parent_path + "/" + record.name;
      if (record.type == lustre::ChangeLogType::kRename) {
        // Resolve the rename source through the same machinery (best
        // effort; the source parent may itself have moved).
        auto src = cached ? cache_.ResolveParent(record.source_parent, budget)
                          : fid2path_.Resolve(record.source_parent, budget);
        if (src.ok()) {
          event.source_path = *src == "/" ? "/" + record.source_name
                                          : *src + "/" + record.source_name;
        }
      }
    } else {
      // Path resolution can legitimately fail: the parent may already be
      // deleted by the time the record is processed. The event is still
      // reported, carrying its FIDs.
      resolve_failures_->Add();
    }

    if (trace_id != 0) {
      // Root the timeline at the ChangeLog read that surfaced the record;
      // the extract span covers field refactoring + resolution, with the
      // fid2path call nested inside it.
      const uint64_t read_span =
          tracer_->Record(trace_id, 0, trace::kChangelogRead, component_,
                          read_start, read_end);
      const uint64_t extract_span =
          tracer_->Record(trace_id, read_span, trace::kCollectorExtract,
                          component_, extract_start, authority_->Now());
      tracer_->Record(trace_id, extract_span, trace::kFid2PathResolve,
                      component_, resolve_start, resolve_end);
      event.trace_id = trace_id;
      event.parent_span = extract_span;
    }

    MaintainCache(event, cache_epoch);
    events.push_back(std::move(event));
  }
}

void Collector::MaintainCache(const FsEvent& event, uint64_t cache_epoch) {
  if (config_.resolve_mode != ResolveMode::kCached &&
      config_.resolve_mode != ResolveMode::kBatchedCached) {
    return;
  }
  switch (event.type) {
    case lustre::ChangeLogType::kMkdir:
      // Prime: the new directory's path is already known. Epoch-checked so
      // a concurrently processed rename/rmdir invalidation beats the prime
      // (a stale path is never resurrected by a slow worker).
      if (!event.path.empty()) {
        cache_.Prime(event.target_fid, event.path, cache_epoch);
      }
      break;
    case lustre::ChangeLogType::kRename:
    case lustre::ChangeLogType::kRenameTo:
    case lustre::ChangeLogType::kRmdir:
      // The target directory's cached path is stale (or gone). A rename
      // also invalidates every descendant; dropping just the target keeps
      // the common case cheap — descendants re-resolve on next miss
      // because we key by parent FID and stale entries are detected by
      // the periodic full resolution below. For strict correctness the
      // cached modes clear the whole cache on directory renames.
      if (event.type == lustre::ChangeLogType::kRmdir) {
        cache_.Invalidate(event.target_fid);
      } else {
        cache_.Clear();
      }
      break;
    default:
      break;
  }
}

size_t Collector::Report(const std::vector<FsEvent>& events, DelayBudget& budget) {
  // Aggregation hand-off: one wire message per publish_batch-sized chunk.
  // The payload is encoded in one exact-size allocation DIRECTLY from the
  // resolved slice — no per-chunk FsEvent copy, no intermediate EventBatch
  // — and the msgq message shares those bytes, so the PUB/SUB or PUSH/PULL
  // hand-off moves a pointer. The collect endpoint carries exactly one
  // aggregator; "nobody accepted" means it is absent (or its queue dropped
  // us) and the tail from the failed chunk on must be held for retry
  // rather than purged.
  const size_t batch_size = std::max<size_t>(1, config_.publish_batch);
  const std::string topic = strings::Format("collect.mdt{}", mdt_index_);
  size_t delivered = 0;
  for (size_t start = 0; start < events.size(); start += batch_size) {
    const size_t end = std::min(events.size(), start + batch_size);
    const size_t n = end - start;
    const FsEvent* slice = events.data() + start;
    // A traced event must cross the wire carrying the publish span as its
    // parent, so the span id is allocated before the batch is encoded and
    // the span recorded only once the hand-off succeeds (a rejected chunk
    // is retried under fresh span ids; its unrecorded ids never surface).
    // The fresh ids ride the encoder's parent_span override array, so the
    // source events stay untouched (they may be retried).
    struct PendingSpan {
      uint64_t trace_id, parent, span_id;
    };
    std::vector<PendingSpan> pending;
    std::vector<uint64_t> span_override;
    if (tracer_ != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        if (slice[i].trace_id == 0) continue;
        if (span_override.empty()) {
          span_override.resize(n);
          for (size_t j = 0; j < n; ++j) span_override[j] = slice[j].parent_span;
        }
        const uint64_t span_id = tracer_->NewSpanId();
        pending.push_back({slice[i].trace_id, slice[i].parent_span, span_id});
        span_override[i] = span_id;
      }
    }
    const VirtualTime publish_start =
        pending.empty() ? VirtualTime{} : authority_->Now();
    msgq::Message message(
        topic, std::make_shared<const std::string>(wire::EncodeEventBatchV4(
                   slice, n, span_override.empty() ? nullptr : span_override.data())));
    budget.Charge(profile_.collector_publish_latency);
    if (pub_ != nullptr) {
      if (pub_->Publish(std::move(message)) == 0) return delivered;
    } else if (push_ != nullptr) {
      // Blocks if the aggregator is saturated (backpressure); fails only
      // when no PULL socket is bound at all.
      if (!push_->Push(std::move(message)).ok()) return delivered;
    }
    // Detection latency covers journaled -> *accepted by the transport*;
    // recorded only on success so retries do not double-count.
    const VirtualTime now = authority_->Now();
    for (size_t i = 0; i < n; ++i) {
      detection_latency_->Record(now - slice[i].time);
    }
    for (const PendingSpan& span : pending) {
      tracer_->RecordSpan({span.trace_id, span.span_id, span.parent,
                           std::string(trace::kCollectorPublish), component_,
                           publish_start, now - publish_start});
    }
    delivered = end;
    reported_->Add(n);
    if (wm_publish_ != nullptr) {
      wm_publish_->Advance(slice[n - 1].time);
    }
  }
  return delivered;
}

CollectorStats Collector::Stats() const {
  CollectorStats stats;
  stats.extracted = extracted_->Get();
  stats.filtered = filtered_->Get();
  stats.processed = processed_->Get();
  stats.reported = reported_->Get();
  stats.resolve_failures = resolve_failures_->Get();
  stats.fid2path_calls = fid2path_.calls();
  stats.cache_hit_rate = cache_.HitRate();
  stats.last_cleared_index = static_cast<uint64_t>(last_cleared_->Get());
  stats.report_retries = report_retries_->Get();
  stats.reports_abandoned = reports_abandoned_->Get();
  if (spool_ != nullptr) {
    stats.events_spooled = spool_->TotalSpooled();
    stats.events_replayed = spool_->TotalReplayed();
    stats.spool_depth = spool_->EventCount();
    stats.spool_rejects = spool_->Rejects();
  }
  stats.terminal = running_.load()
                       ? CollectorTerminal::kRunning
                       : (publish_aborted_.load(std::memory_order_relaxed)
                              ? CollectorTerminal::kReportsAbandoned
                              : CollectorTerminal::kCleanStop);
  return stats;
}

ResourceUsage Collector::Usage(VirtualDuration elapsed) const {
  ResourceUsage usage;
  usage.component = strings::Format("collector.{}", mdt_index_);
  const double span = ToSecondsF(elapsed);
  const double processed = static_cast<double>(processed_->Get());
  const double cpu_s = processed * ToSecondsF(profile_.collector_cpu_per_event);
  usage.cpu_percent = span <= 0 ? 0 : 100.0 * cpu_s / span;
  // All stage budgets count: with resolver workers overlapping their
  // modeled latencies this legitimately exceeds 100% (multiple threads).
  VirtualDuration charged = budget_.TotalCharged() + publish_budget_.TotalCharged();
  for (const auto& budget : worker_budgets_) charged += budget->TotalCharged();
  usage.pipeline_busy_percent = span <= 0 ? 0 : 100.0 * ToSecondsF(charged) / span;
  usage.peak_memory_bytes =
      (local_store_ != nullptr ? local_store_->memory().PeakBytes() : 0) +
      cache_.ApproxBytes() + config_.read_batch * sizeof(lustre::ChangeLogRecord) +
      Window() * config_.read_batch / (2 * Workers()) * sizeof(FsEvent) +
      (1u << 20);  // fixed process overhead (buffers, sockets)
  return usage;
}

}  // namespace sdci::monitor
