#include "ripple/agent.h"

#include <algorithm>

#include "common/log.h"
#include "common/strings.h"

namespace sdci::ripple {

Agent::Agent(AgentConfig config, lustre::FileSystem& storage, CloudService& cloud,
             EndpointRegistry& endpoints, const TimeAuthority& authority)
    : config_(std::move(config)),
      storage_(&storage),
      cloud_(&cloud),
      endpoints_(&endpoints),
      authority_(&authority),
      action_queue_(config_.action_queue_depth),
      budget_(authority),
      dedupe_(config_.dedupe_window),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : std::make_shared<MetricsRegistry>()) {
  const MetricLabels labels{{"agent", config_.name}};
  events_seen_ = metrics_->GetCounter("sdci_agent_events_seen_total", labels);
  events_matched_ = metrics_->GetCounter("sdci_agent_events_matched_total", labels);
  events_reported_ = metrics_->GetCounter("sdci_agent_events_reported_total", labels);
  report_retries_ = metrics_->GetCounter("sdci_agent_report_retries_total", labels);
  report_failures_ = metrics_->GetCounter("sdci_agent_report_failures_total", labels);
  actions_received_ = metrics_->GetCounter("sdci_agent_actions_received_total", labels);
  actions_executed_ = metrics_->GetCounter("sdci_agent_actions_executed_total", labels);
  actions_failed_ = metrics_->GetCounter("sdci_agent_actions_failed_total", labels);
  actions_retried_ = metrics_->GetCounter("sdci_agent_actions_retried_total", labels);
  actions_deduped_ = metrics_->GetCounter("sdci_agent_actions_deduped_total", labels);
  actions_rejected_ = metrics_->GetCounter("sdci_agent_actions_rejected_total", labels);
  if (config_.watermarks != nullptr) {
    wm_rule_eval_ = config_.watermarks->Handle(trace::kAgentRuleEval, config_.name);
    wm_execute_ = config_.watermarks->Handle(trace::kActionExecute, config_.name);
  }
  if (config_.flow != nullptr) {
    FlowLedger& flow = *config_.flow;
    const std::string& inst = config_.name;
    // agent.rule_eval: every event seen either matches or does not.
    flow.Bind("agent.rule_eval", inst, FlowKind::kIn, "seen", events_seen_);
    flow.Bind("agent.rule_eval", inst, FlowKind::kOut, "matched", events_matched_);
    unmatched_ = flow.Account("agent.rule_eval", inst, FlowKind::kOut, "unmatched");
    // agent.report: every matched event is reported or given up on.
    flow.Bind("agent.report", inst, FlowKind::kIn, "matched", events_matched_);
    flow.Bind("agent.report", inst, FlowKind::kOut, "reported", events_reported_);
    flow.Bind("agent.report", inst, FlowKind::kOut, "failed", report_failures_);
    // agent.actions: cloud deliveries are deduped, rejected (the queue
    // closed under them), executed or failed; the queue depth is the held
    // in-flight.
    flow.Bind("agent.actions", inst, FlowKind::kIn, "received", actions_received_);
    flow.Bind("agent.actions", inst, FlowKind::kOut, "deduped", actions_deduped_);
    flow.Bind("agent.actions", inst, FlowKind::kOut, "rejected", actions_rejected_);
    flow.Bind("agent.actions", inst, FlowKind::kOut, "executed", actions_executed_);
    flow.Bind("agent.actions", inst, FlowKind::kOut, "failed", actions_failed_);
    flow.BindCallback(
        "agent.actions", inst, FlowKind::kHeld, "queue",
        [weak = std::weak_ptr<bool>(alive_), this]() -> std::optional<int64_t> {
          const auto alive = weak.lock();
          if (alive == nullptr || !*alive) return std::nullopt;
          return static_cast<int64_t>(action_queue_.size());
        });
  }
  // Default executor table; callers may override any slot.
  executors_[ActionType::kTransfer] = std::make_unique<TransferExecutor>();
  executors_[ActionType::kLocalCommand] = std::make_unique<LocalCommandExecutor>();
  executors_[ActionType::kEmail] = std::make_unique<EmailExecutor>(outbox_);
  executors_[ActionType::kContainer] = std::make_unique<ContainerExecutor>();
  executors_[ActionType::kDelete] = std::make_unique<DeleteExecutor>();
  cloud_->RegisterAgent(*this);
}

Agent::~Agent() {
  *alive_ = false;  // ledger depth callback goes quiet before teardown
  Stop();
  cloud_->DeregisterAgent(config_.name);
}

void Agent::AttachSource(std::unique_ptr<monitor::EventSubscriber> source) {
  source_ = std::move(source);
}

void Agent::AttachSource(std::unique_ptr<monitor::RecoveringSubscriber> source) {
  recovering_source_ = std::move(source);
}

void Agent::AttachSource(std::unique_ptr<monitor::FleetSubscriber> source) {
  fleet_source_ = std::move(source);
}

void Agent::AttachLocalWatcher(std::unique_ptr<monitor::InotifyMonitor> watcher,
                               VirtualDuration poll_interval) {
  watcher_ = std::move(watcher);
  watcher_poll_interval_ = poll_interval;
}

void Agent::RegisterExecutor(ActionType type, std::unique_ptr<ActionExecutor> executor) {
  executors_[type] = std::move(executor);
}

void Agent::Start() {
  if (running_.exchange(true)) return;
  if (source_ != nullptr || recovering_source_ != nullptr || fleet_source_ != nullptr) {
    event_thread_ = std::jthread([this](const std::stop_token& stop) { EventLoop(stop); });
  } else if (watcher_ != nullptr) {
    event_thread_ =
        std::jthread([this](const std::stop_token& stop) { WatcherLoop(stop); });
  }
  action_thread_ = std::jthread([this] { ActionLoop(); });
}

void Agent::Stop() {
  if (!running_.exchange(false)) return;
  if (event_thread_.joinable()) {
    event_thread_.request_stop();
    if (source_ != nullptr) source_->Close();
    if (recovering_source_ != nullptr) recovering_source_->Close();
    if (fleet_source_ != nullptr) fleet_source_->Close();
    event_thread_.join();
  }
  action_queue_.Close();
  if (action_thread_.joinable()) action_thread_.join();
}

// In-flight evaluations keep the snapshot they hold; the next batch sees
// the new one. No event ever waits on the control plane.
void Agent::InstallRuleFilter(std::shared_ptr<const Rule> rule) {
  const std::lock_guard<std::mutex> lock(rules_mutex_);
  rule_index_.Publish(rule_index_.Acquire()->With(std::move(rule)));
}

void Agent::RemoveRuleFilter(const std::string& rule_id) {
  const std::lock_guard<std::mutex> lock(rules_mutex_);
  const auto index = rule_index_.Acquire();
  if (const Rule* rule = index->Find(rule_id)) rule_index_.Publish(index->Without(*rule));
}

std::vector<std::string> Agent::RuleFilterIds() const {
  std::vector<std::string> ids;
  rule_index_.Acquire()->ForEachRule([&ids](const Rule& rule) { ids.push_back(rule.id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

void Agent::EventLoop(const std::stop_token& stop) {
  // Consume whole batches: one receive + one decode per aggregator
  // message, then the filter/report path per event. The recovering source
  // interleaves history-backfilled batches when it detects a gap.
  const auto next = [this](std::chrono::nanoseconds timeout) {
    if (fleet_source_ != nullptr) return fleet_source_->NextBatchFor(timeout);
    return recovering_source_ != nullptr ? recovering_source_->NextBatchFor(timeout)
                                         : source_->NextBatchFor(timeout);
  };
  while (!stop.stop_requested()) {
    auto batch = next(std::chrono::milliseconds(5));
    if (!batch.ok()) {
      if (batch.status().code() == StatusCode::kClosed) break;
      continue;
    }
    DeliverBatch(*batch);
  }
}

void Agent::WatcherLoop(const std::stop_token& stop) {
  // One snapshot handle per poll.
  const auto deliver = [this](const std::vector<monitor::FsEvent>& events) {
    if (events.empty()) return;
    const auto index = rule_index_.Acquire();
    for (const auto& event : events) DeliverEvent(event, *index);
  };
  while (!stop.stop_requested()) {
    deliver(watcher_->Poll());
    authority_->IdleFor(watcher_poll_interval_);
  }
  // Final poll so Stop() observes everything already journaled.
  deliver(watcher_->Poll());
}

void Agent::DeliverEvent(const monitor::FsEvent& event) {
  DeliverEvent(event, *rule_index_.Acquire());
}

void Agent::DeliverEvent(const monitor::FsEvent& event, const RuleIndex& index) {
  events_seen_->Add();
  if (wm_rule_eval_ != nullptr) wm_rule_eval_->Advance(event.time);
  if (config_.tracer == nullptr || event.trace_id == 0) {
    if (!index.MatchesAny(event)) {
      if (unmatched_ != nullptr) unmatched_->Add();
      return;
    }
    events_matched_->Add();
    ReportWithRetry(event);
    return;
  }
  // Traced path: the rule_eval span covers filter + report, and its id is
  // stamped into the reported copy so the cloud's action round-trip hands
  // the executing agent a parent to hang action.execute under.
  const VirtualTime start = authority_->Now();
  const uint64_t span = config_.tracer->NewSpanId();
  if (index.MatchesAny(event)) {
    events_matched_->Add();
    monitor::FsEvent reported = event;
    reported.parent_span = span;
    ReportWithRetry(reported);
  } else if (unmatched_ != nullptr) {
    unmatched_->Add();
  }
  config_.tracer->RecordSpan({event.trace_id, span, event.parent_span,
                              std::string(trace::kAgentRuleEval), config_.name,
                              start, authority_->Now() - start});
}

void Agent::DeliverBatch(const monitor::EventBatch& batch) {
  DeliverBatchView(batch.view());
}

void Agent::DeliverBatchView(const monitor::wire::EventBatchView& view) {
  // One snapshot handle and one descent cache for the whole batch:
  // consecutive events from the same directory share their trie walk.
  const auto index = rule_index_.Acquire();
  RuleIndex::Scratch scratch;
  const size_t n = view.size();
  for (size_t i = 0; i < n; ++i) {
    events_seen_->Add();
    if (wm_rule_eval_ != nullptr) wm_rule_eval_->Advance(view.time(i));
    const uint32_t kind = KindOfEvent(view.type(i));
    if (config_.tracer == nullptr || view.trace_id(i) == 0) {
      bool matched = false;
      if (kind != 0) {
        const monitor::wire::EventView event = view[i];
        matched = index->MatchesAny(kind, event.path(), event.name(), scratch);
        if (matched) {
          events_matched_->Add();
          ReportWithRetry(event.Materialize());
        }
      }
      if (!matched && unmatched_ != nullptr) unmatched_->Add();
      continue;
    }
    // Traced (sampled) events are rare: materialize and mirror the
    // DeliverEvent span semantics exactly.
    const VirtualTime start = authority_->Now();
    const uint64_t span = config_.tracer->NewSpanId();
    monitor::FsEvent event = view[i].Materialize();
    const uint64_t parent = event.parent_span;
    if (index->MatchesAny(kind, event.path, event.name, scratch)) {
      events_matched_->Add();
      event.parent_span = span;
      ReportWithRetry(event);
    } else if (unmatched_ != nullptr) {
      unmatched_->Add();
    }
    config_.tracer->RecordSpan({event.trace_id, span, parent,
                                std::string(trace::kAgentRuleEval), config_.name,
                                start, authority_->Now() - start});
  }
}

void Agent::ReportWithRetry(const monitor::FsEvent& event) {
  VirtualDuration backoff = config_.report_backoff;
  for (size_t attempt = 0; attempt <= config_.report_retries; ++attempt) {
    if (attempt > 0) {
      report_retries_->Add();
      authority_->SleepFor(backoff);
      backoff *= 2;
    }
    if (cloud_->ReportEvent(config_.name, event).ok()) {
      events_reported_->Add();
      return;
    }
  }
  report_failures_->Add();
  log::Warn(config_.name, "giving up reporting event {}", event.ToString());
}

Status Agent::EnqueueAction(ActionRequest request) {
  actions_received_->Add();
  std::string key;
  if (config_.dedupe_actions) {
    key = ActionKey(request);
    const std::lock_guard<std::mutex> lock(dedupe_mutex_);
    if (dedupe_.Get(key).has_value()) {
      actions_deduped_->Add();
      return OkStatus();  // duplicate of an already-accepted delivery
    }
    dedupe_.Put(key, true);
  }
  Status pushed = action_queue_.Push(std::move(request));
  if (!pushed.ok()) {
    // Not accepted (the agent is stopping): forget the key, so a
    // redelivery is refused again instead of deduped against an action
    // that never ran, and book the delivery so the ledger balances.
    if (config_.dedupe_actions) {
      const std::lock_guard<std::mutex> lock(dedupe_mutex_);
      dedupe_.Erase(key);
    }
    actions_rejected_->Add();
  }
  return pushed;
}

std::string Agent::ActionKey(const ActionRequest& request) {
  // (rule, event identity). ChangeLog provenance is the stable identity:
  // a collector that crashed and re-reported the same record produces an
  // event with a NEW global sequence but the same (mdt, record index).
  // Only events without provenance (locally injected) key on the seq.
  if (request.event.record_index != 0) {
    return strings::Format("{}@{}:{}", request.rule_id, request.event.mdt_index,
                           request.event.record_index);
  }
  return strings::Format("{}#{}", request.rule_id, request.event.global_seq);
}

void Agent::ActionLoop() {
  while (true) {
    auto request = action_queue_.Pop();
    if (!request.ok()) break;
    ExecuteAction(std::move(request.value()));
  }
}

size_t Agent::DrainActions() {
  size_t executed = 0;
  while (auto request = action_queue_.TryPop()) {
    ExecuteAction(std::move(*request));
    ++executed;
  }
  return executed;
}

namespace {
// Failures worth retrying: the environment may recover. Bad parameters or
// missing files will not fix themselves.
bool IsTransient(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kUnavailable:
    case StatusCode::kTimedOut:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}
}  // namespace

void Agent::ExecuteAction(ActionRequest request) {
  const bool traced = config_.tracer != nullptr && request.event.trace_id != 0;
  const VirtualTime trace_start = traced ? authority_->Now() : VirtualTime{};
  const auto it = executors_.find(request.spec.type);
  ActionOutcome outcome;
  if (it == executors_.end()) {
    outcome.success = false;
    outcome.detail = "no executor registered";
    outcome.completed_at = authority_->Now();
  } else {
    ActionContext context;
    context.agent_name = config_.name;
    context.storage = storage_;
    context.endpoints = endpoints_;
    context.authority = authority_;
    context.budget = &budget_;
    VirtualDuration backoff = config_.action_retry_backoff;
    for (size_t attempt = 0;; ++attempt) {
      auto result = it->second->Execute(context, request);
      if (result.ok()) {
        outcome = std::move(result.value());
        break;
      }
      outcome.success = false;
      outcome.detail = result.status().ToString();
      outcome.completed_at = authority_->Now();
      if (attempt >= config_.action_retries || !IsTransient(result.status().code())) {
        break;
      }
      actions_retried_->Add();
      request.attempt += 1;
      authority_->SleepFor(backoff);
      backoff *= 2;
    }
    budget_.Flush();
  }
  if (outcome.success) {
    actions_executed_->Add();
  } else {
    actions_failed_->Add();
  }
  if (wm_execute_ != nullptr) wm_execute_->Advance(request.event.time);
  if (traced) {
    config_.tracer->Record(request.event.trace_id, request.event.parent_span,
                           trace::kActionExecute, config_.name, trace_start,
                           authority_->Now());
  }
  action_log_.Record(std::move(request), std::move(outcome));
}

AgentStats Agent::Stats() const {
  AgentStats stats;
  stats.events_seen = events_seen_->Get();
  stats.events_matched = events_matched_->Get();
  stats.events_reported = events_reported_->Get();
  stats.report_retries = report_retries_->Get();
  stats.report_failures = report_failures_->Get();
  stats.actions_received = actions_received_->Get();
  stats.actions_executed = actions_executed_->Get();
  stats.actions_failed = actions_failed_->Get();
  stats.actions_retried = actions_retried_->Get();
  stats.actions_deduped = actions_deduped_->Get();
  return stats;
}

}  // namespace sdci::ripple
