#include "ripple/cloud.h"

#include <algorithm>

#include "common/log.h"
#include "common/strings.h"
#include "ripple/agent.h"

namespace sdci::ripple {

CloudService::CloudService(const TimeAuthority& authority, CloudConfig config)
    : authority_(&authority),
      config_(std::move(config)),
      queue_(authority, config_.queue),
      rng_(config_.fault_seed),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : std::make_shared<MetricsRegistry>()) {
  reports_received_ = metrics_->GetCounter("sdci_cloud_reports_received_total");
  reports_dropped_ = metrics_->GetCounter("sdci_cloud_reports_dropped_total");
  events_processed_ = metrics_->GetCounter("sdci_cloud_events_processed_total");
  actions_dispatched_ = metrics_->GetCounter("sdci_cloud_actions_dispatched_total");
  worker_crashes_ = metrics_->GetCounter("sdci_cloud_worker_crashes_total");
  actions_throttled_ = metrics_->GetCounter("sdci_cloud_actions_throttled_total");
  const std::weak_ptr<bool> alive = alive_;
  metrics_->RegisterCallback("sdci_cloud_queue_visible_depth", {},
                             [alive, this]() -> std::optional<int64_t> {
                               if (alive.expired()) return std::nullopt;
                               return static_cast<int64_t>(queue_.VisibleDepth());
                             });
  metrics_->RegisterCallback("sdci_cloud_queue_in_flight", {},
                             [alive, this]() -> std::optional<int64_t> {
                               if (alive.expired()) return std::nullopt;
                               return static_cast<int64_t>(queue_.InFlight());
                             });
  metrics_->RegisterCallback("sdci_cloud_queue_redelivered", {},
                             [alive, this]() -> std::optional<int64_t> {
                               if (alive.expired()) return std::nullopt;
                               return static_cast<int64_t>(queue_.Redelivered());
                             });
  metrics_->RegisterCallback("sdci_cloud_dead_letters", {},
                             [alive, this]() -> std::optional<int64_t> {
                               if (alive.expired()) return std::nullopt;
                               return static_cast<int64_t>(queue_.DeadLetterDepth());
                             });
  if (config_.flow != nullptr) {
    FlowLedger& flow = *config_.flow;
    flow.Bind("cloud.queue", "cloud", FlowKind::kIn, "reports", reports_received_);
    // Each throttled action enters the system as one synthetic DLQ entry
    // (PushDeadLetter), so it books as an arrival against the
    // dead_lettered held account below — conservation still balances.
    flow.Bind("cloud.queue", "cloud", FlowKind::kIn, "throttled", actions_throttled_);
    queue_completed_ =
        flow.Account("cloud.queue", "cloud", FlowKind::kOut, "completed");
    dlq_drained_ = flow.Account("cloud.queue", "cloud", FlowKind::kOut, "drained");
    flow.BindCallback("cloud.queue", "cloud", FlowKind::kHeld, "queue",
                      [alive, this]() -> std::optional<int64_t> {
                        if (alive.expired()) return std::nullopt;
                        return static_cast<int64_t>(queue_.VisibleDepth() +
                                                    queue_.InFlight());
                      });
    flow.BindCallback("cloud.queue", "cloud", FlowKind::kHeld, "dead_lettered",
                      [alive, this]() -> std::optional<int64_t> {
                        if (alive.expired()) return std::nullopt;
                        return static_cast<int64_t>(queue_.DeadLetterDepth());
                      });
  }
}

CloudService::~CloudService() { Stop(); }

void CloudService::Start() {
  if (running_.exchange(true)) return;
  workers_.clear();
  for (size_t i = 0; i < config_.worker_count; ++i) {
    workers_.emplace_back([this](const std::stop_token& stop) { WorkerLoop(stop); });
  }
  cleanup_thread_ = std::jthread([this](const std::stop_token& stop) { CleanupLoop(stop); });
}

void CloudService::Stop() {
  if (!running_.exchange(false)) return;
  for (auto& worker : workers_) worker.request_stop();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  cleanup_thread_.request_stop();
  if (cleanup_thread_.joinable()) cleanup_thread_.join();
}

void CloudService::EraseWatchAgentEntry(const std::string& watch_agent,
                                        const Rule* rule) {
  const auto it = rules_by_watch_agent_.find(watch_agent);
  if (it == rules_by_watch_agent_.end()) return;
  std::erase_if(it->second, [rule](const auto& held) { return held.get() == rule; });
  if (it->second.empty()) rules_by_watch_agent_.erase(it);
}

Status CloudService::RegisterRule(const Rule& rule) {
  if (rule.id.empty()) return InvalidArgumentError("rule requires an id");
  auto shared = std::make_shared<const Rule>(rule);
  // Agent filters are pushed under rules_mutex_ (cloud -> agent lock
  // order, as in RegisterAgent), so concurrent mutations of one rule
  // reach the agent in the order the cloud applied them.
  const std::lock_guard<std::mutex> lock(rules_mutex_);
  std::shared_ptr<const Rule>& stored = rules_[rule.id];
  if (stored != nullptr) {
    EraseWatchAgentEntry(stored->watch_agent, stored.get());
    if (stored->watch_agent != rule.watch_agent) {
      // Re-homed: the old watch agent must stop reporting for it.
      if (Agent* old = FindAgent(stored->watch_agent)) old->RemoveRuleFilter(rule.id);
    }
  }
  stored = shared;
  rules_by_watch_agent_[rule.watch_agent].push_back(shared);
  // Workers keep evaluating against the snapshot they hold; the next
  // message sees the new one.
  rule_index_.Publish(rule_index_.Acquire()->With(shared));
  // Distribute to the watch agent so its local filter reports matching
  // events (SDCI's control-plane push, like flow rules to an SDN switch).
  if (Agent* agent = FindAgent(rule.watch_agent)) agent->InstallRuleFilter(std::move(shared));
  return OkStatus();
}

Status CloudService::RemoveRule(const std::string& rule_id) {
  const std::lock_guard<std::mutex> lock(rules_mutex_);
  const auto it = rules_.find(rule_id);
  if (it == rules_.end()) return NotFoundError("no such rule: " + rule_id);
  const std::shared_ptr<const Rule> removed = std::move(it->second);
  rules_.erase(it);
  EraseWatchAgentEntry(removed->watch_agent, removed.get());
  rule_index_.Publish(rule_index_.Acquire()->Without(*removed));
  if (Agent* agent = FindAgent(removed->watch_agent)) agent->RemoveRuleFilter(rule_id);
  return OkStatus();
}

std::vector<Rule> CloudService::Rules() const {
  const std::lock_guard<std::mutex> lock(rules_mutex_);
  std::vector<Rule> out;
  out.reserve(rules_.size());
  for (const auto& [id, rule] : rules_) out.push_back(*rule);
  return out;
}

std::vector<Rule> CloudService::RulesForWatchAgent(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(rules_mutex_);
  std::vector<Rule> out;
  const auto it = rules_by_watch_agent_.find(name);
  if (it == rules_by_watch_agent_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& rule : it->second) out.push_back(*rule);
  return out;
}

size_t CloudService::RuleCount() const {
  const std::lock_guard<std::mutex> lock(rules_mutex_);
  return rules_.size();
}

void CloudService::RegisterAgent(Agent& agent) {
  {
    const std::lock_guard<std::mutex> lock(agents_mutex_);
    agents_[agent.name()] = &agent;
  }
  // Push any rules already registered for this agent: one secondary-map
  // lookup, not a scan over every tenant's rules.
  const std::lock_guard<std::mutex> lock(rules_mutex_);
  const auto it = rules_by_watch_agent_.find(agent.name());
  if (it != rules_by_watch_agent_.end()) {
    for (const auto& rule : it->second) agent.InstallRuleFilter(rule);
  }
}

void CloudService::DeregisterAgent(const std::string& name) {
  const std::lock_guard<std::mutex> lock(agents_mutex_);
  agents_.erase(name);
}

Agent* CloudService::FindAgent(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(agents_mutex_);
  const auto it = agents_.find(name);
  return it == agents_.end() ? nullptr : it->second;
}

Status CloudService::ReportEvent(const std::string& agent_name,
                                 const monitor::FsEvent& event) {
  {
    const std::lock_guard<std::mutex> lock(rng_mutex_);
    if (config_.report_drop_prob > 0 && rng_.NextBool(config_.report_drop_prob)) {
      reports_dropped_->Add();
      return UnavailableError("report lost in flight (injected)");
    }
  }
  // Fairness lane: when the event's matching rules all belong to one
  // tenant (the common case — a tenant's rules watch its own namespace),
  // the report rides that tenant's lane; mixed or unmatched reports ride
  // the shared lane. One snapshot probe, no locks.
  std::string lane;
  {
    const auto index = rule_index_.Acquire();
    std::vector<const Rule*> matches;
    index->Match(event, matches);
    bool mixed = false;
    for (const Rule* rule : matches) {
      if (rule == matches.front()) {
        lane = rule->tenant;
      } else if (lane != rule->tenant) {
        mixed = true;
      }
    }
    if (mixed) lane.clear();
  }
  json::Object envelope;
  envelope["agent"] = json::Value(agent_name);
  envelope["event"] = event.ToJson();
  queue_.Send(json::Value(std::move(envelope)).Dump(), std::move(lane));
  reports_received_->Add();
  return OkStatus();
}

bool CloudService::TakeActionToken(const std::string& tenant) {
  if (config_.tenant_action_rate <= 0.0) return true;  // quotas disabled
  const std::lock_guard<std::mutex> lock(quota_mutex_);
  const VirtualTime now = authority_->Now();
  TenantBucket& bucket = quota_[tenant];
  if (!bucket.primed) {
    bucket.tokens = config_.tenant_action_burst;
    bucket.primed = true;
  } else {
    const double dt =
        static_cast<double>((now - bucket.last).count()) / 1e9;  // virtual s
    bucket.tokens = std::min(config_.tenant_action_burst,
                             bucket.tokens + config_.tenant_action_rate * dt);
  }
  bucket.last = now;
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

bool CloudService::ProcessMessage(const QueueMessage& message) {
  auto parsed = json::Parse(message.body);
  if (!parsed.ok()) {
    log::Warn("cloud", "dropping malformed queue entry: {}", parsed.status().ToString());
    return true;  // delete: retrying cannot fix it
  }
  auto event = monitor::FsEvent::FromJson((*parsed)["event"]);
  if (!event.ok()) {
    log::Warn("cloud", "dropping undecodable event: {}", event.status().ToString());
    return true;
  }
  // Evaluate against the compiled snapshot (the reporting agent's filter
  // is advisory; the cloud is authoritative, so rules added between
  // filtering and processing still fire). The handle keeps the snapshot,
  // and so the matched Rule pointers, alive for the rest of this message
  // — no rules_mutex_ acquisition.
  const auto index = rule_index_.Acquire();
  std::vector<const Rule*> matches;
  index->Match(*event, matches);
  for (const Rule* rule : matches) {
    if (!TakeActionToken(rule->tenant)) {
      // Over quota: park the matched action on the DLQ (its tenant's lane)
      // for operator inspection / later re-injection instead of letting
      // one tenant's rule storm monopolize the executor fleet.
      actions_throttled_->Add();
      json::Object parked;
      parked["tenant"] = json::Value(rule->tenant);
      parked["rule"] = json::Value(rule->id);
      parked["event"] = event->ToJson();
      queue_.PushDeadLetter(json::Value(std::move(parked)).Dump(), rule->tenant);
      continue;
    }
    Agent* agent = FindAgent(rule->action.agent);
    if (agent == nullptr) {
      log::Warn("cloud", "rule {} targets unknown agent {}", rule->id,
                rule->action.agent);
      continue;
    }
    ActionRequest request;
    request.rule_id = rule->id;
    request.spec = rule->action;
    request.event = *event;
    request.attempt = message.receive_count;
    if (agent->EnqueueAction(std::move(request)).ok()) {
      actions_dispatched_->Add();
    }
  }
  events_processed_->Add();

  // Injected Lambda crash: the entry is NOT deleted and will be
  // redelivered after its visibility timeout (the cleanup path).
  {
    const std::lock_guard<std::mutex> lock(rng_mutex_);
    if (config_.worker_crash_prob > 0 && rng_.NextBool(config_.worker_crash_prob)) {
      worker_crashes_->Add();
      return false;
    }
  }
  return true;
}

void CloudService::WorkerLoop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    auto message = queue_.Receive(config_.worker_poll);
    if (!message.has_value()) continue;
    if (ProcessMessage(*message)) {
      // Only a successful delete removes the entry (a stale receipt means
      // the message was redelivered and someone else will finish it).
      if (queue_.Delete(message->receipt).ok() && queue_completed_ != nullptr) {
        queue_completed_->Add();
      }
    }
  }
}

void CloudService::CleanupLoop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    authority_->IdleFor(config_.cleanup_interval);
    queue_.CleanupSweep();
  }
}

size_t CloudService::PumpUntilQuiet() {
  size_t handled = 0;
  while (true) {
    queue_.CleanupSweep();
    auto message = queue_.Receive();
    if (!message.has_value()) break;
    if (ProcessMessage(*message)) {
      if (queue_.Delete(message->receipt).ok() && queue_completed_ != nullptr) {
        queue_completed_->Add();
      }
    }
    ++handled;
  }
  return handled;
}

size_t CloudService::DeadLetterDepth() const { return queue_.DeadLetterDepth(); }

std::vector<QueueMessage> CloudService::DrainDeadLetters() {
  std::vector<QueueMessage> drained = queue_.DrainDeadLetters();
  // Drained poison leaves the system (the "dead_lettered" held account
  // drops with it); book the departure so the cloud.queue row stays
  // balanced.
  if (dlq_drained_ != nullptr) dlq_drained_->Add(drained.size());
  return drained;
}

CloudStats CloudService::Stats() const {
  CloudStats stats;
  stats.reports_received = reports_received_->Get();
  stats.reports_dropped = reports_dropped_->Get();
  stats.events_processed = events_processed_->Get();
  stats.actions_dispatched = actions_dispatched_->Get();
  stats.worker_crashes = worker_crashes_->Get();
  stats.actions_throttled = actions_throttled_->Get();
  stats.redeliveries = queue_.Redelivered();
  stats.dead_letters = queue_.DeadLetterDepth();
  return stats;
}

}  // namespace sdci::ripple
