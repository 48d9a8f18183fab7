// CloudService: Ripple's reliable rule-evaluation and action-routing core.
//
// Mirrors the paper's architecture: agents report filtered events; each
// report is "immediately placed in a reliable SQS queue"; a pool of
// Lambda-style workers pops entries, evaluates the active rules and routes
// matching actions to the executing agent, deleting queue entries only
// after successful processing; a cleanup function periodically revives
// entries whose worker crashed. Failure injection knobs let tests exercise
// every reliability path:
//   report_drop_prob — the agent's report is lost in flight (the agent
//                      retries, per the paper);
//   worker_crash_prob — a worker dies after dispatching but before
//                      deleting its entry (redelivery => at-least-once).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "monitor/event.h"
#include "monitor/flow_ledger.h"
#include "ripple/rule.h"
#include "ripple/rule_index.h"
#include "ripple/sqs.h"

namespace sdci::ripple {

class Agent;

struct CloudConfig {
  size_t worker_count = 2;
  VirtualDuration worker_poll = Millis(5);      // long-poll bound per receive
  VirtualDuration cleanup_interval = Millis(200);
  ReliableQueueConfig queue;
  double report_drop_prob = 0.0;
  double worker_crash_prob = 0.0;
  uint64_t fault_seed = 42;
  // Multi-tenant isolation: each tenant's matched actions drain a token
  // bucket refilled at `tenant_action_rate` per virtual second up to
  // `tenant_action_burst` capacity. Over-quota actions are parked on the
  // DLQ (counted as actions_throttled) instead of dispatched, so a rule
  // storm in one tenant cannot monopolize the worker pool. 0 = unmetered.
  double tenant_action_rate = 0.0;
  double tenant_action_burst = 64.0;
  // Observability: counters register into `metrics` (private registry when
  // null); SQS depths are exported as scrape-time callbacks.
  std::shared_ptr<MetricsRegistry> metrics;
  // Flow-conservation ledger (null = disabled). The cloud books the
  // cloud.queue boundary: reports in, completed deletes (and drained dead
  // letters) out, queue + DLQ depths held. Counted in queue messages — the
  // at-least-once redeliveries mean "events processed" is NOT conserved,
  // but accepted sends vs. completed deletes is.
  std::shared_ptr<FlowLedger> flow;
};

struct CloudStats {
  uint64_t reports_received = 0;
  uint64_t reports_dropped = 0;   // injected network losses
  uint64_t events_processed = 0;
  uint64_t actions_dispatched = 0;
  uint64_t worker_crashes = 0;    // injected
  uint64_t actions_throttled = 0; // over tenant quota, parked on the DLQ
  uint64_t redeliveries = 0;
  uint64_t dead_letters = 0;
};

class CloudService {
 public:
  CloudService(const TimeAuthority& authority, CloudConfig config = {});
  ~CloudService();

  CloudService(const CloudService&) = delete;
  CloudService& operator=(const CloudService&) = delete;

  void Start();
  void Stop();

  // --- Rule management (the control plane) ---

  // Registers (or replaces) a rule and distributes it to its watch
  // agent's filter. The rule is copied once; the cloud's maps and index
  // and the agent's index all share that copy. Agent filters change under
  // the rules lock, so they follow the cloud's order of mutations, and a
  // replacement that moves a rule to another watch agent removes it from
  // the old one.
  Status RegisterRule(const Rule& rule);
  Status RemoveRule(const std::string& rule_id);
  [[nodiscard]] std::vector<Rule> Rules() const;
  // O(this agent's rules) via the per-watch-agent secondary map — the
  // rule-sync path never scans the full rule set.
  [[nodiscard]] std::vector<Rule> RulesForWatchAgent(const std::string& name) const;
  [[nodiscard]] size_t RuleCount() const;

  // --- Agent registry ---

  void RegisterAgent(Agent& agent);
  void DeregisterAgent(const std::string& name);
  [[nodiscard]] Agent* FindAgent(const std::string& name) const;

  // --- Event intake (the data plane) ---

  // Called by agents. May fail with kUnavailable (injected network loss);
  // the agent is expected to retry.
  Status ReportEvent(const std::string& agent_name, const monitor::FsEvent& event);

  // Processes queue entries synchronously until empty (for tests and
  // single-threaded harnesses; workers need not be running).
  size_t PumpUntilQuiet();

  // --- Dead-letter visibility ---

  // Messages that exhausted max_receives (poison: every delivery failed).
  // Depth is also exported as CloudStats::dead_letters; Drain removes and
  // returns them for operator inspection or re-injection.
  [[nodiscard]] size_t DeadLetterDepth() const;
  std::vector<QueueMessage> DrainDeadLetters();

  [[nodiscard]] CloudStats Stats() const;
  [[nodiscard]] const ReliableQueue& queue() const noexcept { return queue_; }

 private:
  void WorkerLoop(const std::stop_token& stop);
  void CleanupLoop(const std::stop_token& stop);
  // Handles one queue message. Returns true when fully processed (and the
  // entry should be deleted).
  bool ProcessMessage(const QueueMessage& message);
  void EraseWatchAgentEntry(const std::string& watch_agent, const Rule* rule);
  // Takes one matched-action token from the tenant's bucket; false when
  // the tenant is over quota (the caller routes the action to the DLQ).
  [[nodiscard]] bool TakeActionToken(const std::string& tenant);

  const TimeAuthority* authority_;
  CloudConfig config_;
  ReliableQueue queue_;

  // Control plane only: guards rules_, its derived structures, index
  // mutations and the filter pushes to agents. The per-message evaluation
  // path holds a snapshot handle instead.
  mutable std::mutex rules_mutex_;
  std::map<std::string, std::shared_ptr<const Rule>> rules_;
  // Secondary map for the rule-sync path (RegisterAgent, RulesForWatchAgent):
  // the same shared rules, grouped by watch agent.
  std::map<std::string, std::vector<std::shared_ptr<const Rule>>> rules_by_watch_agent_;
  // Copy-on-write compiled dispatch over rules_ (ripple/rule_index.h):
  // each mutation publishes a With/Without delta under rules_mutex_;
  // workers take one refcounted handle per message.
  RuleSnapshotSlot rule_index_;

  // Per-tenant matched-action token buckets (virtual-time refill).
  struct TenantBucket {
    double tokens = 0.0;
    VirtualTime last{};
    bool primed = false;
  };
  mutable std::mutex quota_mutex_;
  std::map<std::string, TenantBucket> quota_;

  mutable std::mutex agents_mutex_;
  std::map<std::string, Agent*> agents_;

  mutable std::mutex rng_mutex_;
  Rng rng_;

  // Registry-backed counters (config_.metrics, or a private registry).
  std::shared_ptr<MetricsRegistry> metrics_;
  std::shared_ptr<Counter> reports_received_;
  std::shared_ptr<Counter> reports_dropped_;
  std::shared_ptr<Counter> events_processed_;
  std::shared_ptr<Counter> actions_dispatched_;
  std::shared_ptr<Counter> worker_crashes_;
  std::shared_ptr<Counter> actions_throttled_;
  // cloud.queue ledger out-accounts (null when config_.flow is unset).
  std::shared_ptr<Counter> queue_completed_;  // successful Delete()s
  std::shared_ptr<Counter> dlq_drained_;      // DrainDeadLetters removals
  // Expires when this service dies, so SQS-depth scrape callbacks in a
  // longer-lived registry stop touching queue_.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::vector<std::jthread> workers_;
  std::jthread cleanup_thread_;
  std::atomic<bool> running_{false};
};

}  // namespace sdci::ripple
