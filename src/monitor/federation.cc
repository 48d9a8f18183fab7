#include "monitor/federation.h"

#include <algorithm>
#include <optional>
#include <queue>

namespace sdci::monitor {

namespace {
// Longest single park of a subscriber told to wait forever; it then
// sweeps again and parks anew.
constexpr std::chrono::nanoseconds kForever = std::chrono::hours(1);
}  // namespace

std::vector<FsEvent> MergeByHlc(std::vector<std::vector<FsEvent>> runs) {
  // Classic k-way merge with a min-heap of (run, position) heads. The heap
  // comparison is the HLC stamp itself — defaulted lexicographic
  // (wall_ns, logical, origin) — with the run index as the final tie
  // breaker so the merge is stable for equal stamps within one run.
  struct Head {
    HlcStamp stamp;
    size_t run;
    size_t pos;
  };
  const auto later = [](const Head& a, const Head& b) {
    if (a.stamp != b.stamp) return b.stamp < a.stamp;
    return b.run < a.run;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heads(later);
  size_t total = 0;
  for (size_t run = 0; run < runs.size(); ++run) {
    total += runs[run].size();
    if (!runs[run].empty()) heads.push({runs[run][0].hlc, run, 0});
  }
  std::vector<FsEvent> merged;
  merged.reserve(total);
  while (!heads.empty()) {
    const Head head = heads.top();
    heads.pop();
    merged.push_back(std::move(runs[head.run][head.pos]));
    const size_t next = head.pos + 1;
    if (next < runs[head.run].size()) {
      heads.push({runs[head.run][next].hlc, head.run, next});
    }
  }
  return merged;
}

std::string_view ShardFetchVerdictName(ShardFetchVerdict v) noexcept {
  switch (v) {
    case ShardFetchVerdict::kOk:
      return "ok";
    case ShardFetchVerdict::kSkippedOpenCircuit:
      return "skipped-open-circuit";
    case ShardFetchVerdict::kTimedOut:
      return "timed-out";
    case ShardFetchVerdict::kFailed:
      return "failed";
  }
  return "?";
}

FleetHistoryClient::FleetHistoryClient(msgq::Context& context,
                                       const std::vector<std::string>& api_endpoints,
                                       std::shared_ptr<trace::Tracer> tracer,
                                       const TimeAuthority* authority,
                                       std::shared_ptr<ShardHealthTracker> health)
    : tracer_(std::move(tracer)),
      authority_(authority),
      health_(health != nullptr
                  ? std::move(health)
                  : std::make_shared<ShardHealthTracker>(api_endpoints.size())) {
  clients_.reserve(api_endpoints.size());
  for (const std::string& endpoint : api_endpoints) {
    clients_.push_back(std::make_unique<HistoryClient>(context, endpoint));
  }
}

Result<FleetHistoryClient::FederatedPage> FleetHistoryClient::FetchTimeRange(
    VirtualTime from, VirtualTime to, size_t max_per_shard,
    std::chrono::nanoseconds timeout) {
  // Floor per-shard slice: even a nearly-spent budget buys each remaining
  // shard a real (if short) request rather than a guaranteed timeout.
  constexpr std::chrono::nanoseconds kMinSlice = std::chrono::milliseconds(1);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  FederatedPage page;
  page.shard_pages.reserve(clients_.size());
  page.shard_verdicts.reserve(clients_.size());
  std::vector<std::vector<FsEvent>> runs;
  runs.reserve(clients_.size());
  const auto miss = [&page, &runs](size_t shard, ShardFetchVerdict verdict) {
    runs.emplace_back();
    page.shard_pages.emplace_back();  // placeholder; verdict says why
    page.shard_verdicts.push_back(verdict);
    page.missing_shards.push_back(shard);
    page.partial = true;
  };
  for (size_t shard = 0; shard < clients_.size(); ++shard) {
    // Open breaker: don't spend budget on a shard known to be down — skip
    // without a request (so no outcome is recorded; the half-open probe
    // after cooldown is what re-tests it).
    if (!health_->AllowRequest(shard)) {
      miss(shard, ShardFetchVerdict::kSkippedOpenCircuit);
      continue;
    }
    // Split the remaining budget evenly across the shards still waiting,
    // so one slow shard cannot eat every later shard's slice.
    const std::chrono::nanoseconds remaining =
        deadline - std::chrono::steady_clock::now();
    if (remaining <= std::chrono::nanoseconds(0)) {
      // No request was made, so this is not breaker failure evidence.
      miss(shard, ShardFetchVerdict::kTimedOut);
      continue;
    }
    const auto slice = std::max(
        kMinSlice, remaining / static_cast<int64_t>(clients_.size() - shard));
    auto fetched = clients_[shard]->FetchTimeRange(from, to, max_per_shard, slice);
    if (!fetched.ok()) {
      health_->RecordFailure(shard);
      miss(shard, fetched.status().code() == StatusCode::kTimedOut
                      ? ShardFetchVerdict::kTimedOut
                      : ShardFetchVerdict::kFailed);
      continue;
    }
    health_->RecordSuccess(shard);
    page.shard_verdicts.push_back(ShardFetchVerdict::kOk);
    runs.push_back(fetched->events);  // shard_pages keep their own copies
    page.shard_pages.push_back(std::move(fetched.value()));
  }
  // A page with zero answering shards is not a partial result, it is an
  // outage of the whole read path — report it as such.
  if (page.missing_shards.size() == clients_.size() && !clients_.empty()) {
    return UnavailableError("no shard answered the federated fetch");
  }
  const VirtualTime merge_start =
      tracer_ != nullptr && authority_ != nullptr ? authority_->Now() : VirtualTime{};
  page.events = MergeByHlc(std::move(runs));
  if (tracer_ != nullptr && authority_ != nullptr) {
    const VirtualTime merge_end = authority_->Now();
    for (const FsEvent& event : page.events) {
      if (event.trace_id == 0) continue;
      tracer_->Record(event.trace_id, event.parent_span, trace::kFleetMerge,
                      "federation", merge_start, merge_end);
    }
  }
  return page;
}

Result<HistoryClient::Page> FleetHistoryClient::FetchShard(
    size_t shard, uint64_t from_seq, size_t max, std::chrono::nanoseconds timeout) {
  if (shard >= clients_.size()) {
    return InvalidArgumentError("no such shard");
  }
  return clients_[shard]->Fetch(from_seq, max, timeout);
}

FleetSubscriber::FleetSubscriber(msgq::Context& context,
                                 const std::vector<std::string>& publish_endpoints,
                                 const std::vector<std::string>& api_endpoints,
                                 RecoveringSubscriberConfig config,
                                 std::shared_ptr<ShardHealthTracker> health)
    : health_(std::move(health)) {
  // The merge row is named after the subscriber (not "fleet": that label
  // is the watermark registry's cross-instance rollup).
  const std::string instance = config.name.empty() ? "consumer" : config.name;
  if (config.watermarks != nullptr) {
    wm_merge_ = config.watermarks->Handle(trace::kFleetMerge, instance);
  }
  if (config.flow != nullptr) {
    merged_in_ =
        config.flow->Account("fleet.merge", instance, FlowKind::kIn, "received");
    merged_out_ =
        config.flow->Account("fleet.merge", instance, FlowKind::kOut, "delivered");
  }
  shards_.reserve(publish_endpoints.size());
  for (size_t i = 0; i < publish_endpoints.size(); ++i) {
    RecoveringSubscriberConfig shard_config = config;
    if (!config.name.empty() && publish_endpoints.size() > 1) {
      shard_config.name = config.name + "." + std::to_string(i);
    }
    shards_.push_back(std::make_unique<RecoveringSubscriber>(
        context, publish_endpoints[i], api_endpoints.at(i),
        std::move(shard_config)));
    shards_.back()->AttachNotifier(notifier_);
  }
}

Result<EventBatch> FleetSubscriber::Sweep() {
  const size_t n = shards_.size();
  size_t closed = 0;
  const auto take = [&](size_t index) -> std::optional<EventBatch> {
    auto batch = shards_[index]->NextBatchFor(std::chrono::nanoseconds(0));
    if (batch.ok()) {
      next_shard_ = (index + 1) % n;
      return std::move(batch.value());
    }
    // Anything but kClosed (a timeout, an undecodable message) just means
    // this shard has nothing for us now.
    if (batch.status().code() == StatusCode::kClosed) ++closed;
    return std::nullopt;
  };
  // Open-circuit shards go last: a shard the breaker reads as down should
  // not delay the healthy ones, but its queued messages are still taken
  // (sweeping costs nothing, and recovery needs no action here: once the
  // breaker closes, RecoveringSubscriber's backfill heals the outage gap).
  std::vector<size_t> deferred;
  for (size_t hop = 0; hop < n; ++hop) {
    const size_t index = (next_shard_ + hop) % n;
    if (health_ != nullptr && health_->StateOf(index) == CircuitState::kOpen) {
      deferred.push_back(index);
      continue;
    }
    if (auto batch = take(index)) return std::move(*batch);
  }
  for (const size_t index : deferred) {
    if (auto batch = take(index)) return std::move(*batch);
  }
  if (closed == n) return ClosedError("every shard closed");
  return TimedOutError("no event");
}

Result<EventBatch> FleetSubscriber::NextBatchFor(std::chrono::nanoseconds timeout) {
  if (shards_.empty()) return ClosedError("no shards");
  const bool infinite = timeout < std::chrono::nanoseconds(0);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    // Read the version BEFORE the sweep: a delivery (or Close) racing the
    // sweep bumps it, so the wait below returns at once instead of
    // sleeping on a message the sweep just missed.
    const uint64_t version = notifier_->Version();
    auto batch = Sweep();
    if (batch.ok()) {
      // Pass-through delivery: in and out book together (held is always 0
      // at this boundary; only a merge bug could unbalance the row).
      if (merged_in_ != nullptr) merged_in_->Add(batch->size());
      if (merged_out_ != nullptr) merged_out_->Add(batch->size());
      if (wm_merge_ != nullptr) wm_merge_->Advance(batch->view().time(batch->size() - 1));
      return batch;
    }
    if (batch.status().code() == StatusCode::kClosed) return batch.status();
    std::chrono::nanoseconds wait = kForever;
    if (!infinite) {
      wait = deadline - std::chrono::steady_clock::now();
      if (wait <= std::chrono::nanoseconds(0)) return batch.status();
    }
    notifier_->WaitPast(version, wait);
  }
}

Result<EventBatch> FleetSubscriber::DrainMergedFor(std::chrono::nanoseconds timeout,
                                                   std::chrono::nanoseconds quiet) {
  // Collect per-shard runs (each in that shard's sequence == HLC order),
  // stopping once every shard has been quiet for `quiet`, then merge into
  // the fleet-wide HLC order. Each round takes one queued message per
  // shard without blocking; a round that finds nothing parks on the
  // notifier until a delivery, the quiet period or the deadline.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::vector<std::vector<FsEvent>> runs(shards_.size());
  auto quiet_since = std::chrono::steady_clock::now();
  bool any = false;
  while (true) {
    const uint64_t version = notifier_->Version();
    bool round_got_events = false;
    for (size_t shard = 0; shard < shards_.size(); ++shard) {
      // An open breaker is skipped the same way a quiet shard is — its
      // events are simply not in this drain.
      if (health_ != nullptr &&
          health_->StateOf(shard) == CircuitState::kOpen) {
        continue;
      }
      auto batch = shards_[shard]->NextBatchFor(std::chrono::nanoseconds(0));
      if (!batch.ok()) continue;  // timeout or closed: this shard is quiet
      if (merged_in_ != nullptr) merged_in_->Add(batch->size());
      for (FsEvent& event : batch->events()) runs[shard].push_back(std::move(event));
      round_got_events = true;
      any = true;
    }
    const auto now = std::chrono::steady_clock::now();
    if (round_got_events) quiet_since = now;
    const auto until = std::min(deadline, quiet_since + quiet);
    if (now >= until) break;
    if (!round_got_events) notifier_->WaitPast(version, until - now);
  }
  if (!any) return TimedOutError("no events before deadline");
  EventBatch merged(MergeByHlc(std::move(runs)));
  if (merged_out_ != nullptr) merged_out_->Add(merged.size());
  if (wm_merge_ != nullptr) wm_merge_->Advance(merged.view().time(merged.size() - 1));
  return merged;
}

void FleetSubscriber::Close() {
  for (auto& shard : shards_) shard->Close();
}

uint64_t FleetSubscriber::received() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->received();
  return total;
}

uint64_t FleetSubscriber::gaps_detected() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->gaps_detected();
  return total;
}

uint64_t FleetSubscriber::events_backfilled() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->events_backfilled();
  return total;
}

uint64_t FleetSubscriber::events_unrecoverable() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->events_unrecoverable();
  return total;
}

}  // namespace sdci::monitor
