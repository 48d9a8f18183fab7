#include "msgq/context.h"

#include <algorithm>
#include <thread>

#include "common/strings.h"

namespace sdci::msgq {

// ---------- FaultInjector ----------

FaultInjector::Action FaultInjector::Roll() {
  std::chrono::nanoseconds stall{0};
  Action action = Action::kDeliver;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (config_.delay_prob > 0 && rng_.NextBool(config_.delay_prob)) {
      ++stats_.delayed;
      stall = config_.delay;
    }
    if (config_.drop_prob > 0 && rng_.NextBool(config_.drop_prob)) {
      ++stats_.dropped;
      action = Action::kDrop;
    } else if (config_.duplicate_prob > 0 && rng_.NextBool(config_.duplicate_prob)) {
      ++stats_.duplicated;
      action = Action::kDuplicate;
    }
  }
  // Stall outside the lock so a delayed sender does not serialize its peers.
  if (stall.count() > 0) std::this_thread::sleep_for(stall);
  return action;
}

FaultStats FaultInjector::Stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// ---------- PollNotifier / Poller ----------

void PollNotifier::Signal() {
  // Dekker pair with WaitPast: the version bump and the waiter count are
  // both seq_cst, so either a parking waiter sees the new version or this
  // sees the waiter, and then notifies under the mutex the waiter holds
  // until it is inside the wait.
  version_.fetch_add(1, std::memory_order_seq_cst);
  if (waiters_.load(std::memory_order_seq_cst) == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  cv_.notify_all();
}

uint64_t PollNotifier::WaitPast(uint64_t seen_version,
                                std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  waiters_.fetch_add(1, std::memory_order_seq_cst);
  cv_.wait_for(lock, timeout, [&] {
    return version_.load(std::memory_order_seq_cst) != seen_version;
  });
  waiters_.fetch_sub(1, std::memory_order_relaxed);
  return Version();
}

size_t Poller::Add(std::shared_ptr<SubSocket> socket) {
  socket->AttachNotifier(notifier_);
  sockets_.push_back(std::move(socket));
  return sockets_.size() - 1;
}

std::vector<size_t> Poller::Wait(std::chrono::nanoseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    // Read the version BEFORE checking readiness: a delivery racing the
    // check bumps the version, so the wait below cannot miss it.
    const uint64_t version = notifier_->Version();
    std::vector<size_t> ready;
    for (size_t i = 0; i < sockets_.size(); ++i) {
      if (sockets_[i]->QueueDepth() > 0) ready.push_back(i);
    }
    if (!ready.empty()) return ready;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return {};
    notifier_->WaitPast(version, deadline - now);
  }
}

// ---------- SubSocket ----------

SubSocket::SubSocket(size_t hwm, HwmPolicy policy) : policy_(policy), queue_(hwm) {}

void SubSocket::AttachNotifier(std::shared_ptr<PollNotifier> notifier) {
  const std::lock_guard<std::mutex> lock(notifier_mutex_);
  notifier_ = std::move(notifier);
}

SubSocket::~SubSocket() { Close(); }

void SubSocket::Subscribe(std::string topic_prefix) {
  const std::lock_guard<std::mutex> lock(filter_mutex_);
  filters_.push_back(std::move(topic_prefix));
}

void SubSocket::Unsubscribe(const std::string& topic_prefix) {
  const std::lock_guard<std::mutex> lock(filter_mutex_);
  const auto it = std::find(filters_.begin(), filters_.end(), topic_prefix);
  if (it != filters_.end()) filters_.erase(it);
}

bool SubSocket::MatchesLocked(const std::string& topic) const {
  for (const auto& filter : filters_) {
    if (strings::StartsWith(topic, filter)) return true;
  }
  return false;
}

bool SubSocket::Deliver(const Message& message) {
  // A paused socket (SetAccepting(false)) models its host being
  // unreachable: refuse the hand-off so the producer holds the message.
  // Not counted in dropped_ — nothing was lost, the sender still owns it.
  if (!accepting()) return false;
  {
    const std::lock_guard<std::mutex> lock(filter_mutex_);
    if (!MatchesLocked(message.topic)) return false;
  }
  const bool accepted = DeliverToQueue(message);
  if (accepted) {
    const std::lock_guard<std::mutex> lock(notifier_mutex_);
    if (notifier_ != nullptr) notifier_->Signal();
  }
  return accepted;
}

bool SubSocket::DeliverToQueue(const Message& message) {
  switch (policy_) {
    case HwmPolicy::kDropNewest: {
      if (queue_.TryPush(message).ok()) {
        delivered_.Add();
        return true;
      }
      dropped_.Add();
      return false;
    }
    case HwmPolicy::kDropOldest: {
      while (!queue_.TryPush(message).ok()) {
        if (queue_.closed()) {
          dropped_.Add();
          return false;
        }
        if (queue_.TryPop().has_value()) dropped_.Add();
      }
      delivered_.Add();
      return true;
    }
    case HwmPolicy::kBlock: {
      if (queue_.Push(message).ok()) {
        delivered_.Add();
        return true;
      }
      dropped_.Add();
      return false;
    }
  }
  return false;
}

Result<Message> SubSocket::Receive() { return queue_.Pop(); }

Result<Message> SubSocket::ReceiveFor(std::chrono::nanoseconds timeout) {
  return queue_.PopFor(timeout);
}

std::optional<Message> SubSocket::TryReceive() { return queue_.TryPop(); }

void SubSocket::Close() {
  queue_.Close();
  // A waiter on the notifier re-checks the socket and sees it closed.
  const std::lock_guard<std::mutex> lock(notifier_mutex_);
  if (notifier_ != nullptr) notifier_->Signal();
}

// ---------- PUB hub ----------

struct PubSocket::Hub {
  std::mutex mutex;
  std::vector<std::weak_ptr<SubSocket>> subscribers;
  std::shared_ptr<FaultInjector> injector;

  std::shared_ptr<FaultInjector> Injector() {
    const std::lock_guard<std::mutex> lock(mutex);
    return injector;
  }

  // Snapshots live subscribers, pruning the dead.
  std::vector<std::shared_ptr<SubSocket>> Snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::shared_ptr<SubSocket>> live;
    live.reserve(subscribers.size());
    auto it = subscribers.begin();
    while (it != subscribers.end()) {
      if (auto sub = it->lock()) {
        live.push_back(std::move(sub));
        ++it;
      } else {
        it = subscribers.erase(it);
      }
    }
    return live;
  }
};

size_t PubSocket::Publish(Message message) {
  published_.Add();
  const auto subscribers = hub_->Snapshot();
  size_t deliveries = 1;
  if (const auto injector = hub_->Injector()) {
    switch (injector->Roll()) {
      case FaultInjector::Action::kDeliver:
        break;
      case FaultInjector::Action::kDrop:
        // Lost in flight: the sender saw its hand-off accepted (every
        // present subscriber counts), the wire ate it.
        return subscribers.size();
      case FaultInjector::Action::kDuplicate:
        deliveries = 2;
        break;
    }
  }
  size_t accepted = 0;
  for (size_t round = 0; round < deliveries; ++round) {
    for (const auto& sub : subscribers) {
      if (sub->Deliver(message)) ++accepted;
    }
  }
  return std::min(accepted, subscribers.size());
}

// ---------- PUSH/PULL ----------

struct PushSocket::Hub {
  std::mutex mutex;
  std::vector<std::weak_ptr<PullSocket>> pullers;
  std::shared_ptr<FaultInjector> injector;
  size_t cursor = 0;

  std::shared_ptr<FaultInjector> Injector() {
    const std::lock_guard<std::mutex> lock(mutex);
    return injector;
  }

  std::vector<std::shared_ptr<PullSocket>> Snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    std::vector<std::shared_ptr<PullSocket>> live;
    auto it = pullers.begin();
    while (it != pullers.end()) {
      if (auto pull = it->lock()) {
        live.push_back(std::move(pull));
        ++it;
      } else {
        it = pullers.erase(it);
      }
    }
    return live;
  }

  size_t NextCursor() {
    const std::lock_guard<std::mutex> lock(mutex);
    return cursor++;
  }
};

PullSocket::~PullSocket() { Close(); }

Result<Message> PullSocket::Pull() { return queue_.Pop(); }

Result<Message> PullSocket::PullFor(std::chrono::nanoseconds timeout) {
  return queue_.PopFor(timeout);
}

void PullSocket::Close() { queue_.Close(); }

Status PushSocket::Push(Message message) {
  // Try each live puller starting at the round-robin cursor; if all are
  // full, block on the selected one (ZMQ PUSH applies backpressure).
  const auto pullers = hub_->Snapshot();
  if (pullers.empty()) return UnavailableError("no PULL socket connected");
  size_t deliveries = 1;
  if (const auto injector = hub_->Injector()) {
    switch (injector->Roll()) {
      case FaultInjector::Action::kDeliver:
        break;
      case FaultInjector::Action::kDrop:
        return OkStatus();  // accepted by the wire, never arrives
      case FaultInjector::Action::kDuplicate:
        deliveries = 2;
        break;
    }
  }
  for (size_t round = 1; round < deliveries; ++round) {
    Status duplicate = PushOnce(pullers, message);
    if (!duplicate.ok()) return duplicate;
  }
  return PushOnce(pullers, std::move(message));
}

Status PushSocket::PushOnce(const std::vector<std::shared_ptr<PullSocket>>& pullers,
                            Message message) {
  // Paused pullers (SetAccepting(false)) are unreachable hosts: skip them,
  // and fail outright when none is left so the pusher holds the message.
  std::vector<std::shared_ptr<PullSocket>> live;
  live.reserve(pullers.size());
  for (const auto& puller : pullers) {
    if (puller->accepting()) live.push_back(puller);
  }
  if (live.empty()) return UnavailableError("no PULL socket accepting");
  const size_t start = hub_->NextCursor() % live.size();
  for (size_t i = 0; i < live.size(); ++i) {
    auto& puller = live[(start + i) % live.size()];
    if (puller->queue_.TryPush(message).ok()) return OkStatus();
  }
  return live[start]->queue_.Push(std::move(message));
}

// ---------- REQ/REP ----------

void Request::Reply(Message response) {
  if (promise_ != nullptr) {
    promise_->set_value(std::move(response));
    promise_.reset();
  }
}

RepSocket::~RepSocket() { Close(); }

Result<Request> RepSocket::Receive() { return queue_.Pop(); }

Result<Request> RepSocket::ReceiveFor(std::chrono::nanoseconds timeout) {
  return queue_.PopFor(timeout);
}

void RepSocket::Close() { queue_.Close(); }

struct ReqSocket::Hub {
  std::mutex mutex;
  std::vector<std::weak_ptr<RepSocket>> repliers;
  size_t cursor = 0;

  std::shared_ptr<RepSocket> PickReplier() {
    const std::lock_guard<std::mutex> lock(mutex);
    for (size_t attempts = 0; attempts < repliers.size(); ++attempts) {
      const size_t i = cursor++ % repliers.size();
      if (auto rep = repliers[i].lock()) return rep;
    }
    return nullptr;
  }
};

Result<Message> ReqSocket::RequestReply(Message message,
                                        std::chrono::nanoseconds timeout) {
  auto replier = hub_->PickReplier();
  if (replier == nullptr) return UnavailableError("no REP socket bound");
  Request request;
  request.message = std::move(message);
  request.promise_ = std::make_shared<std::promise<Message>>();
  auto future = request.promise_->get_future();
  const Status pushed = replier->queue_.Push(std::move(request));
  if (!pushed.ok()) return pushed;
  if (future.wait_for(timeout) != std::future_status::ready) {
    return TimedOutError("request timed out");
  }
  return future.get();
}

// ---------- Context ----------

struct Context::Impl {
  std::mutex mutex;
  std::unordered_map<std::string, std::shared_ptr<PubSocket::Hub>> pub_hubs;
  std::unordered_map<std::string, std::shared_ptr<PushSocket::Hub>> push_hubs;
  std::unordered_map<std::string, std::shared_ptr<ReqSocket::Hub>> req_hubs;
  std::unordered_map<std::string, std::shared_ptr<FaultInjector>> injectors;
  std::shared_ptr<MetricsRegistry> metrics;
  uint64_t socket_serial = 0;
  // Expires when the Context dies, so fault-stat callbacks held by a
  // longer-lived registry stop dereferencing this Impl.
  std::shared_ptr<bool> alive = std::make_shared<bool>(true);

  template <typename HubMap>
  typename HubMap::mapped_type HubFor(HubMap& map, const std::string& endpoint) {
    const std::lock_guard<std::mutex> lock(mutex);
    auto& slot = map[endpoint];
    if (slot == nullptr) {
      slot = std::make_shared<typename HubMap::mapped_type::element_type>();
    }
    return slot;
  }

  // Registers one fault-stat series; the callback resolves the injector at
  // scrape time so it tracks InjectFaults/ClearFaults churn.
  void RegisterFaultSeries(const std::shared_ptr<MetricsRegistry>& registry,
                           const std::string& name, const std::string& endpoint,
                           uint64_t FaultStats::* field) {
    const std::weak_ptr<bool> token = alive;
    registry->RegisterCallback(
        name, {{"endpoint", endpoint}},
        [this, token, endpoint, field]() -> std::optional<int64_t> {
          if (token.expired()) return std::nullopt;
          std::shared_ptr<FaultInjector> injector;
          {
            const std::lock_guard<std::mutex> lock(mutex);
            const auto it = injectors.find(endpoint);
            if (it == injectors.end()) return std::nullopt;
            injector = it->second;
          }
          return static_cast<int64_t>(injector->Stats().*field);
        });
  }

  void RegisterFaultCallbacks(const std::string& endpoint) {
    std::shared_ptr<MetricsRegistry> registry;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      registry = metrics;
    }
    if (registry == nullptr) return;
    RegisterFaultSeries(registry, "sdci_msgq_faults_dropped", endpoint,
                        &FaultStats::dropped);
    RegisterFaultSeries(registry, "sdci_msgq_faults_duplicated", endpoint,
                        &FaultStats::duplicated);
    RegisterFaultSeries(registry, "sdci_msgq_faults_delayed", endpoint,
                        &FaultStats::delayed);
  }
};

Context::Context() : impl_(std::make_unique<Impl>()) {}
Context::~Context() { impl_->alive.reset(); }

std::shared_ptr<PubSocket> Context::CreatePub(const std::string& endpoint) {
  auto hub = impl_->HubFor(impl_->pub_hubs, endpoint);
  return std::shared_ptr<PubSocket>(new PubSocket(std::move(hub)));
}

std::shared_ptr<SubSocket> Context::CreateSub(const std::string& endpoint, size_t hwm,
                                              HwmPolicy policy) {
  auto hub = impl_->HubFor(impl_->pub_hubs, endpoint);
  auto sub = std::shared_ptr<SubSocket>(new SubSocket(hwm, policy));
  {
    const std::lock_guard<std::mutex> lock(hub->mutex);
    hub->subscribers.push_back(sub);
  }
  std::shared_ptr<MetricsRegistry> registry;
  uint64_t serial = 0;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    registry = impl_->metrics;
    if (registry != nullptr) serial = impl_->socket_serial++;
  }
  if (registry != nullptr) {
    const MetricLabels labels{{"endpoint", endpoint},
                              {"socket", std::to_string(serial)}};
    const std::weak_ptr<SubSocket> weak = sub;
    registry->RegisterCallback(
        "sdci_msgq_sub_queue_depth", labels, [weak]() -> std::optional<int64_t> {
          const auto socket = weak.lock();
          if (socket == nullptr) return std::nullopt;
          return static_cast<int64_t>(socket->QueueDepth());
        });
    registry->RegisterCallback(
        "sdci_msgq_sub_dropped", labels, [weak]() -> std::optional<int64_t> {
          const auto socket = weak.lock();
          if (socket == nullptr) return std::nullopt;
          return static_cast<int64_t>(socket->dropped());
        });
  }
  return sub;
}

std::shared_ptr<PushSocket> Context::CreatePush(const std::string& endpoint) {
  auto hub = impl_->HubFor(impl_->push_hubs, endpoint);
  return std::shared_ptr<PushSocket>(new PushSocket(std::move(hub)));
}

std::shared_ptr<PullSocket> Context::CreatePull(const std::string& endpoint, size_t hwm) {
  auto hub = impl_->HubFor(impl_->push_hubs, endpoint);
  auto pull = std::shared_ptr<PullSocket>(new PullSocket(hwm));
  const std::lock_guard<std::mutex> lock(hub->mutex);
  hub->pullers.push_back(pull);
  return pull;
}

std::shared_ptr<ReqSocket> Context::CreateReq(const std::string& endpoint) {
  auto hub = impl_->HubFor(impl_->req_hubs, endpoint);
  return std::shared_ptr<ReqSocket>(new ReqSocket(std::move(hub)));
}

std::shared_ptr<RepSocket> Context::CreateRep(const std::string& endpoint, size_t hwm) {
  auto hub = impl_->HubFor(impl_->req_hubs, endpoint);
  auto rep = std::shared_ptr<RepSocket>(new RepSocket(hwm));
  const std::lock_guard<std::mutex> lock(hub->mutex);
  hub->repliers.push_back(rep);
  return rep;
}

void Context::InjectFaults(const std::string& endpoint, FaultConfig config) {
  auto injector = std::make_shared<FaultInjector>(config);
  auto pub_hub = impl_->HubFor(impl_->pub_hubs, endpoint);
  auto push_hub = impl_->HubFor(impl_->push_hubs, endpoint);
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->injectors[endpoint] = injector;
  }
  {
    const std::lock_guard<std::mutex> lock(pub_hub->mutex);
    pub_hub->injector = injector;
  }
  {
    const std::lock_guard<std::mutex> lock(push_hub->mutex);
    push_hub->injector = injector;
  }
  impl_->RegisterFaultCallbacks(endpoint);
}

void Context::ClearFaults(const std::string& endpoint) {
  auto pub_hub = impl_->HubFor(impl_->pub_hubs, endpoint);
  auto push_hub = impl_->HubFor(impl_->push_hubs, endpoint);
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->injectors.erase(endpoint);
  }
  {
    const std::lock_guard<std::mutex> lock(pub_hub->mutex);
    pub_hub->injector.reset();
  }
  {
    const std::lock_guard<std::mutex> lock(push_hub->mutex);
    push_hub->injector.reset();
  }
}

void Context::AttachMetrics(std::shared_ptr<MetricsRegistry> metrics) {
  std::vector<std::string> endpoints;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->metrics = std::move(metrics);
    endpoints.reserve(impl_->injectors.size());
    for (const auto& [endpoint, injector] : impl_->injectors) {
      endpoints.push_back(endpoint);
    }
  }
  // Injectors installed before the registry arrived get their series now.
  for (const auto& endpoint : endpoints) impl_->RegisterFaultCallbacks(endpoint);
}

FaultStats Context::FaultStatsFor(const std::string& endpoint) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->injectors.find(endpoint);
  return it == impl_->injectors.end() ? FaultStats{} : it->second->Stats();
}

}  // namespace sdci::msgq
