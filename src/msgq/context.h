// In-process messaging fabric modeled on ZeroMQ.
//
// The paper's monitor wires Collectors to the Aggregator and the Aggregator
// to consumers over ZeroMQ. This module reproduces the socket semantics the
// monitor relies on:
//   PUB/SUB   — fan-out with per-subscriber topic prefix filtering and a
//               high-water mark: a slow subscriber either blocks the
//               publisher or drops messages, per policy (ZMQ PUB drops).
//   PUSH/PULL — work distribution: each message goes to exactly one puller,
//               round-robin over connected pullers.
//   REQ/REP   — synchronous RPC, used by the Aggregator's historic-events
//               API.
// Endpoints are names like "inproc://monitor.events"; a Context is the
// registry binding them together. All sockets are thread-safe.
//
// Payloads are shared, not copied: Message holds its bytes behind a
// shared_ptr, so PUB fan-out to N subscribers enqueues N Messages that all
// reference one payload allocation (a refcount bump per subscriber, as
// with ZeroMQ's zero-copy message parts).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "msgq/message.h"

namespace sdci::msgq {

// What a publisher does when a subscriber's queue is at its high-water mark.
enum class HwmPolicy {
  kDropNewest,  // ZeroMQ PUB default: the new message is not enqueued
  kDropOldest,  // ring-buffer style: evict the oldest queued message
  kBlock,       // apply backpressure to the publisher
};

class Context;
class Poller;

// Per-endpoint fault injection: a model of a lossy wire between producers
// and this endpoint's consumers. Faults apply at send time, *after* the
// producer's hand-off is accepted — a dropped message looks delivered to
// the sender and simply never arrives, which is exactly how tests create
// subscriber sequence gaps (and duplicate deliveries) deterministically
// instead of racing a crash against the pipeline.
struct FaultConfig {
  double drop_prob = 0.0;       // message silently lost in flight
  double duplicate_prob = 0.0;  // message delivered twice
  double delay_prob = 0.0;      // sender stalled `delay` of real time
  std::chrono::nanoseconds delay{0};
  uint64_t seed = 1;
};

struct FaultStats {
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t delayed = 0;
};

// Thread-safe dice shared by every producer socket on one endpoint.
class FaultInjector {
 public:
  enum class Action { kDeliver, kDrop, kDuplicate };

  explicit FaultInjector(FaultConfig config) : config_(config), rng_(config.seed) {}

  // Rolls the fate of one message. A delay (if it fires) is realized by
  // sleeping the caller before this returns; drop wins over duplicate.
  Action Roll();

  [[nodiscard]] FaultStats Stats() const;

 private:
  const FaultConfig config_;
  mutable std::mutex mutex_;
  Rng rng_;
  FaultStats stats_;
};

// Shared wakeup channel between sockets and a Poller.
// Signal and Version are lock-free; Signal takes the mutex only when a
// waiter is parked, so a delivery with nobody waiting costs two atomics.
class PollNotifier {
 public:
  void Signal();
  // Blocks until Signal has been called after `seen_version`, or timeout.
  // Returns the current version.
  uint64_t WaitPast(uint64_t seen_version, std::chrono::nanoseconds timeout);
  [[nodiscard]] uint64_t Version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<uint64_t> version_{0};
  std::atomic<uint32_t> waiters_{0};
};

// Subscriber endpoint. Create via Context::CreateSub.
class SubSocket {
 public:
  ~SubSocket();

  // Adds a topic prefix filter. No filters = receive nothing (as in ZMQ);
  // subscribe to "" for everything.
  void Subscribe(std::string topic_prefix);
  void Unsubscribe(const std::string& topic_prefix);

  // Blocking receive (kClosed after Close()).
  Result<Message> Receive();
  // Receive with a real-time timeout.
  Result<Message> ReceiveFor(std::chrono::nanoseconds timeout);
  // Non-blocking.
  std::optional<Message> TryReceive();

  // Detaches from the hub and wakes blocked receivers, including a waiter
  // on the attached notifier.
  void Close();

  // Models the host behind this socket dropping off the network (partition,
  // hard outage): while not accepting, deliveries are refused — the
  // producer sees its hand-off rejected, exactly as if no subscriber were
  // bound — but messages already accepted stay queued and receivable, and
  // SetAccepting(true) restores normal delivery. Unlike Close() this is
  // reversible and loses nothing.
  void SetAccepting(bool accepting) noexcept {
    accepting_.store(accepting, std::memory_order_release);
  }
  [[nodiscard]] bool accepting() const noexcept {
    return accepting_.load(std::memory_order_acquire);
  }

  [[nodiscard]] uint64_t delivered() const noexcept { return delivered_.Get(); }
  [[nodiscard]] uint64_t dropped() const noexcept { return dropped_.Get(); }
  [[nodiscard]] size_t QueueDepth() const { return queue_.size(); }

  // Attaches a wakeup channel (used by Poller); deliveries and Close()
  // signal it.
  void AttachNotifier(std::shared_ptr<PollNotifier> notifier);

 private:
  friend class Context;
  friend class PubSocket;
  SubSocket(size_t hwm, HwmPolicy policy);

  bool MatchesLocked(const std::string& topic) const;
  // Called by the hub; applies the HWM policy. Returns false if dropped.
  bool Deliver(const Message& message);
  bool DeliverToQueue(const Message& message);

  mutable std::mutex filter_mutex_;
  std::vector<std::string> filters_;
  std::atomic<bool> accepting_{true};
  HwmPolicy policy_;
  BoundedQueue<Message> queue_;
  Counter delivered_;
  Counter dropped_;
  std::mutex notifier_mutex_;
  std::shared_ptr<PollNotifier> notifier_;
};

// Waits on several SubSockets at once (the zmq_poll equivalent).
// Thread-compatible: drive one Poller from one thread.
class Poller {
 public:
  // Registers a socket; returns its index in Wait() results.
  size_t Add(std::shared_ptr<SubSocket> socket);

  // Blocks until at least one registered socket has a queued message or
  // the (real-time) timeout expires. Returns the indices of all sockets
  // with pending messages (empty on timeout).
  std::vector<size_t> Wait(std::chrono::nanoseconds timeout);

 private:
  std::shared_ptr<PollNotifier> notifier_ = std::make_shared<PollNotifier>();
  std::vector<std::shared_ptr<SubSocket>> sockets_;
};

// Publisher endpoint. Create via Context::CreatePub.
class PubSocket {
 public:
  // Fans `message` out to every subscriber whose filter matches. Returns
  // the number of subscribers that accepted it.
  size_t Publish(Message message);

  [[nodiscard]] uint64_t published() const noexcept { return published_.Get(); }

 private:
  friend class Context;
  struct Hub;
  explicit PubSocket(std::shared_ptr<Hub> hub) : hub_(std::move(hub)) {}

  std::shared_ptr<Hub> hub_;
  Counter published_;
};

class PullSocket;

// PUSH endpoint: each message is delivered to exactly one PULL socket.
class PushSocket {
 public:
  // Round-robin delivery; blocks when every puller is full (PUSH applies
  // backpressure in ZMQ). Fails with kUnavailable when no puller exists.
  Status Push(Message message);

 private:
  friend class Context;
  struct Hub;
  explicit PushSocket(std::shared_ptr<Hub> hub) : hub_(std::move(hub)) {}
  Status PushOnce(const std::vector<std::shared_ptr<PullSocket>>& pullers,
                  Message message);
  std::shared_ptr<Hub> hub_;
};

class PullSocket {
 public:
  ~PullSocket();
  Result<Message> Pull();
  Result<Message> PullFor(std::chrono::nanoseconds timeout);
  void Close();

  // Partition model, mirroring SubSocket::SetAccepting: while not
  // accepting, pushers skip this puller (kUnavailable when none is left);
  // queued messages stay receivable.
  void SetAccepting(bool accepting) noexcept {
    accepting_.store(accepting, std::memory_order_release);
  }
  [[nodiscard]] bool accepting() const noexcept {
    return accepting_.load(std::memory_order_acquire);
  }

 private:
  friend class Context;
  friend class PushSocket;
  explicit PullSocket(size_t hwm) : queue_(hwm) {}
  std::atomic<bool> accepting_{true};
  BoundedQueue<Message> queue_;
};

// One in-flight request awaiting a reply.
class Request {
 public:
  Message message;
  // Fulfills the request; may be called once.
  void Reply(Message response);

 private:
  friend class Context;
  friend class ReqSocket;
  std::shared_ptr<std::promise<Message>> promise_;
};

// REP endpoint: serves requests.
class RepSocket {
 public:
  ~RepSocket();
  // Blocks for the next request (kClosed after Close()).
  Result<Request> Receive();
  Result<Request> ReceiveFor(std::chrono::nanoseconds timeout);
  void Close();

 private:
  friend class Context;
  friend class ReqSocket;
  explicit RepSocket(size_t hwm) : queue_(hwm) {}
  BoundedQueue<Request> queue_;
};

// REQ endpoint: issues requests.
class ReqSocket {
 public:
  // Sends and waits for the reply (real-time timeout).
  Result<Message> RequestReply(Message message, std::chrono::nanoseconds timeout);

 private:
  friend class Context;
  struct Hub;
  explicit ReqSocket(std::shared_ptr<Hub> hub) : hub_(std::move(hub)) {}
  std::shared_ptr<Hub> hub_;
};

// The endpoint registry. Sockets returned as shared_ptr; a socket remains
// usable while any holder keeps it alive. Context must outlive creation
// calls but not the sockets themselves.
class Context {
 public:
  Context();
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // PUB/SUB. Multiple pubs and subs may share one endpoint.
  std::shared_ptr<PubSocket> CreatePub(const std::string& endpoint);
  std::shared_ptr<SubSocket> CreateSub(const std::string& endpoint, size_t hwm = 65536,
                                       HwmPolicy policy = HwmPolicy::kDropNewest);

  // PUSH/PULL.
  std::shared_ptr<PushSocket> CreatePush(const std::string& endpoint);
  std::shared_ptr<PullSocket> CreatePull(const std::string& endpoint, size_t hwm = 65536);

  // REQ/REP. One logical service per endpoint (multiple REP sockets share
  // the request queue, acting as a worker pool).
  std::shared_ptr<ReqSocket> CreateReq(const std::string& endpoint);
  std::shared_ptr<RepSocket> CreateRep(const std::string& endpoint, size_t hwm = 1024);

  // Fault injection: installs (or replaces) a lossy-wire model on
  // `endpoint`, affecting every PUB and PUSH send on it from now on.
  // ClearFaults restores perfect delivery; FaultStatsFor reports what the
  // current injector has done ({} when none is installed).
  void InjectFaults(const std::string& endpoint, FaultConfig config);
  void ClearFaults(const std::string& endpoint);
  [[nodiscard]] FaultStats FaultStatsFor(const std::string& endpoint) const;

  // Observability: exports the fabric's telemetry into `metrics` as
  // scrape-time callbacks. Fault-injector stats appear as
  // sdci_msgq_faults_{dropped,duplicated,delayed} labelled by endpoint
  // (series for an endpoint vanish when its injector is cleared), and every
  // SubSocket created after this call exports sdci_msgq_sub_queue_depth /
  // sdci_msgq_sub_dropped labelled {endpoint, socket}; a socket's series
  // disappear once the socket is destroyed (weak handles — a registry that
  // outlives the Context scrapes safely).
  void AttachMetrics(std::shared_ptr<MetricsRegistry> metrics);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sdci::msgq
