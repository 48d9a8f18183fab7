// Lock-free single-producer/single-consumer ring buffer.
//
// The wait-free complement to BoundedQueue for the pipeline's hottest
// SPSC hops (collector reader -> resolver feed, aggregator receiver ->
// decode pool feed), where the mutex+condvar hand-off cost dominates at
// high event rates. Exactly ONE thread may push and exactly ONE thread
// may pop for the ring's whole lifetime — that contract is what buys the
// lock freedom, and it is the caller's to uphold (ThreadPool assigns
// one ring per worker for precisely this reason).
//
// Design (the classic cached-index SPSC ring):
//  - capacity is rounded up to a power of two; indices grow monotonically
//    and are masked on access, so full/empty are exact (tail - head).
//  - head_ (consumer) and tail_ (producer) live on separate cache lines;
//    each side keeps a non-atomic cache of the other's index and re-loads
//    it (acquire) only when the cached value says full/empty — the fast
//    path is one relaxed load, one seq_cst index store and one read of
//    the peer's `parked` flag, which the peer writes only when it parks.
//  - the index store publishes the slot contents to the peer's acquire
//    load; it is seq_cst (not just release) for the park handshake below.
//
// Shutdown keeps BoundedQueue's drain discipline: Close() makes pushes
// fail with kClosed while pops drain the remaining items before failing.
// The drain is exact from any thread: a push raises a seq_cst `pushing`
// flag before its closed check, and Close() waits for that flag to drop
// before it *seals* the ring, so every push Close() did not refuse has
// published its item first. Pop fails only once it has seen the seal and
// a final TryPop came back empty.
//
// Blocking variants spin briefly, then yield, then park on a futex
// (std::atomic::wait) until the peer moves. Parking is a Dekker hand-
// shake: the waiter raises its `parked` flag, re-checks the ring, and
// waits only if it is still empty (full); the peer's index store and its
// load of that flag are both seq_cst, so either the waiter sees the new
// index or the peer sees the flag and notifies. The peer notifies only
// when the flag is up, so an uncontended hand-off makes no syscall. The
// wait is on a separate wake counter, not on an index: atomic::wait
// returns only when the waited value changes, and Close() changes no
// index.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/status.h"

namespace sdci {

template <typename T>
class SpscRing {
 public:
  // `capacity` is rounded up to the next power of two (min 2).
  explicit SpscRing(size_t capacity)
      : mask_(std::bit_ceil(capacity < 2 ? size_t{2} : capacity) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer side. kResourceExhausted when full, kClosed after Close().
  Status TryPush(T item) { return PushImpl(item); }

  // Producer side, blocking while full (backpressure — the BoundedQueue
  // Push discipline). kClosed once the ring is closed.
  Status Push(T item) {
    Backoff backoff;
    while (true) {
      // PushImpl moves `item` out only on success, so it survives full
      // rounds intact.
      Status status = PushImpl(item);
      if (status.ok() || status.code() == StatusCode::kClosed) return status;
      if (!backoff.Spin()) {
        Park(producer_, closed_, [this] {
          return tail_.load(std::memory_order_relaxed) -
                     head_.load(std::memory_order_seq_cst) <=
                 mask_;
        });
      }
    }
  }

  // Consumer side. nullopt when currently empty (closed or not — check
  // closed-and-drained via Pop for termination).
  std::optional<T> TryPop() {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return std::nullopt;
    }
    std::optional<T> out(std::move(slots_[head & mask_]));
    head_.store(head + 1, std::memory_order_seq_cst);
    WakeIfParked(producer_);
    return out;
  }

  // Consumer side, blocking while empty; drains remaining items after
  // Close() and only then fails with kClosed.
  Result<T> Pop() {
    Backoff backoff;
    while (true) {
      if (auto item = TryPop()) return std::move(*item);
      // Order matters: the seal check comes after an empty TryPop, and
      // every accepted push published its item before the seal.
      if (sealed_.load(std::memory_order_acquire)) {
        if (auto item = TryPop()) return std::move(*item);
        return ClosedError("ring closed");
      }
      if (!backoff.Spin()) {
        Park(consumer_, sealed_, [this] {
          return head_.load(std::memory_order_relaxed) !=
                 tail_.load(std::memory_order_seq_cst);
        });
      }
    }
  }

  // Any thread. Pushes fail afterwards; the consumer drains what remains,
  // including an item whose push raced this call and was accepted. Wakes
  // a parked producer and a parked consumer.
  void Close() {
    closed_.store(true, std::memory_order_seq_cst);
    // Dekker with PushImpl: either that push sees closed_, or this load
    // sees its flag and waits out the few instructions to its tail store.
    while (pushing_.load(std::memory_order_seq_cst)) std::this_thread::yield();
    sealed_.store(true, std::memory_order_seq_cst);
    for (Waiter* waiter : {&producer_, &consumer_}) {
      waiter->wake.fetch_add(1, std::memory_order_release);
      waiter->wake.notify_all();
    }
  }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }
  // Approximate under concurrency (exact when quiescent).
  [[nodiscard]] size_t size() const noexcept {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] size_t capacity() const noexcept { return mask_ + 1; }

 private:
  Status PushImpl(T& item) {
    pushing_.store(true, std::memory_order_seq_cst);
    if (closed_.load(std::memory_order_seq_cst)) {
      pushing_.store(false, std::memory_order_release);
      return ClosedError("ring closed");
    }
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) {
        pushing_.store(false, std::memory_order_release);
        return ResourceExhaustedError("ring full");
      }
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_seq_cst);
    // Release: Close() reads the flag down only after the item is visible.
    pushing_.store(false, std::memory_order_release);
    WakeIfParked(consumer_);
    return OkStatus();
  }

  // Spin -> yield, then park. The spin phase covers the common case (the
  // peer is mid-operation on another core), the yield phase a peer that
  // is descheduled or a feed with short gaps; after that the waiter parks
  // until the peer notifies. The yield phase is timed, not counted: a
  // consumer fed every few tens of microseconds (the aggregator's decode
  // feed at drain rates) must not park between tasks, because each wake
  // is a futex syscall on the producer's critical path.
  struct Backoff {
    static constexpr std::chrono::microseconds kYieldFor{50};
    int rounds = 0;
    std::chrono::steady_clock::time_point yield_until{};
    // False once both phases are spent: the caller should park.
    bool Spin() {
      if (++rounds < 64) return true;  // busy spin
      const auto now = std::chrono::steady_clock::now();
      if (rounds == 64) yield_until = now + kYieldFor;
      if (now < yield_until) {
        std::this_thread::yield();
        return true;
      }
      return false;
    }
  };

  // One side's parking spot: the counter it waits on and the flag that
  // tells the peer a notify is needed.
  struct Waiter {
    std::atomic<uint32_t> wake{0};
    std::atomic<bool> parked{false};
  };

  // Blocks until `ready()` may have turned true: the peer moved its index
  // or `done` (closed_ for the producer, sealed_ for the consumer) was
  // set. `ready` must read the peer's index seq_cst.
  template <typename Ready>
  void Park(Waiter& self, const std::atomic<bool>& done, Ready ready) {
    const uint32_t ticket = self.wake.load(std::memory_order_acquire);
    self.parked.store(true, std::memory_order_seq_cst);
    if (!ready() && !done.load(std::memory_order_seq_cst)) {
      self.wake.wait(ticket, std::memory_order_acquire);
    }
    self.parked.store(false, std::memory_order_relaxed);
  }

  // Called after this side's seq_cst index store.
  static void WakeIfParked(Waiter& peer) {
    if (!peer.parked.load(std::memory_order_seq_cst)) return;
    peer.wake.fetch_add(1, std::memory_order_release);
    peer.wake.notify_one();
  }

  const uint64_t mask_;
  std::vector<T> slots_;

  // Producer-owned line: tail_, the producer's cache of head_, and the
  // in-push flag Close() waits on.
  alignas(64) std::atomic<uint64_t> tail_{0};
  uint64_t head_cache_ = 0;
  std::atomic<bool> pushing_{false};
  // Consumer-owned line: head_ plus the consumer's cache of tail_.
  alignas(64) std::atomic<uint64_t> head_{0};
  uint64_t tail_cache_ = 0;

  // closed_: pushes fail. sealed_: set by Close() once no accepted push
  // is still publishing; the consumer's kClosed waits for it.
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<bool> sealed_{false};
  // Each side's parking spot on its own line: the peer reads `parked` on
  // every hand-off.
  alignas(64) Waiter producer_;
  alignas(64) Waiter consumer_;
};

}  // namespace sdci
