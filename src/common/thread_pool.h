// Fixed-size worker pool fed by one lock-free SPSC ring per worker.
//
// Built for pipeline stages that fan work out across records — the
// collector's resolver stage and the aggregator's decode stage are the
// users. Tasks receive the index of the worker that runs them
// (0..workers-1), so callers can keep strictly per-worker state (e.g. a
// DelayBudget, whose contract is single-threaded use) without any
// locking: worker i is one thread for the pool's whole lifetime, so state
// indexed by i has one owner.
//
// Submit fills the rings round-robin and requires a SINGLE submitting
// thread (the SPSC producer contract) — exactly the shape of the
// collector's reader thread and the aggregator's receiver thread, the two
// hottest hand-offs in the pipeline. No mutex sits on the per-task cost,
// and round-robin keeps per-worker arrival order deterministic, which the
// decode stages' reorder windows rely on.
//
// Submit blocks while the target ring is full (backpressure, same
// discipline as BoundedQueue everywhere else in the pipeline) and fails
// with kClosed after Shutdown. Shutdown drains: every task accepted
// before the close runs to completion before the workers join.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/spsc.h"
#include "common/stats.h"
#include "common/status.h"

namespace sdci {

class ThreadPool {
 public:
  using Task = std::function<void(size_t worker)>;

  // `queue_capacity` is the total feed capacity, split equally across the
  // workers' rings (minimum 4 slots each); 0 sizes it at 4 tasks per
  // worker.
  explicit ThreadPool(size_t workers, size_t queue_capacity = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; blocks while the target ring is full. kClosed after
  // Shutdown. Only one thread may call Submit.
  Status Submit(Task task);

  // Closes the feed, lets the workers drain it, joins them. Idempotent.
  void Shutdown();

  [[nodiscard]] size_t workers() const noexcept { return threads_.size(); }
  // Tasks accepted but not yet picked up by a worker.
  [[nodiscard]] size_t QueueDepth() const;
  // Tasks finished, over the pool's lifetime.
  [[nodiscard]] uint64_t Completed() const noexcept { return completed_.Get(); }

 private:
  void WorkerLoop(size_t index);

  std::vector<std::unique_ptr<SpscRing<Task>>> rings_;  // one per worker
  size_t next_ring_ = 0;  // round-robin cursor; submitter-thread-owned
  std::vector<std::jthread> threads_;
  Counter completed_;
};

}  // namespace sdci
