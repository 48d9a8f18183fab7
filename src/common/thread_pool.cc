#include "common/thread_pool.h"

#include <algorithm>

namespace sdci {

ThreadPool::ThreadPool(size_t workers, size_t queue_capacity) {
  const size_t n = std::max<size_t>(1, workers);
  const size_t total = queue_capacity > 0 ? queue_capacity : n * 4;
  const size_t per_ring = std::max<size_t>(4, total / n);
  rings_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rings_.push_back(std::make_unique<SpscRing<Task>>(per_ring));
  }
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

Status ThreadPool::Submit(Task task) {
  // Round-robin over per-worker rings. The cursor is unsynchronized on
  // purpose: the pool admits exactly one submitter thread.
  const size_t ring = next_ring_;
  next_ring_ = (next_ring_ + 1) % rings_.size();
  return rings_[ring]->Push(std::move(task));
}

void ThreadPool::Shutdown() {
  for (auto& ring : rings_) ring->Close();  // pops drain, then kClosed
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

size_t ThreadPool::QueueDepth() const {
  size_t depth = 0;
  for (const auto& ring : rings_) depth += ring->size();
  return depth;
}

void ThreadPool::WorkerLoop(size_t index) {
  SpscRing<Task>& ring = *rings_[index];
  while (true) {
    auto task = ring.Pop();
    if (!task.ok()) return;  // closed and drained
    (*task)(index);
    completed_.Add();
  }
}

}  // namespace sdci
