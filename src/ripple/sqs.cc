#include "ripple/sqs.h"

#include <algorithm>

namespace sdci::ripple {

ReliableQueue::ReliableQueue(const TimeAuthority& authority, ReliableQueueConfig config)
    : authority_(&authority), config_(config) {}

uint64_t ReliableQueue::Send(std::string body, std::string lane) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.id = next_id_++;
  entry.body = std::move(body);
  const uint64_t id = entry.id;
  lanes_[std::move(lane)].push_back(std::move(entry));
  ++total_sent_;
  visible_.notify_one();
  return id;
}

uint64_t ReliableQueue::PushDeadLetter(std::string body, std::string lane) {
  const std::lock_guard<std::mutex> lock(mutex_);
  QueueMessage dead;
  dead.id = next_id_++;
  dead.lane = std::move(lane);
  dead.body = std::move(body);
  const uint64_t id = dead.id;
  dead_letters_.push_back(std::move(dead));
  return id;
}

std::optional<QueueMessage> ReliableQueue::Receive(VirtualDuration wait) {
  const auto deadline = std::chrono::steady_clock::now() + authority_->ToReal(wait);
  std::unique_lock<std::mutex> lock(mutex_);
  // Send and CleanupSweep notify under the lock, so no wake is lost
  // between a receive that found nothing and the wait.
  auto message = ReceiveLocked();
  while (!message.has_value() && wait > VirtualDuration::zero() &&
         visible_.wait_until(lock, deadline) == std::cv_status::no_timeout) {
    message = ReceiveLocked();
  }
  return message;
}

std::optional<QueueMessage> ReliableQueue::ReceiveLocked() {
  const VirtualTime now = authority_->Now();
  // Round-robin across lanes, starting after the last lane that delivered;
  // FIFO within each lane. A lane emptied by dead-lettering is reclaimed.
  size_t remaining = lanes_.size();
  auto lane_it = lanes_.upper_bound(rr_cursor_);
  while (remaining-- > 0) {
    if (lane_it == lanes_.end()) lane_it = lanes_.begin();
    std::deque<Entry>& entries = lane_it->second;
    for (auto it = entries.begin(); it != entries.end();) {
      const bool visible = it->receipt == 0 || it->invisible_until <= now;
      if (!visible) {
        ++it;
        continue;
      }
      if (it->receive_count > 0) ++redelivered_;  // timed-out redelivery
      if (it->receive_count >= config_.max_receives) {
        QueueMessage dead;
        dead.id = it->id;
        dead.receive_count = it->receive_count;
        dead.lane = lane_it->first;
        dead.body = std::move(it->body);
        dead_letters_.push_back(std::move(dead));
        it = entries.erase(it);
        continue;
      }
      it->receipt = next_receipt_++;
      it->receive_count += 1;
      it->invisible_until = now + config_.visibility_timeout;
      QueueMessage message;
      message.id = it->id;
      message.receipt = it->receipt;
      message.receive_count = it->receive_count;
      message.lane = lane_it->first;
      message.body = it->body;
      rr_cursor_ = lane_it->first;
      return message;
    }
    if (entries.empty()) {
      lane_it = lanes_.erase(lane_it);
    } else {
      ++lane_it;
    }
  }
  return std::nullopt;
}

Status ReliableQueue::Delete(uint64_t receipt) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto lane_it = lanes_.begin(); lane_it != lanes_.end(); ++lane_it) {
    std::deque<Entry>& entries = lane_it->second;
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [&](const Entry& e) { return e.receipt == receipt; });
    if (it == entries.end()) continue;
    entries.erase(it);
    if (entries.empty()) lanes_.erase(lane_it);
    ++total_deleted_;
    return OkStatus();
  }
  return NotFoundError("stale or unknown receipt");
}

size_t ReliableQueue::CleanupSweep() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const VirtualTime now = authority_->Now();
  size_t revived = 0;
  for (auto& [lane, entries] : lanes_) {
    for (auto& entry : entries) {
      if (entry.receipt != 0 && entry.invisible_until <= now) {
        entry.receipt = 0;  // eagerly visible again
        ++revived;
      }
    }
  }
  if (revived > 0) visible_.notify_all();
  return revived;
}

size_t ReliableQueue::VisibleDepth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const VirtualTime now = authority_->Now();
  size_t n = 0;
  for (const auto& [lane, entries] : lanes_) {
    for (const auto& entry : entries) {
      if (entry.receipt == 0 || entry.invisible_until <= now) ++n;
    }
  }
  return n;
}

size_t ReliableQueue::InFlight() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const VirtualTime now = authority_->Now();
  size_t n = 0;
  for (const auto& [lane, entries] : lanes_) {
    for (const auto& entry : entries) {
      if (entry.receipt != 0 && entry.invisible_until > now) ++n;
    }
  }
  return n;
}

size_t ReliableQueue::LaneCount() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lanes_.size();
}

uint64_t ReliableQueue::TotalSent() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_sent_;
}

uint64_t ReliableQueue::TotalDeleted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_deleted_;
}

uint64_t ReliableQueue::Redelivered() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return redelivered_;
}

std::vector<QueueMessage> ReliableQueue::DeadLetters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dead_letters_;
}

size_t ReliableQueue::DeadLetterDepth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dead_letters_.size();
}

std::vector<QueueMessage> ReliableQueue::DrainDeadLetters() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<QueueMessage> drained = std::move(dead_letters_);
  dead_letters_.clear();
  return drained;
}

}  // namespace sdci::ripple
