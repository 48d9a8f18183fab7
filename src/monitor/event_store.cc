#include "monitor/event_store.h"

#include <algorithm>
#include <ranges>

namespace sdci::monitor {

namespace {

// First index in [begin, view.size()) at which `below` turns false;
// `below` must be true on a prefix of that range and false after it.
template <typename Below>
size_t PartitionIndex(const wire::EventBatchView& view, size_t begin, Below below) {
  const auto range = std::views::iota(begin, view.size());
  return begin + static_cast<size_t>(std::ranges::partition_point(range, below) -
                                     range.begin());
}

}  // namespace

EventStore::EventStore(size_t max_events)
    : max_events_(max_events == 0 ? 1 : max_events) {}

int64_t EventStore::AppendLocked(const EventBatch& batch) {
  int64_t bytes = static_cast<int64_t>(Bytes(batch));
  event_count_ += batch.size();
  total_appended_ += batch.size();
  batches_.push_back(batch);
  // Rotate whole batches, always retaining at least max_events_: the
  // window's oldest events may sit mid-way into the front batch.
  while (batches_.size() > 1 && event_count_ - batches_.front().size() >= max_events_) {
    bytes -= static_cast<int64_t>(Bytes(batches_.front()));
    event_count_ -= batches_.front().size();
    batches_.pop_front();
    if (time_checked_ > 0) --time_checked_;
  }
  return bytes;
}

void EventStore::CommitLocked(int64_t bytes) {
  ++commits_;
  if (bytes >= 0) {
    memory_.Charge(static_cast<uint64_t>(bytes));
  } else {
    memory_.Release(static_cast<uint64_t>(-bytes));
  }
}

void EventStore::Append(const EventBatch& batch) {
  if (batch.empty()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  CommitLocked(AppendLocked(batch));
}

void EventStore::AppendGroup(const std::vector<EventBatch>& batches) {
  const std::lock_guard<std::mutex> lock(mutex_);
  bool appended = false;
  int64_t bytes = 0;
  for (const EventBatch& batch : batches) {
    if (batch.empty()) continue;
    bytes += AppendLocked(batch);
    appended = true;
  }
  if (appended) CommitLocked(bytes);
}

size_t EventStore::HiddenLocked() const noexcept {
  // Rotation keeps event_count_ - front size < max_events_ (or a single
  // batch), so every hidden event lies in the front batch.
  return event_count_ > max_events_ ? event_count_ - max_events_ : 0;
}

uint64_t EventStore::FirstSeqLocked() const noexcept {
  return batches_.empty() ? 0 : batches_.front().view().global_seq(HiddenLocked());
}

void EventStore::CheckTimeOrderLocked() const {
  for (; time_monotone_ && time_checked_ < batches_.size(); ++time_checked_) {
    const wire::EventBatchView& view = batches_[time_checked_].view();
    VirtualTime prev = view.time(0);
    if (time_checked_ > 0) {
      const wire::EventBatchView& before = batches_[time_checked_ - 1].view();
      prev = before.time(before.size() - 1);
    }
    for (size_t i = 0; i < view.size(); ++i) {
      if (view.time(i) < prev) {
        time_monotone_ = false;
        break;
      }
      prev = view.time(i);
    }
  }
}

std::vector<FsEvent> EventStore::Materialize(const std::vector<Slice>& slices) {
  size_t total = 0;
  for (const Slice& slice : slices) total += slice.end - slice.begin;
  std::vector<FsEvent> out;
  out.reserve(total);
  for (const Slice& slice : slices) {
    for (size_t i = slice.begin; i < slice.end; ++i) {
      out.push_back(slice.batch.view()[i].Materialize());
    }
  }
  return out;
}

std::vector<FsEvent> EventStore::Query(uint64_t from_seq, size_t max,
                                       uint64_t* first_available) const {
  std::vector<Slice> slices;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (first_available != nullptr) *first_available = FirstSeqLocked();
    // The first batch whose newest sequence reaches from_seq; every later
    // batch matches whole.
    auto it = std::partition_point(batches_.begin(), batches_.end(), [&](const EventBatch& b) {
      return b.view().global_seq(b.size() - 1) < from_seq;
    });
    size_t taken = 0;
    for (; it != batches_.end() && taken < max; ++it) {
      const wire::EventBatchView& view = it->view();
      const size_t begin =
          PartitionIndex(view, it == batches_.begin() ? HiddenLocked() : 0,
                         [&](size_t i) { return view.global_seq(i) < from_seq; });
      const size_t end = std::min(view.size(), begin + (max - taken));
      slices.push_back({*it, begin, end});
      taken += end - begin;
    }
  }
  return Materialize(slices);
}

std::vector<FsEvent> EventStore::QueryTimeRange(VirtualTime from, VirtualTime to,
                                                size_t max) const {
  std::vector<Slice> slices;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    CheckTimeOrderLocked();
    const size_t hidden = HiddenLocked();
    size_t taken = 0;
    if (time_monotone_) {
      // Appends have stayed time-sorted: binary search for the range start
      // (first the batch, then within it), and stop at the first event
      // past `to`.
      auto it = std::partition_point(batches_.begin(), batches_.end(), [&](const EventBatch& b) {
        return b.view().time(b.size() - 1) < from;
      });
      for (; it != batches_.end() && taken < max; ++it) {
        const wire::EventBatchView& view = it->view();
        const size_t begin =
            PartitionIndex(view, it == batches_.begin() ? hidden : 0,
                           [&](size_t i) { return view.time(i) < from; });
        const size_t end =
            PartitionIndex(view, begin, [&](size_t i) { return view.time(i) < to; });
        const size_t take = std::min(end, begin + (max - taken));
        if (take > begin) slices.push_back({*it, begin, take});
        taken += take - begin;
        if (end < view.size()) break;  // reached `to`
      }
    } else {
      for (auto it = batches_.begin(); it != batches_.end() && taken < max; ++it) {
        const wire::EventBatchView& view = it->view();
        for (size_t i = it == batches_.begin() ? hidden : 0;
             i < view.size() && taken < max; ++i) {
          if (view.time(i) < from || view.time(i) >= to) continue;
          if (!slices.empty() && slices.back().batch.payload() == it->payload() &&
              slices.back().end == i) {
            ++slices.back().end;
          } else {
            slices.push_back({*it, i, i + 1});
          }
          ++taken;
        }
      }
    }
  }
  return Materialize(slices);
}

std::vector<EventBatch> EventStore::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {batches_.begin(), batches_.end()};
}

uint64_t EventStore::FirstSeq() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return FirstSeqLocked();
}

uint64_t EventStore::LastSeq() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (batches_.empty()) return 0;
  const wire::EventBatchView& view = batches_.back().view();
  return view.global_seq(view.size() - 1);
}

size_t EventStore::Size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::min(event_count_, max_events_);
}

uint64_t EventStore::TotalAppended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_appended_;
}

uint64_t EventStore::Commits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return commits_;
}

}  // namespace sdci::monitor
