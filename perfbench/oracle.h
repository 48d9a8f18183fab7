// Correctness oracle of the site benchmark.
//
// The generator predicts every ChangeLog record a mutation will journal
// *before* it mutates (only the generator mutates the file system, so each
// MDT's record indices are dense and known in advance). Everything the
// deployed site hands back — the verifying consumer's event stream, the
// actions the agent executed, the history pages the query client fetched —
// is logged compactly while the workload runs and checked against those
// predictions once it has quiesced. Each check counts failures per
// operation; failed / attempted is the run's failed_fraction.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lustre/changelog.h"
#include "ripple/rule.h"

namespace perfbench {

// due_ns of a record no timed operation caused (staging during set-up).
inline constexpr int64_t kUntimed = -1;

struct ExpectedRecord {
  sdci::lustre::ChangeLogType type = sdci::lustre::ChangeLogType::kMark;
  std::string path;  // the event's absolute path
  int64_t due_ns = kUntimed;
};

class Oracle {
 public:
  explicit Oracle(size_t mdts) : records_(mdts) {}

  // Records the next record `mdt` will journal; returns its index.
  uint64_t Expect(int mdt, sdci::lustre::ChangeLogType type, std::string path,
                  int64_t due_ns);
  // A pre-staged backlog is due when its drain starts.
  void SetDueForUntimed(int64_t due_ns);

  [[nodiscard]] size_t mdts() const noexcept { return records_.size(); }
  [[nodiscard]] uint64_t Count(size_t mdt) const noexcept { return records_[mdt].size(); }
  [[nodiscard]] uint64_t Total() const noexcept;
  // nullptr when (mdt, record_index) was never predicted.
  [[nodiscard]] const ExpectedRecord* Find(int mdt, uint64_t record_index) const noexcept;

 private:
  std::vector<std::vector<ExpectedRecord>> records_;  // [mdt][index - 1]
};

uint64_t PathHash(std::string_view path) noexcept;

// One event as the verifying consumer received it.
struct Delivery {
  int32_t mdt = 0;
  uint32_t shard = 0;  // HLC origin: the shard that sequenced the event
  uint64_t record_index = 0;
  uint64_t global_seq = 0;
  int64_t time_ns = 0;  // the event's virtual timestamp
  int64_t recv_ns = 0;  // steady clock at receipt
  uint64_t path_hash = 0;
  uint8_t type = 0;
};

struct DeliveryCheck {
  uint64_t expected = 0;
  uint64_t delivered = 0;
  uint64_t lost = 0;        // predicted, never delivered
  uint64_t duplicated = 0;  // delivered more than once
  uint64_t reordered = 0;   // delivered behind a later record of its MDT
  uint64_t wrong = 0;       // unpredicted, wrong shard, wrong type or path
  uint64_t seq_errors = 0;  // per-shard global_seq not dense from 1
  [[nodiscard]] uint64_t failures() const noexcept {
    return lost + duplicated + reordered + wrong + seq_errors;
  }
};

// Each (mdt, record_index) exactly once, in per-MDT order, with the
// predicted content, and every shard's global_seq dense from 1 in arrival
// order. `log` is in arrival order.
DeliveryCheck CheckDeliveries(const Oracle& oracle, const std::vector<Delivery>& log,
                              size_t shards);

struct ActionKey {
  std::string rule_id;
  int32_t mdt = 0;
  uint64_t record_index = 0;
  auto operator<=>(const ActionKey&) const = default;
};

struct ExecutedAction {
  ActionKey key;
  int64_t done_ns = 0;
};

// Every (rule, record) pair the linear Trigger::Matches accepts. Each
// record is matched against the rules whose glob's literal directory is an
// ancestor of its path (no other rule can match it); `full_scan_every`
// additionally cross-checks every n-th record against all rules and aborts
// the program if the two disagree.
std::vector<ActionKey> ExpectedActions(const Oracle& oracle,
                                       const std::vector<sdci::ripple::Rule>& rules,
                                       size_t full_scan_every = 64);

struct ActionCheck {
  uint64_t expected = 0;
  uint64_t executed = 0;
  uint64_t missing = 0;
  uint64_t duplicated = 0;
  uint64_t unexpected = 0;
  [[nodiscard]] uint64_t failures() const noexcept {
    return missing + duplicated + unexpected;
  }
};

ActionCheck CheckActions(std::vector<ActionKey> expected,
                         const std::vector<ExecutedAction>& executed);

// One history page as the query client received it, reduced to identity.
struct PageEvent {
  uint32_t shard = 0;
  uint64_t seq = 0;
  int32_t mdt = 0;
  uint64_t record_index = 0;
  int64_t time_ns = 0;
};

struct Page {
  enum class Kind : uint8_t { kShardSeq, kTimeRange };
  Kind kind = Kind::kShardSeq;
  uint32_t shard = 0;     // kShardSeq
  uint64_t from_seq = 0;  // kShardSeq
  size_t max = 0;         // kShardSeq
  int64_t from_time = 0;  // kTimeRange: [from_time, to_time), virtual ns
  int64_t to_time = 0;
  bool ok = false;        // the call returned a page
  bool partial = false;   // a federated page labelled itself partial
  bool hlc_sorted = true; // federated merge order
  std::vector<PageEvent> events;
};

struct PageCheck {
  uint64_t pages = 0;
  uint64_t bad = 0;  // wrong, partial or timed out
};

// A sequence page must equal the consumer's events of that shard with
// global_seq in [from_seq, from_seq + max) (as many as exist); a time page
// must hold exactly the consumer's events of every shard whose timestamp
// falls in the window, in HLC order. `log` must be complete.
PageCheck CheckPages(const std::vector<Page>& pages, const std::vector<Delivery>& log);

}  // namespace perfbench
