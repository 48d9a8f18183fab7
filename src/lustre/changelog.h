// Lustre ChangeLog: the per-MDT metadata event journal the monitor tails.
//
// Mirrors the semantics the monitor depends on in real Lustre:
//  - every namespace/metadata mutation appends one record to the ChangeLog
//    of the MDT where the change was made;
//  - records carry an index (monotonic per MDT), type, timestamp, flags,
//    target FID, parent FID and target name (Table 1 of the paper);
//  - consumers register (lctl changelog_register) and receive a consumer id;
//    records are only reclaimed once *every* registered consumer has
//    cleared past them (lctl changelog_clear), so a crashed consumer can
//    re-read from its last cleared index;
//  - reading starts from an arbitrary index, so a restarted Collector
//    resumes from its persisted pointer;
//  - a reader can follow the log (like `lfs changelog --follow`): it blocks
//    until enough new records are appended instead of polling on a timer.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <stop_token>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/resource.h"
#include "common/status.h"
#include "lustre/fid.h"

namespace sdci::lustre {

// Record types, numbered as in Lustre's changelog_rec_type.
enum class ChangeLogType : uint8_t {
  kMark = 0,
  kCreate = 1,
  kMkdir = 2,
  kHardlink = 3,
  kSoftlink = 4,
  kMknod = 5,
  kUnlink = 6,
  kRmdir = 7,
  kRename = 8,
  kRenameTo = 9,
  kOpen = 10,
  kClose = 11,
  kLayout = 12,
  kTruncate = 13,
  kSetattr = 14,
  kXattr = 15,
  kHsm = 16,
  kMtime = 17,
  kCtime = 18,
  kAtime = 19,
};

// Short Lustre name, e.g. "CREAT", "UNLNK", "SATTR".
std::string_view ChangeLogTypeName(ChangeLogType type) noexcept;

// The "01CREAT" form used in changelog dumps and the paper's Table 1.
std::string ChangeLogTypeCode(ChangeLogType type);

// Parses either the short name or the numbered code.
Result<ChangeLogType> ParseChangeLogType(std::string_view text);

// Record flags (subset of CLF_*).
inline constexpr uint32_t kFlagLastUnlink = 0x1;  // unlink removed last link

struct ChangeLogRecord {
  uint64_t index = 0;  // assigned by the log on append
  ChangeLogType type = ChangeLogType::kMark;
  VirtualTime time{};  // virtual timestamp of the mutation
  uint32_t flags = 0;
  Fid target;       // file/dir the event is about
  Fid parent;       // directory containing `name`
  std::string name; // entry name within `parent`

  // Rename source (valid when type == kRename).
  Fid source_parent;
  std::string source_name;

  // Renders one dump line in the paper's Table 1 layout:
  // "13106 01CREAT 20:15:37.1138 2017.09.06 0x0 t=[...] p=[...] data1.txt".
  [[nodiscard]] std::string Render(std::string_view datestamp = "2017.09.06") const;

  // Parses a dump line produced by Render (or by `lctl changelog` for the
  // fields we model). The datestamp is validated but not retained; the
  // timestamp is parsed back to a virtual time-of-day.
  static Result<ChangeLogRecord> ParseDumpLine(std::string_view line);

  // Approximate in-memory footprint, for resource accounting.
  [[nodiscard]] size_t ApproxBytes() const noexcept;
};

// Identifies a registered changelog consumer, e.g. "cl1".
using ConsumerId = uint32_t;

// A single MDT's ChangeLog. Thread-safe.
class ChangeLog {
 public:
  explicit ChangeLog(int mdt_index);

  // Appends a record, assigning its index. Returns the assigned index.
  // Wakes the followers whose wait this record completes (after releasing
  // the log lock); with no follower waiting it makes no syscall.
  uint64_t Append(ChangeLogRecord record);

  // Follow mode: blocks until ReadFrom(start_index, count) would return
  // `count` records, `timeout` of real time passes, or `stop` is
  // requested. Returns true when the records are there (also when they
  // already were on entry). As in ReadFrom, records purged before the
  // call do not count; records purged during the wait still do.
  bool WaitForRecords(uint64_t start_index, size_t count,
                      std::chrono::nanoseconds timeout,
                      const std::stop_token& stop) const;
  // Follow-mode waits whose records have not been appended yet.
  [[nodiscard]] size_t Followers() const;

  // Registers a consumer; records will be retained until this consumer
  // clears them. Returns the new consumer id (cl1, cl2, ... numerically).
  ConsumerId RegisterConsumer();

  // Deregisters; pending retention owed to this consumer is dropped.
  Status DeregisterConsumer(ConsumerId id);

  // Copies up to `max_records` records with index >= `start_index` into
  // `out`. Returns the number of records copied. Records already purged
  // are silently skipped (start below FirstIndex() reads from the oldest
  // retained record, as Lustre does).
  size_t ReadFrom(uint64_t start_index, size_t max_records,
                  std::vector<ChangeLogRecord>& out) const;

  // Marks records with index <= `through_index` consumed by `id`; records
  // consumed by all registered consumers are physically reclaimed.
  Status Clear(ConsumerId id, uint64_t through_index);

  // Registered consumers and their highest cleared index (the
  // `lctl changelog_register`/`changelog_users` introspection surface).
  struct ConsumerInfo {
    ConsumerId id = 0;
    uint64_t cleared_through = 0;
  };
  [[nodiscard]] std::vector<ConsumerInfo> Consumers() const;

  // Index of the oldest retained record (0 when empty).
  [[nodiscard]] uint64_t FirstIndex() const;
  // Index of the newest record (0 when nothing has ever been appended).
  [[nodiscard]] uint64_t LastIndex() const;
  // Number of retained (unreclaimed) records.
  [[nodiscard]] size_t RetainedCount() const;
  // Total records ever appended.
  [[nodiscard]] uint64_t TotalAppended() const;

  [[nodiscard]] int mdt_index() const noexcept { return mdt_index_; }

  // Dumps every retained record in the lctl-style line format (one record
  // per line) — the persistence/interop surface.
  [[nodiscard]] std::string SerializeDump() const;

  // Restores records from a dump into an EMPTY log (fails with
  // kFailedPrecondition otherwise). Indices are preserved; consumers must
  // re-register afterwards.
  Status RestoreFromDump(std::string_view dump);

  // Retained-record memory accounting (drives Table 3 style reporting).
  [[nodiscard]] const MemoryAccountant& memory() const noexcept { return memory_; }

 private:
  void ReclaimLocked();

  const int mdt_index_;
  mutable std::mutex mutex_;
  std::deque<ChangeLogRecord> records_;
  uint64_t next_index_ = 1;
  ConsumerId next_consumer_ = 1;
  std::map<ConsumerId, uint64_t> cleared_;  // consumer -> highest cleared index
  MemoryAccountant memory_;
  // Follow-mode waiters: the append index each one waits for (a waiter
  // for `count` records from `start` waits for index start + count - 1,
  // with `start` raised to the oldest retained record).
  // Append removes the targets it reaches and notifies once; a waiter that
  // gives up removes its own target.
  mutable std::multiset<uint64_t> follow_targets_;
  mutable std::condition_variable_any follow_cv_;
};

}  // namespace sdci::lustre
