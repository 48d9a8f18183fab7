#include "lustre/changelog.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace sdci::lustre {
namespace {

constexpr std::string_view kTypeNames[] = {
    "MARK",  "CREAT", "MKDIR", "HLINK", "SLINK", "MKNOD", "UNLNK",
    "RMDIR", "RENME", "RNMTO", "OPEN",  "CLOSE", "LYOUT", "TRUNC",
    "SATTR", "XATTR", "HSM",   "MTIME", "CTIME", "ATIME"};

}  // namespace

std::string_view ChangeLogTypeName(ChangeLogType type) noexcept {
  const auto i = static_cast<size_t>(type);
  assert(i < std::size(kTypeNames));
  return kTypeNames[i];
}

std::string ChangeLogTypeCode(ChangeLogType type) {
  char buf[4];
  std::snprintf(buf, sizeof(buf), "%02u", static_cast<unsigned>(type));
  return std::string(buf) + std::string(ChangeLogTypeName(type));
}

Result<ChangeLogType> ParseChangeLogType(std::string_view text) {
  std::string_view s = strings::Trim(text);
  // Strip a leading two-digit code if present ("01CREAT" -> "CREAT").
  if (s.size() > 2 && std::isdigit(static_cast<unsigned char>(s[0])) != 0 &&
      std::isdigit(static_cast<unsigned char>(s[1])) != 0) {
    s.remove_prefix(2);
  }
  for (size_t i = 0; i < std::size(kTypeNames); ++i) {
    if (s == kTypeNames[i]) return static_cast<ChangeLogType>(i);
  }
  return InvalidArgumentError("unknown changelog type: " + std::string(text));
}

std::string ChangeLogRecord::Render(std::string_view datestamp) const {
  std::string out = strings::Format(
      "{} {} {} {} {} t={} p={} {}", index, ChangeLogTypeCode(type),
      FormatClockTime(time), datestamp, strings::HexU64(flags),
      target.ToString(), parent.ToString(), name);
  if (type == ChangeLogType::kRename) {
    out += strings::Format(" s={} sname={}", source_parent.ToString(), source_name);
  }
  return out;
}

Result<ChangeLogRecord> ChangeLogRecord::ParseDumpLine(std::string_view line) {
  const auto fields = strings::SplitSkipEmpty(strings::Trim(line), ' ');
  if (fields.size() < 7) {
    return InvalidArgumentError("dump line needs >= 7 fields: " + std::string(line));
  }
  ChangeLogRecord record;
  const auto index = strings::ParseUint64(fields[0]);
  if (!index) return InvalidArgumentError("bad record id: " + fields[0]);
  record.index = *index;
  auto type = ParseChangeLogType(fields[1]);
  if (!type.ok()) return type.status();
  record.type = *type;
  // Timestamp "HH:MM:SS.ffff" (fraction = 100us units).
  {
    const auto hms = strings::Split(fields[2], ':');
    if (hms.size() != 3) return InvalidArgumentError("bad timestamp: " + fields[2]);
    const auto sec_frac = strings::Split(hms[2], '.');
    const auto h = strings::ParseUint64(hms[0]);
    const auto m = strings::ParseUint64(hms[1]);
    const auto s = strings::ParseUint64(sec_frac[0]);
    const auto frac = sec_frac.size() > 1 ? strings::ParseUint64(sec_frac[1])
                                          : std::optional<uint64_t>(0);
    if (!h || !m || !s || !frac || *m >= 60 || *s >= 60) {
      return InvalidArgumentError("bad timestamp: " + fields[2]);
    }
    record.time = std::chrono::hours(*h) + std::chrono::minutes(*m) +
                  std::chrono::seconds(*s) +
                  std::chrono::microseconds(*frac * 100);
  }
  // fields[3] is the datestamp ("2017.09.06"); check shape only.
  if (strings::Split(fields[3], '.').size() != 3) {
    return InvalidArgumentError("bad datestamp: " + fields[3]);
  }
  const auto flags = strings::ParseUint64(fields[4]);
  if (!flags) return InvalidArgumentError("bad flags: " + fields[4]);
  record.flags = static_cast<uint32_t>(*flags);
  auto target = Fid::Parse(fields[5]);
  if (!target.ok()) return target.status();
  record.target = *target;
  auto parent = Fid::Parse(fields[6]);
  if (!parent.ok()) return parent.status();
  record.parent = *parent;
  size_t next = 7;
  if (next < fields.size() && !strings::StartsWith(fields[next], "s=")) {
    record.name = fields[next++];
  }
  // Optional rename extension: "s=[fid] sname=<name>".
  if (next < fields.size() && strings::StartsWith(fields[next], "s=")) {
    auto source = Fid::Parse(std::string_view(fields[next]).substr(2));
    if (!source.ok()) return source.status();
    record.source_parent = *source;
    ++next;
    if (next < fields.size() && strings::StartsWith(fields[next], "sname=")) {
      record.source_name = fields[next].substr(6);
      ++next;
    }
  }
  return record;
}

size_t ChangeLogRecord::ApproxBytes() const noexcept {
  return sizeof(ChangeLogRecord) + name.capacity() + source_name.capacity();
}

ChangeLog::ChangeLog(int mdt_index) : mdt_index_(mdt_index) {}

uint64_t ChangeLog::Append(ChangeLogRecord record) {
  uint64_t index = 0;
  bool wake = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    index = record.index = next_index_++;
    memory_.Charge(record.ApproxBytes());
    records_.push_back(std::move(record));
    if (!follow_targets_.empty() && *follow_targets_.begin() <= index) {
      follow_targets_.erase(follow_targets_.begin(),
                            follow_targets_.upper_bound(index));
      wake = true;
    }
  }
  if (wake) follow_cv_.notify_all();
  return index;
}

bool ChangeLog::WaitForRecords(uint64_t start_index, size_t count,
                               std::chrono::nanoseconds timeout,
                               const std::stop_token& stop) const {
  if (count == 0) return true;
  std::unique_lock<std::mutex> lock(mutex_);
  // Count from where ReadFrom(start_index) starts: it skips purged
  // records, so they must not end the wait either. Otherwise a reader
  // whose cursor lies below a fully purged log (a collector registered
  // after an earlier one cleared everything) would never block.
  const uint64_t first = records_.empty() ? next_index_ : records_.front().index;
  const uint64_t target = std::max(start_index, first) + count - 1;
  const auto reached = [&] { return next_index_ > target; };
  if (reached()) return true;
  // Registering under the lock that Append takes closes the lost-wakeup
  // window: an append either happened before (reached() saw it) or finds
  // the target and notifies after this wait has released the lock.
  const auto it = follow_targets_.insert(target);
  if (follow_cv_.wait_for(lock, stop, timeout, reached)) return true;
  // Timed out or stopped: the target is still registered unless an append
  // reached it in the meantime (then reached() would have held).
  follow_targets_.erase(it);
  return false;
}

ConsumerId ChangeLog::RegisterConsumer() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const ConsumerId id = next_consumer_++;
  // A new consumer is only owed records appended after registration; treat
  // everything already reclaimable as cleared by it.
  cleared_[id] = records_.empty() ? next_index_ - 1 : records_.front().index - 1;
  return id;
}

Status ChangeLog::DeregisterConsumer(ConsumerId id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (cleared_.erase(id) == 0) {
    return NotFoundError(strings::Format("consumer cl{} not registered", id));
  }
  ReclaimLocked();
  return OkStatus();
}

size_t ChangeLog::ReadFrom(uint64_t start_index, size_t max_records,
                           std::vector<ChangeLogRecord>& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (records_.empty() || max_records == 0) return 0;
  // Records are contiguous by index; compute the offset of start_index.
  const uint64_t first = records_.front().index;
  const size_t offset =
      start_index <= first ? 0 : static_cast<size_t>(start_index - first);
  size_t copied = 0;
  for (size_t i = offset; i < records_.size() && copied < max_records; ++i, ++copied) {
    out.push_back(records_[i]);
  }
  return copied;
}

Status ChangeLog::Clear(ConsumerId id, uint64_t through_index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cleared_.find(id);
  if (it == cleared_.end()) {
    return NotFoundError(strings::Format("consumer cl{} not registered", id));
  }
  if (through_index >= next_index_) {
    return OutOfRangeError(strings::Format(
        "clear index {} beyond last record {}", through_index, next_index_ - 1));
  }
  if (through_index > it->second) it->second = through_index;
  ReclaimLocked();
  return OkStatus();
}

void ChangeLog::ReclaimLocked() {
  if (cleared_.empty()) return;  // no consumers: retain (matches our usage)
  uint64_t min_cleared = UINT64_MAX;
  for (const auto& [id, idx] : cleared_) min_cleared = std::min(min_cleared, idx);
  while (!records_.empty() && records_.front().index <= min_cleared) {
    memory_.Release(records_.front().ApproxBytes());
    records_.pop_front();
  }
}

size_t ChangeLog::Followers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return follow_targets_.size();
}

std::vector<ChangeLog::ConsumerInfo> ChangeLog::Consumers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ConsumerInfo> out;
  out.reserve(cleared_.size());
  for (const auto& [id, cleared_through] : cleared_) {
    out.push_back(ConsumerInfo{id, cleared_through});
  }
  return out;
}

uint64_t ChangeLog::FirstIndex() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.empty() ? 0 : records_.front().index;
}

uint64_t ChangeLog::LastIndex() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_index_ - 1;
}

size_t ChangeLog::RetainedCount() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

uint64_t ChangeLog::TotalAppended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_index_ - 1;
}

std::string ChangeLog::SerializeDump() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& record : records_) {
    out += record.Render();
    out += '\n';
  }
  return out;
}

Status ChangeLog::RestoreFromDump(std::string_view dump) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!records_.empty() || next_index_ != 1) {
    return FailedPreconditionError("restore requires an empty changelog");
  }
  uint64_t last_index = 0;
  size_t line_start = 0;
  while (line_start < dump.size()) {
    size_t line_end = dump.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = dump.size();
    const std::string_view line = dump.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (strings::Trim(line).empty()) continue;
    auto record = ChangeLogRecord::ParseDumpLine(line);
    if (!record.ok()) return record.status();
    if (last_index != 0 && record->index != last_index + 1) {
      // Retained records are always a contiguous run (reclaim is
      // prefix-only), and ReadFrom relies on it.
      return InvalidArgumentError("dump indices must be contiguous");
    }
    last_index = record->index;
    memory_.Charge(record->ApproxBytes());
    records_.push_back(std::move(record.value()));
  }
  next_index_ = last_index + 1;
  return OkStatus();
}

}  // namespace sdci::lustre
