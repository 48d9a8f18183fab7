#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_map>

#include "monitor/event.h"

namespace perfbench {

using sdci::lustre::ChangeLogType;

uint64_t Oracle::Expect(int mdt, ChangeLogType type, std::string path, int64_t due_ns) {
  auto& log = records_.at(static_cast<size_t>(mdt));
  log.push_back(ExpectedRecord{type, std::move(path), due_ns});
  return log.size();
}

void Oracle::SetDueForUntimed(int64_t due_ns) {
  for (auto& log : records_) {
    for (auto& record : log) {
      if (record.due_ns == kUntimed) record.due_ns = due_ns;
    }
  }
}

uint64_t Oracle::Total() const noexcept {
  uint64_t total = 0;
  for (const auto& log : records_) total += log.size();
  return total;
}

const ExpectedRecord* Oracle::Find(int mdt, uint64_t record_index) const noexcept {
  if (mdt < 0 || static_cast<size_t>(mdt) >= records_.size()) return nullptr;
  const auto& log = records_[static_cast<size_t>(mdt)];
  if (record_index == 0 || record_index > log.size()) return nullptr;
  return &log[record_index - 1];
}

uint64_t PathHash(std::string_view path) noexcept {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : path) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return h;
}

DeliveryCheck CheckDeliveries(const Oracle& oracle, const std::vector<Delivery>& log,
                              size_t shards) {
  DeliveryCheck check;
  check.expected = oracle.Total();
  check.delivered = log.size();
  std::vector<std::vector<bool>> seen(oracle.mdts());
  std::vector<uint64_t> last(oracle.mdts(), 0);
  for (size_t m = 0; m < oracle.mdts(); ++m) seen[m].assign(oracle.Count(m) + 1, false);
  std::vector<uint64_t> next_seq(shards, 1);
  uint64_t distinct = 0;
  for (const Delivery& d : log) {
    if (d.shard >= shards) {
      ++check.wrong;
      continue;
    }
    if (d.global_seq != next_seq[d.shard]) ++check.seq_errors;
    next_seq[d.shard] = d.global_seq + 1;

    const ExpectedRecord* expected = oracle.Find(d.mdt, d.record_index);
    if (expected == nullptr) {
      ++check.wrong;
      continue;
    }
    const auto mdt = static_cast<size_t>(d.mdt);
    if (seen[mdt][d.record_index]) {
      ++check.duplicated;
      continue;
    }
    seen[mdt][d.record_index] = true;
    ++distinct;
    if (d.record_index < last[mdt]) {
      ++check.reordered;
    } else {
      last[mdt] = d.record_index;
    }
    if (static_cast<uint8_t>(expected->type) != d.type ||
        PathHash(expected->path) != d.path_hash ||
        d.shard != static_cast<uint32_t>(mdt % shards)) {
      ++check.wrong;
    }
  }
  check.lost = check.expected - distinct;
  return check;
}

namespace {

// The directory a glob is anchored at: its text up to the last '/' before
// the first metacharacter ("" when the pattern opens with one).
std::string AnchorDir(const std::string& pattern) {
  const size_t meta = pattern.find_first_of("*?[{");
  const std::string literal = pattern.substr(0, meta);
  const size_t slash = literal.rfind('/');
  return slash == std::string::npos ? std::string() : literal.substr(0, slash);
}

sdci::monitor::FsEvent EventOf(const ExpectedRecord& record, int mdt, uint64_t index) {
  sdci::monitor::FsEvent event;
  event.mdt_index = mdt;
  event.record_index = index;
  event.type = record.type;
  event.path = record.path;
  const size_t slash = record.path.rfind('/');
  event.name = slash == std::string::npos ? record.path : record.path.substr(slash + 1);
  return event;
}

}  // namespace

std::vector<ActionKey> ExpectedActions(const Oracle& oracle,
                                       const std::vector<sdci::ripple::Rule>& rules,
                                       size_t full_scan_every) {
  std::unordered_map<std::string, std::vector<size_t>> by_dir;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (!rules[i].enabled) continue;
    by_dir[AnchorDir(rules[i].trigger.path_glob.pattern())].push_back(i);
  }
  std::vector<ActionKey> out;
  std::vector<size_t> hits;
  uint64_t visited = 0;
  for (size_t m = 0; m < oracle.mdts(); ++m) {
    for (uint64_t index = 1; index <= oracle.Count(m); ++index) {
      const int mdt = static_cast<int>(m);
      const sdci::monitor::FsEvent event = EventOf(*oracle.Find(mdt, index), mdt, index);
      hits.clear();
      // Walk the path's ancestors ("/a/b/c" -> "/a/b", "/a", "").
      std::string_view dir = event.path;
      while (true) {
        const size_t slash = dir.rfind('/');
        dir = slash == std::string_view::npos ? std::string_view() : dir.substr(0, slash);
        const auto it = by_dir.find(std::string(dir));
        if (it != by_dir.end()) {
          for (const size_t r : it->second) {
            if (rules[r].trigger.Matches(event)) hits.push_back(r);
          }
        }
        if (dir.empty()) break;
      }
      std::sort(hits.begin(), hits.end());
      if (full_scan_every > 0 && visited++ % full_scan_every == 0) {
        std::vector<size_t> linear;
        for (size_t r = 0; r < rules.size(); ++r) {
          if (rules[r].enabled && rules[r].trigger.Matches(event)) linear.push_back(r);
        }
        if (linear != hits) {
          std::fprintf(stderr, "perfbench: action oracle disagrees with the full scan\n");
          std::abort();
        }
      }
      for (const size_t r : hits) out.push_back(ActionKey{rules[r].id, mdt, index});
    }
  }
  return out;
}

ActionCheck CheckActions(std::vector<ActionKey> expected,
                         const std::vector<ExecutedAction>& executed) {
  ActionCheck check;
  check.expected = expected.size();
  check.executed = executed.size();
  std::vector<ActionKey> done;
  done.reserve(executed.size());
  for (const auto& action : executed) done.push_back(action.key);
  std::sort(expected.begin(), expected.end());
  std::sort(done.begin(), done.end());
  size_t i = 0;
  size_t j = 0;
  while (i < expected.size() || j < done.size()) {
    if (j < done.size() && j > 0 && done[j] == done[j - 1]) {
      ++check.duplicated;
      ++j;
    } else if (j == done.size() || (i < expected.size() && expected[i] < done[j])) {
      ++check.missing;
      ++i;
    } else if (i == expected.size() || done[j] < expected[i]) {
      ++check.unexpected;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return check;
}

PageCheck CheckPages(const std::vector<Page>& pages, const std::vector<Delivery>& log) {
  // Per-shard seq -> delivery, and every delivery ordered by timestamp.
  std::map<std::pair<uint32_t, uint64_t>, const Delivery*> by_seq;
  std::vector<const Delivery*> by_time;
  by_time.reserve(log.size());
  for (const Delivery& d : log) {
    by_seq.emplace(std::make_pair(d.shard, d.global_seq), &d);
    by_time.push_back(&d);
  }
  std::sort(by_time.begin(), by_time.end(),
            [](const Delivery* a, const Delivery* b) { return a->time_ns < b->time_ns; });
  const auto identity = [](int32_t mdt, uint64_t index) { return std::make_pair(mdt, index); };

  PageCheck check;
  for (const Page& page : pages) {
    ++check.pages;
    bool good = page.ok && !page.partial;
    if (good && page.kind == Page::Kind::kShardSeq) {
      std::vector<const Delivery*> want;
      for (auto it = by_seq.lower_bound({page.shard, page.from_seq});
           it != by_seq.end() && it->first.first == page.shard && want.size() < page.max;
           ++it) {
        want.push_back(it->second);
      }
      good = want.size() == page.events.size();
      for (size_t i = 0; good && i < want.size(); ++i) {
        const PageEvent& got = page.events[i];
        good = want[i]->global_seq == page.from_seq + i && got.shard == page.shard &&
               got.seq == want[i]->global_seq && got.mdt == want[i]->mdt &&
               got.record_index == want[i]->record_index &&
               got.time_ns == want[i]->time_ns;
      }
    } else if (good) {
      const auto lo = std::lower_bound(
          by_time.begin(), by_time.end(), page.from_time,
          [](const Delivery* d, int64_t t) { return d->time_ns < t; });
      const auto hi = std::lower_bound(
          lo, by_time.end(), page.to_time,
          [](const Delivery* d, int64_t t) { return d->time_ns < t; });
      std::vector<std::pair<int32_t, uint64_t>> want;
      for (auto it = lo; it != hi; ++it) want.push_back(identity((*it)->mdt, (*it)->record_index));
      std::vector<std::pair<int32_t, uint64_t>> got;
      for (const PageEvent& e : page.events) got.push_back(identity(e.mdt, e.record_index));
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      good = page.hlc_sorted && want == got;
    }
    if (!good) ++check.bad;
  }
  return check;
}

}  // namespace perfbench
