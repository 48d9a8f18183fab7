// RuleIndex correctness: the compiled dispatch must be observably
// indistinguishable from the linear scan it replaces — same verdicts, same
// matched rules, same order — across handcrafted edge cases, a randomized
// 1k-rule property sweep, batched wire-view evaluation, random
// copy-on-write delta sequences (against from-scratch builds, and old
// snapshots after later deltas), and concurrent snapshot swaps.
#include "ripple/rule_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "monitor/event.h"
#include "ripple/rule.h"

namespace sdci::ripple {
namespace {

using lustre::ChangeLogType;
using monitor::FsEvent;

Rule MakeRule(std::string id, std::string pattern, uint32_t mask = kAnyEvent) {
  Rule rule;
  rule.id = std::move(id);
  rule.trigger.event_mask = mask;
  rule.trigger.path_glob = Glob(std::move(pattern));
  rule.action.agent = "exec";
  rule.watch_agent = "watch";
  return rule;
}

FsEvent MakeEvent(std::string path, ChangeLogType type = ChangeLogType::kCreate) {
  FsEvent event;
  event.type = type;
  event.path = std::move(path);
  const size_t cut = event.path.find_last_of('/');
  event.name = cut == std::string::npos ? event.path : event.path.substr(cut + 1);
  return event;
}

// The linear scan the index must be bit-identical to: Trigger::Matches
// over every enabled rule, in id order.
std::vector<std::string> OracleMatch(const std::vector<Rule>& rules, const FsEvent& event) {
  std::vector<std::string> ids;
  for (const Rule& rule : rules) {
    if (rule.enabled && rule.trigger.Matches(event)) ids.push_back(rule.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::shared_ptr<const RuleIndex> BuildAll(const std::vector<Rule>& rules) {
  RuleIndex::Builder builder;
  for (const Rule& rule : rules) builder.Add(rule);
  return builder.Build();
}

std::vector<std::string> IndexMatch(const RuleIndex& index, const FsEvent& event) {
  std::vector<const Rule*> out;
  index.Match(event, out);
  std::vector<std::string> ids;
  ids.reserve(out.size());
  for (const Rule* rule : out) ids.push_back(rule->id);
  return ids;
}

TEST(RuleIndex, EmptyIndexMatchesNothing) {
  const auto index = RuleIndex::Empty();
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/a/b.txt")));
  EXPECT_EQ(index->size(), 0u);
  EXPECT_EQ(index->layout().trie_nodes, 1u) << "just the root";
}

TEST(RuleIndex, AnchoredDispatchMatchesInRuleIdOrder) {
  const std::vector<Rule> rules = {MakeRule("b-glob", "/proj/alpha/**/*.h5"),
                                   MakeRule("a-exact", "/proj/alpha/raw/scan.h5"),
                                   MakeRule("c-star", "/proj/alpha/raw/*.h5"),
                                   MakeRule("d-other", "/proj/beta/**")};
  const auto index = BuildAll(rules);

  const FsEvent hit = MakeEvent("/proj/alpha/raw/scan.h5");
  EXPECT_TRUE(index->MatchesAny(hit));
  EXPECT_EQ(IndexMatch(*index, hit),
            (std::vector<std::string>{"a-exact", "b-glob", "c-star"}));
  EXPECT_EQ(IndexMatch(*index, hit), OracleMatch(rules, hit));

  EXPECT_FALSE(index->MatchesAny(MakeEvent("/proj/gamma/x.h5")));
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/proj/beta/anything/at/all")));
}

TEST(RuleIndex, MidComponentPrefixStillCatchesLongerComponents) {
  // "/lab/img" must catch "/lab/imgs/x" — the prefix ends mid-component.
  RuleIndex::Builder builder;
  builder.Add(MakeRule("imgs", "/lab/img*/**"));
  const auto index = builder.Build();
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/lab/imgs/x")));
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/lab/img-old/deep/y")));
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/lab/data/x")));
  // The partial also applies when the component is the path's leaf.
  builder.Add(MakeRule("leaf", "/lab/img*"));
  const auto index2 = builder.Build();
  EXPECT_TRUE(index2->MatchesAny(MakeEvent("/lab/imgs")));
}

TEST(RuleIndex, DisabledRulesAreKeptButNeverMatch) {
  Rule off = MakeRule("off", "/a/**");
  off.enabled = false;
  const auto index = RuleIndex::Builder().Add(off).Build();
  EXPECT_EQ(index->size(), 1u) << "size() counts the installed set";
  ASSERT_NE(index->Find("off"), nullptr);
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/a/b")));
}

TEST(RuleIndex, BuilderKeepsTheLastRuleAddedWithAnId) {
  RuleIndex::Builder builder;
  builder.Add(MakeRule("same", "/old/**"));
  builder.Add(MakeRule("other", "/x/**"));
  builder.Add(MakeRule("same", "/new/**"));
  const auto index = builder.Build();
  EXPECT_EQ(index->size(), 2u);
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/old/a")));
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/new/a")));
  EXPECT_EQ(index->layout().anchored_rules, 2u);
}

TEST(RuleIndex, CatchAllRulesProbeOnlyTheirKindBucket) {
  RuleIndex::Builder builder;
  builder.Add(MakeRule("h5", "**/*.h5", kCreated));
  builder.Add(MakeRule("del", "**", kDeleted));
  const auto index = builder.Build();
  EXPECT_EQ(index->layout().catch_all_rules, 2u);
  EXPECT_EQ(index->layout().anchored_rules, 0u);
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/d/s.h5", ChangeLogType::kCreate)));
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/d/s.h5", ChangeLogType::kMtime)))
      << "kModified probes a bucket holding neither rule";
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/d/s.txt", ChangeLogType::kUnlink)));
}

TEST(RuleIndex, KindlessEventsAndEmptyPathsNeverMatch) {
  const auto index = RuleIndex::Builder().Add(MakeRule("all", "**")).Build();
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/a/b", ChangeLogType::kMark)));
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/a/b", ChangeLogType::kOpen)));
  FsEvent unresolved = MakeEvent("", ChangeLogType::kCreate);
  EXPECT_FALSE(index->MatchesAny(unresolved))
      << "Trigger::Matches rejects unresolved paths; the index must agree";
}

TEST(RuleIndex, NameSuffixResidualApplies) {
  Rule rule = MakeRule("tif", "/lab/**");
  rule.trigger.name_suffix = ".tif";
  const auto index = RuleIndex::Builder().Add(rule).Build();
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/lab/a/b.tif")));
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/lab/a/b.h5")));
}

// --- Randomized oracle sweep -------------------------------------------

constexpr const char* kDirs[] = {"alpha", "beta", "gamma", "img", "raw",
                                 "cooked", "t1", "t2"};
constexpr const char* kExts[] = {"h5", "tif", "dat", "log"};

std::string RandomPattern(Rng& rng) {
  const char* a = kDirs[rng.NextBelow(std::size(kDirs))];
  const char* b = kDirs[rng.NextBelow(std::size(kDirs))];
  const char* ext = kExts[rng.NextBelow(std::size(kExts))];
  switch (rng.NextBelow(8)) {
    case 0: return std::string("/") + a + "/" + b + "/**/*." + ext;
    case 1: return std::string("/") + a + "/" + b + "/*." + ext;
    case 2: return std::string("/") + a + "/" + b + "/file" +
                   std::to_string(rng.NextBelow(4)) + "." + ext;  // exact
    case 3: return std::string("/") + a + "/run[0-3]/out." + ext; // class
    case 4: return std::string("*.") + ext;                       // catch-all
    case 5: return std::string("**/") + b + "/*." + ext;          // catch-all
    case 6: return std::string("/") + a + "/" + b + "*/**";       // partial
    default: return std::string("/") + a + "/**";
  }
}

Rule RandomRule(Rng& rng, size_t i) {
  Rule rule = MakeRule("r" + std::to_string(1000 + i), RandomPattern(rng));
  switch (rng.NextBelow(4)) {
    case 0: rule.trigger.event_mask = kAnyEvent; break;
    case 1: rule.trigger.event_mask = kCreated; break;
    case 2: rule.trigger.event_mask = kCreated | kModified | kRenamed; break;
    default:
      rule.trigger.event_mask = static_cast<uint32_t>(rng.NextBelow(127) + 1);
      break;
  }
  if (rng.NextBool(0.3)) {
    rule.trigger.name_suffix = std::string(".") + kExts[rng.NextBelow(std::size(kExts))];
  }
  rule.enabled = !rng.NextBool(0.1);
  return rule;
}

FsEvent RandomEvent(Rng& rng) {
  static constexpr ChangeLogType kTypes[] = {
      ChangeLogType::kCreate, ChangeLogType::kMkdir,   ChangeLogType::kUnlink,
      ChangeLogType::kRename, ChangeLogType::kMtime,   ChangeLogType::kSetattr,
      ChangeLogType::kClose,  ChangeLogType::kRmdir,   ChangeLogType::kMark,
      ChangeLogType::kOpen};
  std::string path;
  if (!rng.NextBool(0.05)) {  // 5% unresolved (empty) paths
    const size_t depth = rng.NextBelow(4);
    for (size_t d = 0; d < depth; ++d) {
      path += "/";
      path += kDirs[rng.NextBelow(std::size(kDirs))];
    }
    path += rng.NextBool(0.2) ? "" : "/";
    if (rng.NextBool(0.15)) {
      path += "run" + std::to_string(rng.NextBelow(5)) + "/";
    }
    path += "file" + std::to_string(rng.NextBelow(4)) + "." +
            kExts[rng.NextBelow(std::size(kExts))];
    if (rng.NextBool(0.1)) path = path.substr(1);  // relative / bare forms
  }
  return MakeEvent(std::move(path), kTypes[rng.NextBelow(std::size(kTypes))]);
}

class RuleIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RuleIndexPropertyTest, VerdictsBitIdenticalToLinearScanOracle) {
  Rng rng(GetParam());
  std::vector<Rule> rules;
  for (size_t i = 0; i < 1000; ++i) rules.push_back(RandomRule(rng, i));
  const auto index = BuildAll(rules);
  ASSERT_EQ(index->size(), 1000u);
  RuleIndex::Scratch scratch;
  for (int trial = 0; trial < 2000; ++trial) {
    const FsEvent event = RandomEvent(rng);
    const std::vector<std::string> expect = OracleMatch(rules, event);
    ASSERT_EQ(IndexMatch(*index, event), expect)
        << "path=" << event.path << " type=" << static_cast<int>(event.type);
    // MatchesAny via the scratch-reusing probe agrees with the full match.
    ASSERT_EQ(index->MatchesAny(KindOfEvent(event.type), event.path, event.name,
                                scratch),
              !expect.empty())
        << "path=" << event.path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleIndexPropertyTest,
                         ::testing::Values(21, 22, 23, 24));

TEST(RuleIndex, EvaluateBatchAgreesWithPerEventOracle) {
  Rng rng(99);
  std::vector<Rule> rules;
  for (size_t i = 0; i < 500; ++i) rules.push_back(RandomRule(rng, i));
  const auto index = BuildAll(rules);
  RuleIndex::Scratch scratch;
  for (int round = 0; round < 20; ++round) {
    std::vector<FsEvent> events;
    for (int i = 0; i < 64; ++i) events.push_back(RandomEvent(rng));
    // Consecutive same-directory events exercise the descent cache.
    for (int i = 1; i < 16; ++i) {
      FsEvent sibling = events[0];
      sibling.name = "sib" + std::to_string(i) + ".h5";
      const size_t cut = sibling.path.find_last_of('/');
      sibling.path =
          (cut == std::string::npos ? "" : sibling.path.substr(0, cut + 1)) +
          sibling.name;
      events.push_back(std::move(sibling));
    }
    const std::string payload = monitor::EncodeEventBatch(events);
    auto view = monitor::wire::EventBatchView::Bind(payload);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    std::vector<uint32_t> matched;
    const size_t appended = index->EvaluateBatch(*view, scratch, matched);
    EXPECT_EQ(appended, matched.size());
    std::vector<uint32_t> expect;
    for (uint32_t i = 0; i < events.size(); ++i) {
      if (!OracleMatch(rules, events[i]).empty()) expect.push_back(i);
    }
    ASSERT_EQ(matched, expect) << "round " << round;
  }
}

// --- Copy-on-write deltas -------------------------------------------------

// A wire batch of random events plus the events themselves (the oracle's
// input), with a same-directory run to exercise the descent cache.
struct EventCorpus {
  std::vector<FsEvent> events;
  std::string payload;
};

EventCorpus RandomCorpus(Rng& rng, size_t n) {
  EventCorpus corpus;
  for (size_t i = 0; i < n; ++i) corpus.events.push_back(RandomEvent(rng));
  for (int i = 1; i < 8; ++i) {
    FsEvent sibling = corpus.events[0];
    const size_t cut = sibling.path.find_last_of('/');
    sibling.name = "sib" + std::to_string(i) + ".h5";
    sibling.path =
        (cut == std::string::npos ? "" : sibling.path.substr(0, cut + 1)) + sibling.name;
    corpus.events.push_back(std::move(sibling));
  }
  corpus.payload = monitor::EncodeEventBatch(corpus.events);
  return corpus;
}

std::vector<Rule> Values(const std::map<std::string, Rule>& rules) {
  std::vector<Rule> out;
  for (const auto& [id, rule] : rules) out.push_back(rule);
  return out;
}

// Checks one snapshot against its rule set: Match, MatchesAny and
// EvaluateBatch against the linear oracle and a from-scratch build.
void ExpectAnswersFor(const RuleIndex& index, const std::vector<Rule>& rules,
                      const EventCorpus& corpus) {
  ASSERT_EQ(index.size(), rules.size());
  const auto scratch_built = BuildAll(rules);
  RuleIndex::Scratch scratch;
  std::vector<uint32_t> expect_batch;
  for (uint32_t i = 0; i < corpus.events.size(); ++i) {
    const FsEvent& event = corpus.events[i];
    const std::vector<std::string> expect = OracleMatch(rules, event);
    ASSERT_EQ(IndexMatch(index, event), expect) << "path=" << event.path;
    ASSERT_EQ(IndexMatch(*scratch_built, event), expect) << "path=" << event.path;
    ASSERT_EQ(index.MatchesAny(KindOfEvent(event.type), event.path, event.name, scratch),
              !expect.empty())
        << "path=" << event.path;
    if (!expect.empty()) expect_batch.push_back(i);
  }
  auto view = monitor::wire::EventBatchView::Bind(corpus.payload);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  std::vector<uint32_t> matched;
  index.EvaluateBatch(*view, scratch, matched);
  ASSERT_EQ(matched, expect_batch);
}

void ExpectSameLayout(const RuleIndex& index, const std::vector<Rule>& rules) {
  const RuleIndex::Layout got = index.layout();
  const RuleIndex::Layout want = BuildAll(rules)->layout();
  EXPECT_EQ(got.trie_nodes, want.trie_nodes);
  EXPECT_EQ(got.anchored_rules, want.anchored_rules);
  EXPECT_EQ(got.catch_all_rules, want.catch_all_rules);
  EXPECT_EQ(got.max_depth, want.max_depth);
}

class RuleIndexDeltaTest : public ::testing::TestWithParam<uint64_t> {};

// Random insert / replace / remove / disable sequences through
// With/Without. After every step the new snapshot answers exactly like a
// from-scratch build of the same rules and like the linear oracle, with
// the same layout; snapshots kept from earlier steps still answer for
// their own rule sets after all later steps (persistence).
TEST_P(RuleIndexDeltaTest, DeltasMatchFromScratchBuildsAndOldSnapshotsPersist) {
  Rng rng(GetParam());
  std::map<std::string, Rule> model;
  std::shared_ptr<const RuleIndex> index = RuleIndex::Empty();
  struct Kept {
    std::shared_ptr<const RuleIndex> index;
    std::vector<Rule> rules;
  };
  std::vector<Kept> kept;
  const auto pick_installed = [&]() -> const Rule* {
    if (model.empty()) return nullptr;
    auto it = model.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.NextBelow(model.size())));
    return &it->second;
  };
  for (int step = 0; step < 300; ++step) {
    const uint64_t op = rng.NextBelow(10);
    const Rule* installed = pick_installed();
    if (op < 4 || installed == nullptr) {  // insert (or replace on an id clash)
      Rule rule = RandomRule(rng, rng.NextBelow(80));
      model[rule.id] = rule;
      index = index->With(std::make_shared<const Rule>(std::move(rule)));
    } else if (op < 6) {  // replace an installed rule with a new shape
      Rule rule = RandomRule(rng, 0);
      rule.id = installed->id;
      model[rule.id] = rule;
      index = index->With(std::make_shared<const Rule>(std::move(rule)));
    } else if (op < 8) {  // remove (sometimes a rule that is not installed)
      const Rule victim = rng.NextBool(0.2) ? MakeRule("absent", "/x/**") : *installed;
      model.erase(victim.id);
      index = index->Without(victim);
    } else {  // disable (or re-enable) in place
      Rule rule = *installed;
      rule.enabled = !rule.enabled;
      model[rule.id] = rule;
      index = index->With(std::make_shared<const Rule>(std::move(rule)));
    }
    const std::vector<Rule> rules = Values(model);
    const EventCorpus corpus = RandomCorpus(rng, 24);
    ExpectAnswersFor(*index, rules, corpus);
    ExpectSameLayout(*index, rules);
    if (HasFatalFailure() || HasNonfatalFailure()) FAIL() << "at step " << step;
    if (step % 20 == 0) kept.push_back({index, rules});
  }
  for (size_t i = 0; i < kept.size(); ++i) {
    ExpectAnswersFor(*kept[i].index, kept[i].rules, RandomCorpus(rng, 64));
    ExpectSameLayout(*kept[i].index, kept[i].rules);
    if (HasFatalFailure() || HasNonfatalFailure()) FAIL() << "kept snapshot " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleIndexDeltaTest, ::testing::Values(31, 32, 33, 34));

TEST(RuleIndex, RemovingTheLastRuleUnderADirectoryPrunesItsNodes) {
  const auto base = BuildAll({MakeRule("keep", "/a/b/**")});
  const auto rule = std::make_shared<const Rule>(MakeRule("deep", "/a/c/d/e/*.h5"));
  const auto grown = base->With(rule);
  EXPECT_GT(grown->layout().trie_nodes, base->layout().trie_nodes);
  EXPECT_EQ(grown->layout().max_depth, 5u);
  const auto shrunk = grown->Without(*rule);
  EXPECT_EQ(shrunk->layout().trie_nodes, base->layout().trie_nodes);
  EXPECT_EQ(shrunk->layout().max_depth, base->layout().max_depth);
  EXPECT_EQ(shrunk->Find("deep"), nullptr);
  EXPECT_NE(grown->Find("deep"), nullptr) << "the older snapshot is untouched";
}

// Readers race a writer that publishes snapshots through a
// RuleSnapshotSlot — the exact publication protocol Agent and
// CloudService use. A handle a reader took must keep its snapshot alive
// and its verdicts oracle-exact for that snapshot's rule set: concurrent
// swaps can never produce a verdict no rule set ever held. A replaced
// snapshot must be freed once its last reader lets go — no retire list —
// so at most one snapshot per reader plus the current one is ever alive.
// check.sh greps for these tests in the TSan suite.
class SnapshotHistory {
 public:
  // Records `index`'s rule set before it is published.
  void Record(const std::shared_ptr<const RuleIndex>& index, std::vector<Rule> rules) {
    const std::lock_guard<std::mutex> lock(mutex_);
    sets_[index.get()] = std::make_shared<const std::vector<Rule>>(std::move(rules));
    published_.push_back(index);
  }
  // The rule set of a snapshot the caller holds (Empty() has none).
  std::shared_ptr<const std::vector<Rule>> RulesOf(const RuleIndex* index) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sets_.find(index);
    return it == sets_.end() ? std::make_shared<const std::vector<Rule>>() : it->second;
  }
  size_t Live() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<size_t>(std::count_if(published_.begin(), published_.end(),
                                             [](const auto& w) { return !w.expired(); }));
  }
  // After the readers finished: every snapshot but the current one freed.
  void ExpectOnlyCurrentAlive() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i + 1 < published_.size(); ++i) {
      EXPECT_TRUE(published_[i].expired()) << "replaced snapshot " << i << " still alive";
    }
    EXPECT_FALSE(published_.back().expired()) << "the slot holds the current one";
  }

 private:
  mutable std::mutex mutex_;
  std::map<const RuleIndex*, std::shared_ptr<const std::vector<Rule>>> sets_;
  std::vector<std::weak_ptr<const RuleIndex>> published_;
};

constexpr int kReaders = 3;

TEST(RuleIndexConcurrency, ConcurrentSnapshotSwapsKeepVerdictsOracleExact) {
  RuleSnapshotSlot slot;
  SnapshotHistory history;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  size_t max_live = 0;
  constexpr int kSwaps = 200;
  std::thread writer([&] {
    Rng rng(7);
    for (int swap = 0; swap < kSwaps; ++swap) {
      std::vector<Rule> rules;
      const size_t n = 1 + rng.NextBelow(50);
      for (size_t i = 0; i < n; ++i) rules.push_back(RandomRule(rng, i));
      auto index = BuildAll(rules);
      history.Record(index, std::move(rules));
      slot.Publish(std::move(index));
      max_live = std::max(max_live, history.Live());
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      RuleIndex::Scratch scratch;  // reused across snapshots: epoch guard
      while (!stop.load(std::memory_order_acquire)) {
        const auto index = slot.Acquire();
        const auto rules = history.RulesOf(index.get());
        const FsEvent event = RandomEvent(rng);
        std::vector<const Rule*> out;
        index->Match(KindOfEvent(event.type), event.path, event.name, scratch, out);
        std::vector<std::string> ids;
        for (const Rule* rule : out) ids.push_back(rule->id);
        if (ids != OracleMatch(*rules, event)) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(failed.load()) << "a reader saw a verdict its snapshot never held";
  EXPECT_LE(max_live, static_cast<size_t>(kReaders + 1));
  history.ExpectOnlyCurrentAlive();
}

// The same race with copy-on-write deltas: the writer publishes
// With/Without steps (shared nodes, freed paths) while readers run the
// agent's batched EvaluateBatch probe against whatever they hold.
TEST(RuleIndexConcurrency, ConcurrentDeltasKeepBatchVerdictsOracleExact) {
  RuleSnapshotSlot slot;
  SnapshotHistory history;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  size_t max_live = 0;
  constexpr int kDeltas = 400;
  std::thread writer([&] {
    Rng rng(11);
    std::map<std::string, Rule> model;
    for (int delta = 0; delta < kDeltas; ++delta) {
      Rule rule = RandomRule(rng, rng.NextBelow(40));
      std::shared_ptr<const RuleIndex> next;
      if (model.count(rule.id) != 0 && rng.NextBool(0.4)) {
        model.erase(rule.id);
        next = slot.Acquire()->Without(rule);
      } else {
        model[rule.id] = rule;
        next = slot.Acquire()->With(std::make_shared<const Rule>(std::move(rule)));
      }
      history.Record(next, Values(model));
      slot.Publish(std::move(next));
      max_live = std::max(max_live, history.Live());
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(200 + t);
      const EventCorpus corpus = RandomCorpus(rng, 48);
      auto view = monitor::wire::EventBatchView::Bind(corpus.payload);
      if (!view.ok()) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      RuleIndex::Scratch scratch;
      std::vector<uint32_t> matched;
      while (!stop.load(std::memory_order_acquire)) {
        const auto index = slot.Acquire();
        const auto rules = history.RulesOf(index.get());
        matched.clear();
        index->EvaluateBatch(*view, scratch, matched);
        std::vector<uint32_t> expect;
        for (uint32_t i = 0; i < corpus.events.size(); ++i) {
          if (!OracleMatch(*rules, corpus.events[i]).empty()) expect.push_back(i);
        }
        if (matched != expect) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(failed.load()) << "a reader saw a verdict its snapshot never held";
  EXPECT_LE(max_live, static_cast<size_t>(kReaders + 1));
  history.ExpectOnlyCurrentAlive();
}

}  // namespace
}  // namespace sdci::ripple
