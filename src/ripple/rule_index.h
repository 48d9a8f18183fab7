// RuleIndex: compiled O(matching-rules) dispatch for Ripple triggers.
//
// The naive rule engine evaluates every event against every registered
// rule — a linear glob sweep that is fine for the paper's demo policies
// and dead at a million tenants. This index compiles the rule set once
// into a dispatch structure so a probe touches only the rules that could
// possibly match the event's path:
//
//   1. Each trigger's glob is split at its first metacharacter into a
//      literal path prefix (Glob::LiteralPrefix) and a residual tail.
//      "/tenants/u42/data/**/*.h5" anchors at the "/tenants/u42/data"
//      directory with residual "**/*.h5".
//   2. Prefixes are inserted into a path-segment trie: one node per
//      directory component, each node holding the rules anchored exactly
//      at that directory (`here`) plus rules whose prefix ends
//      mid-component (`partial`, matched by starts_with against the next
//      component — "/lab/img" must still catch "/lab/imgs/x").
//   3. Rules whose pattern opens with a metacharacter (no usable prefix)
//      go to a small per-event-kind catch-all list; since KindOfEvent
//      yields a single bit per event, one bucket is probed per event.
//
// A probe descends the trie along the event path's directory components
// (O(depth), independent of rule count), gathers the candidate rules on
// the way, and runs the residual predicate — event-kind mask, glob tail
// via Glob::MatchesSuffix, name suffix — on candidates only. The batched
// entry point walks a wire::EventBatchView in place (string_view paths,
// no FsEvent materialization) and caches the directory descent across
// consecutive events from the same directory, the common case for real
// changelog streams.
//
// A RuleIndex is an immutable, persistent snapshot. With() and Without()
// return a new snapshot that shares every trie node, bucket and rule it
// did not touch with the old one: a mutation copies the nodes from the
// root to the rule's anchor and the one bucket it changes, O(trie path),
// and compiles only the changed rule. Rules are shared, never copied:
// owners hand in a std::shared_ptr<const Rule>. A snapshot no one holds is
// freed at once, and so is everything only it reached. Owners publish
// snapshots through a RuleSnapshotSlot (below).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash_trie.h"
#include "monitor/event.h"
#include "monitor/wire_v4.h"
#include "ripple/rule.h"

namespace sdci::ripple {

class RuleIndex {
  // Per-rule residual predicate, precompiled from the trigger and kept
  // inline in the trie buckets so a probe reads the rule only for glob
  // tails and name suffixes.
  struct Entry {
    const Rule* rule = nullptr;  // owned by the snapshot's rules_
    uint32_t event_mask = 0;
    uint32_t prefix_len = 0;
    // What remains of the glob after the literal prefix: nothing (the
    // path must equal the prefix exactly), a bare "**" (any descendant —
    // the prefix probe alone decides), or a general tail that needs
    // Glob::MatchesSuffix on the path remainder.
    enum class Tail : uint8_t { kExact, kAnything, kGlob } tail = Tail::kGlob;
    bool has_suffix = false;
  };
  struct Node;

 public:
  // Reusable probe state. Holds the cached trie descent of the last
  // event's directory, so batch evaluation allocates nothing in steady
  // state. A Scratch may be reused across indexes — the cache
  // self-invalidates when the index (or its epoch) changes.
  struct Scratch {
    std::string dir;  // cached directory (with trailing '/')
    // Buckets whose candidates do not depend on the leaf.
    std::vector<std::span<const Entry>> dir_buckets;
    const Node* leaf_node = nullptr;  // deepest trie node (null: descent cut short)
    const RuleIndex* owner = nullptr;
    uint64_t epoch = 0;
  };

  // Bulk construction for loading a whole rule set at once: builds the
  // trie in place (every node is new and unshared). The built snapshot's
  // rules share one allocation, freed once no snapshot holds any of them.
  class Builder {
   public:
    // Disabled rules are kept (size() counts them) but never indexed, so
    // they never match — same verdict as a linear scan. A later rule with
    // an earlier rule's id replaces it, as With() does.
    Builder& Add(Rule rule);
    // Compiles the added rules and resets the builder.
    [[nodiscard]] std::shared_ptr<const RuleIndex> Build();

   private:
    std::vector<Rule> rules_;
  };

  // The shared empty index (what an Agent starts with).
  [[nodiscard]] static std::shared_ptr<const RuleIndex> Empty();

  // --- Copy-on-write mutations ---

  // A new snapshot with `rule` installed, replacing the rule with the
  // same id if there is one. This snapshot is unchanged.
  [[nodiscard]] std::shared_ptr<const RuleIndex> With(std::shared_ptr<const Rule> rule) const;
  // A new snapshot without the installed rule whose id is `rule.id` (the
  // same rule set when there is none). This snapshot is unchanged.
  [[nodiscard]] std::shared_ptr<const RuleIndex> Without(const Rule& rule) const;

  // --- Single-event probes ---

  // `kind` must be KindOfEvent(event type): a single EventKind bit, or 0
  // (which never matches). `path`/`name` may alias wire payload bytes.
  [[nodiscard]] bool MatchesAny(uint32_t kind, std::string_view path,
                                std::string_view name, Scratch& scratch) const;
  // Appends every matching enabled rule in rule-id order — bit-identical
  // to a linear `trigger.Matches` scan over the same rules. The pointers
  // stay valid while this snapshot is held.
  void Match(uint32_t kind, std::string_view path, std::string_view name,
             Scratch& scratch, std::vector<const Rule*>& out) const;

  // Convenience overloads for owning events (control plane, tests).
  [[nodiscard]] bool MatchesAny(const monitor::FsEvent& event) const;
  void Match(const monitor::FsEvent& event, std::vector<const Rule*>& out) const;

  // --- Batched zero-copy evaluation ---

  // Walks the bound view in place and appends the indexes of events that
  // match at least one rule. Non-matching events never materialize an
  // FsEvent: paths are probed as string_views into the payload, events
  // whose type has no rule-facing kind skip string resolution entirely,
  // and the trie descent is shared across consecutive same-directory
  // events. Returns the number of indexes appended.
  size_t EvaluateBatch(const monitor::wire::EventBatchView& view,
                       Scratch& scratch, std::vector<uint32_t>& matched) const;

  // --- Installed rules (including disabled) ---

  [[nodiscard]] const Rule* Find(std::string_view id) const noexcept {
    return rules_.Find(id);
  }
  // Visits every installed rule, in no particular order.
  template <typename Fn>
  void ForEachRule(Fn&& fn) const {
    rules_.ForEach(fn);
  }
  [[nodiscard]] size_t size() const noexcept { return rules_.size(); }

  // Structure introspection for benches and docs.
  struct Layout {
    size_t trie_nodes = 0;       // including the root
    size_t anchored_rules = 0;   // rules dispatched through the trie
    size_t catch_all_rules = 0;  // rules with no usable literal prefix
    size_t max_depth = 0;        // deepest anchor, in path components
  };
  [[nodiscard]] Layout layout() const noexcept;

 private:
  static std::string_view RuleId(const Rule& rule) noexcept { return rule.id; }
  static std::string_view NodeName(const Node& node) noexcept;

  // An immutable run of entries, shared between snapshots until one of
  // them changes it. The builder appends in place (amortized, with
  // spare capacity); a snapshot mutation copies the run.
  class Bucket {
   public:
    [[nodiscard]] std::span<const Entry> entries() const noexcept {
      return {data_.get(), size_};
    }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    void Append(const Entry& entry, bool in_place);
    // Drops the entry for `rule`. Returns false when there is none.
    bool Remove(const Rule* rule);

   private:
    std::shared_ptr<Entry[]> data_;
    uint32_t size_ = 0;
    uint32_t capacity_ = 0;
  };

  struct Partial {
    std::string prefix;
    Bucket bucket;
  };

  struct Node {
    std::string name;  // the directory component (key in the parent)
    HashTrie<Node, &RuleIndex::NodeName> children;
    // Rules anchored exactly at this directory (prefix ends on a '/').
    Bucket here;
    // Rules whose prefix ends mid-component: checked with starts_with
    // against the next path component. Grouped by partial string.
    std::vector<Partial> partial;

    [[nodiscard]] bool empty() const noexcept {
      return children.empty() && here.empty() && partial.empty();
    }
  };

  // Where a rule's literal prefix anchors: its directories (everything
  // through the last '/', one trie level per '/', including the leading
  // empty component of absolute paths) and what is left after them.
  struct Anchor {
    std::string_view dirs;  // "" or '/'-terminated
    std::string_view partial;
    size_t depth = 0;  // in path components
  };
  // Splits the first component off `dirs` ('/'-terminated).
  static std::string_view PopDir(std::string_view& dirs) noexcept;

  RuleIndex();
  // The unpublished copy a mutation edits (shares everything, new epoch).
  [[nodiscard]] std::shared_ptr<RuleIndex> Edit() const;

  // `prefix` is the trigger glob's LiteralPrefix().
  static Entry Compile(const Rule& rule, std::string_view prefix);
  static Anchor AnchorOf(std::string_view prefix);
  // Adds/removes an installed rule's entries. `in_place` writes the trie
  // directly and is only for indexes under construction by the Builder.
  void Index(const Rule& rule, bool in_place);
  void Unindex(const Rule& rule);
  // Path-copying removal below `node`; null when the node empties.
  std::shared_ptr<const Node> Erased(const Node& node, std::string_view dirs,
                                     std::string_view partial, const Rule* rule);

  // Refreshes scratch's cached descent for `dir` ("" or '/'-terminated).
  void DescendDir(std::string_view dir, Scratch& scratch) const;
  // Gathers leaf-dependent candidates and runs residuals. Requires the
  // scratch descent to be current for path's directory.
  [[nodiscard]] bool ProbeAny(uint32_t kind, std::string_view path,
                              std::string_view leaf, std::string_view name,
                              Scratch& scratch) const;
  void ProbeAll(uint32_t kind, std::string_view path, std::string_view leaf,
                std::string_view name, Scratch& scratch,
                std::vector<const Rule*>& out) const;
  void EnsureDescent(std::string_view path, std::string_view& leaf,
                     Scratch& scratch) const;
  [[nodiscard]] static bool Residual(const Entry& entry, uint32_t kind,
                                     std::string_view path, std::string_view name);

  HashTrie<Rule, &RuleIndex::RuleId> rules_;  // installed rules by id
  std::shared_ptr<const Node> root_;
  std::array<Bucket, 7> catch_all_{};  // per EventKind bit
  // Anchored rules per anchor depth; the last element is nonzero.
  std::vector<uint32_t> depth_count_;
  size_t trie_nodes_ = 1;
  size_t anchored_rules_ = 0;
  size_t catch_all_rules_ = 0;
  uint64_t epoch_ = 0;  // unique per snapshot (Scratch invalidation)
};

// Publishes RuleIndex snapshots to readers.
//
// Acquire() hands out a refcounted handle on the current snapshot. The
// handle copy is the only thing done under the slot's lock: no reader
// waits on a compile or a mutation, and no probe runs under a lock.
// Readers take one handle per unit of work (a batch, a queue message),
// never per event; matched Rule pointers stay valid while it is held.
// Publish() swaps in the next snapshot. The replaced one is freed as
// soon as its last reader drops its handle — there is no retire list,
// so memory follows the live snapshots, not the history of rule changes.
// Consecutive snapshots share all but the path a mutation copied.
//
// Owners serialize their read-modify-Publish steps under their own
// control-plane rules mutex, so no mutation is lost.
class RuleSnapshotSlot {
 public:
  [[nodiscard]] std::shared_ptr<const RuleIndex> Acquire() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  void Publish(std::shared_ptr<const RuleIndex> next) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      current_.swap(next);
    }
    // `next` now holds the replaced snapshot; it is released here, outside
    // the lock (and freed unless a reader still holds it).
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const RuleIndex> current_ = RuleIndex::Empty();
};

}  // namespace sdci::ripple
