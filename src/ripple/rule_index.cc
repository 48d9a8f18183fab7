#include "ripple/rule_index.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/strings.h"

namespace sdci::ripple {

namespace {

// Every snapshot gets a fresh stamp: a Scratch caching a descent from a
// destroyed index cannot mistake a new index at the same address for its
// owner.
uint64_t NextEpoch() {
  static std::atomic<uint64_t> epoch{1};
  return epoch.fetch_add(1, std::memory_order_relaxed);
}

// Only the kinds below have catch-all buckets (KindOfEvent never yields
// another bit).
constexpr unsigned kKindBits = 7;

}  // namespace

std::string_view RuleIndex::NodeName(const Node& node) noexcept { return node.name; }

void RuleIndex::Bucket::Append(const Entry& entry, bool in_place) {
  if (!in_place || size_ == capacity_) {
    const uint32_t capacity = in_place ? std::max<uint32_t>(4, 2 * capacity_) : size_ + 1;
    auto grown = std::make_shared<Entry[]>(capacity);
    std::copy(data_.get(), data_.get() + size_, grown.get());
    data_ = std::move(grown);
    capacity_ = capacity;
  }
  data_[size_++] = entry;
}

bool RuleIndex::Bucket::Remove(const Rule* rule) {
  const auto entries = this->entries();
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [rule](const Entry& e) { return e.rule == rule; });
  if (it == entries.end()) return false;
  std::shared_ptr<Entry[]> kept;
  if (size_ > 1) {
    kept = std::make_shared<Entry[]>(size_ - 1);
    std::copy(entries.begin(), it, kept.get());
    std::copy(it + 1, entries.end(), kept.get() + (it - entries.begin()));
  }
  data_ = std::move(kept);
  capacity_ = --size_;
  return true;
}

RuleIndex::RuleIndex() : root_(std::make_shared<Node>()), epoch_(NextEpoch()) {}

std::shared_ptr<RuleIndex> RuleIndex::Edit() const {
  auto next = std::shared_ptr<RuleIndex>(new RuleIndex(*this));
  next->epoch_ = NextEpoch();
  return next;
}

RuleIndex::Builder& RuleIndex::Builder::Add(Rule rule) {
  rules_.push_back(std::move(rule));
  return *this;
}

std::shared_ptr<const RuleIndex> RuleIndex::Builder::Build() {
  auto index = std::shared_ptr<RuleIndex>(new RuleIndex());
  // One allocation holds every added rule, and each rule's pointer shares
  // its reference count: the block is freed once no snapshot holds any of
  // its rules.
  const auto block = std::make_shared<const std::vector<Rule>>(std::move(rules_));
  rules_.clear();
  std::vector<std::shared_ptr<const Rule>> shared;
  shared.reserve(block->size());
  for (const Rule& rule : *block) shared.emplace_back(block, &rule);
  index->rules_ = HashTrie<Rule, &RuleIndex::RuleId>::FromValues(std::move(shared));
  // Index in Add order (the order the rules sit in memory). A rule that a
  // later one with the same id replaced is not installed.
  const bool distinct = index->rules_.size() == block->size();
  for (const Rule& rule : *block) {
    if (distinct || index->rules_.Find(rule.id) == &rule) index->Index(rule, /*in_place=*/true);
  }
  return index;
}

std::shared_ptr<const RuleIndex> RuleIndex::Empty() {
  static const std::shared_ptr<const RuleIndex> kEmpty = Builder().Build();
  return kEmpty;
}

std::shared_ptr<const RuleIndex> RuleIndex::With(std::shared_ptr<const Rule> rule) const {
  auto next = Edit();
  const Rule& installed = *rule;
  // The replaced rule stays alive through this snapshot while its entries
  // are found and dropped from the copy.
  if (const auto replaced = next->rules_.Put(std::move(rule))) next->Unindex(*replaced);
  next->Index(installed, /*in_place=*/false);
  return next;
}

std::shared_ptr<const RuleIndex> RuleIndex::Without(const Rule& rule) const {
  auto next = Edit();
  if (const Rule* installed = rules_.Find(rule.id)) {
    next->Unindex(*installed);
    next->rules_.Erase(rule.id);
  }
  return next;
}

RuleIndex::Entry RuleIndex::Compile(const Rule& rule, std::string_view prefix) {
  const Glob& glob = rule.trigger.path_glob;
  Entry entry;
  entry.rule = &rule;
  entry.event_mask = rule.trigger.event_mask;
  entry.prefix_len = static_cast<uint32_t>(prefix.size());
  entry.has_suffix = rule.trigger.name_suffix.has_value();
  const std::string_view tail = std::string_view(glob.pattern()).substr(prefix.size());
  if (tail.empty()) {
    entry.tail = Entry::Tail::kExact;
  } else if (tail.size() >= 2 && tail.find_first_not_of('*') == std::string_view::npos) {
    // A run of >= 2 stars is one globstar token: matches any remainder.
    entry.tail = Entry::Tail::kAnything;
  } else {
    entry.tail = Entry::Tail::kGlob;
  }
  return entry;
}

RuleIndex::Anchor RuleIndex::AnchorOf(std::string_view prefix) {
  Anchor anchor;
  const size_t cut = prefix.find_last_of('/');
  if (cut != std::string_view::npos) {
    anchor.dirs = prefix.substr(0, cut + 1);
    anchor.depth = static_cast<size_t>(std::count(anchor.dirs.begin(), anchor.dirs.end(), '/'));
  }
  anchor.partial = prefix.substr(anchor.dirs.size());
  if (!anchor.partial.empty()) ++anchor.depth;
  return anchor;
}

std::string_view RuleIndex::PopDir(std::string_view& dirs) noexcept {
  const size_t slash = dirs.find('/');
  const std::string_view comp = dirs.substr(0, slash);
  dirs.remove_prefix(slash + 1);
  return comp;
}

void RuleIndex::Index(const Rule& rule, bool in_place) {
  const std::string_view prefix = rule.trigger.path_glob.LiteralPrefix();
  const Entry entry = Compile(rule, prefix);
  if (!rule.enabled || entry.event_mask == 0) return;  // can never match
  if (prefix.empty()) {
    bool bucketed = false;
    for (unsigned bit = 0; bit < kKindBits; ++bit) {
      if ((entry.event_mask & (1u << bit)) == 0) continue;
      catch_all_[bit].Append(entry, in_place);
      bucketed = true;
    }
    if (bucketed) ++catch_all_rules_;
    return;
  }
  const Anchor anchor = AnchorOf(prefix);
  ++anchored_rules_;
  if (depth_count_.size() <= anchor.depth) depth_count_.resize(anchor.depth + 1);
  ++depth_count_[anchor.depth];
  // Walk down copying each node on the path (in place: editing it), and
  // relink every copy into its parent's children.
  if (!in_place) root_ = std::make_shared<Node>(*root_);
  auto* node = const_cast<Node*>(root_.get());  // an unpublished copy (or the builder's)
  for (std::string_view dirs = anchor.dirs; !dirs.empty();) {
    const std::string_view dir = PopDir(dirs);
    const Node* child = node->children.Find(dir);
    if (child != nullptr && in_place) {
      node = const_cast<Node*>(child);
      continue;
    }
    std::shared_ptr<Node> next;
    if (child == nullptr) {
      next = std::make_shared<Node>();
      next->name = dir;
      ++trie_nodes_;
    } else {
      next = std::make_shared<Node>(*child);
    }
    Node* raw = next.get();
    node->children.Put(std::move(next), in_place);
    node = raw;
  }
  if (anchor.partial.empty()) {
    node->here.Append(entry, in_place);
    return;
  }
  for (Partial& p : node->partial) {
    if (p.prefix == anchor.partial) {
      p.bucket.Append(entry, in_place);
      return;
    }
  }
  node->partial.push_back(Partial{std::string(anchor.partial), {}});
  node->partial.back().bucket.Append(entry, in_place);
}

void RuleIndex::Unindex(const Rule& rule) {
  if (!rule.enabled || rule.trigger.event_mask == 0) return;  // never indexed
  const std::string_view prefix = rule.trigger.path_glob.LiteralPrefix();
  if (prefix.empty()) {
    bool bucketed = false;
    for (Bucket& bucket : catch_all_) bucketed |= bucket.Remove(&rule);
    if (bucketed) --catch_all_rules_;
    return;
  }
  const Anchor anchor = AnchorOf(prefix);
  root_ = Erased(*root_, anchor.dirs, anchor.partial, &rule);
  if (root_ == nullptr) root_ = std::make_shared<Node>();  // the root stays
  --anchored_rules_;
  --depth_count_[anchor.depth];
  while (!depth_count_.empty() && depth_count_.back() == 0) depth_count_.pop_back();
}

std::shared_ptr<const RuleIndex::Node> RuleIndex::Erased(
    const Node& node, std::string_view dirs, std::string_view partial, const Rule* rule) {
  auto copy = std::make_shared<Node>(node);
  if (!dirs.empty()) {
    const std::string_view dir = PopDir(dirs);
    const Node* child = copy->children.Find(dir);
    auto next = Erased(*child, dirs, partial, rule);
    if (next == nullptr) {
      copy->children.Erase(dir);
      --trie_nodes_;
    } else {
      copy->children.Put(std::move(next));
    }
  } else if (partial.empty()) {
    copy->here.Remove(rule);
  } else {
    const auto it = std::find_if(copy->partial.begin(), copy->partial.end(),
                                 [partial](const Partial& p) { return p.prefix == partial; });
    it->bucket.Remove(rule);
    if (it->bucket.empty()) copy->partial.erase(it);
  }
  if (copy->empty()) return nullptr;
  return copy;
}

void RuleIndex::DescendDir(std::string_view dir, Scratch& scratch) const {
  scratch.dir_buckets.clear();
  scratch.leaf_node = nullptr;
  const Node* node = root_.get();
  if (dir.empty()) {
    // A bare filename: only root partials (checked against the leaf by the
    // caller) and catch-alls can apply.
    scratch.leaf_node = node;
    return;
  }
  // dir is '/'-terminated; walk its components, gathering every bucket
  // that does not depend on the leaf: partial prefixes matched against the
  // next directory component, and rules anchored exactly at a visited
  // directory. The deepest node's partials compare against the leaf and
  // are left to the per-event probe.
  const std::string_view rest = dir.substr(0, dir.size() - 1);
  size_t at = 0;
  while (true) {
    const size_t slash = rest.find('/', at);
    const std::string_view comp =
        rest.substr(at, (slash == std::string_view::npos ? rest.size() : slash) - at);
    for (const Partial& p : node->partial) {
      if (comp.starts_with(p.prefix)) scratch.dir_buckets.push_back(p.bucket.entries());
    }
    node = node->children.Find(comp);
    if (node == nullptr) return;  // nothing anchored deeper
    if (!node->here.empty()) scratch.dir_buckets.push_back(node->here.entries());
    if (slash == std::string_view::npos) break;
    at = slash + 1;
  }
  scratch.leaf_node = node;
}

void RuleIndex::EnsureDescent(std::string_view path, std::string_view& leaf,
                              Scratch& scratch) const {
  const size_t cut = path.find_last_of('/');
  std::string_view dir;
  if (cut == std::string_view::npos) {
    leaf = path;
  } else {
    dir = path.substr(0, cut + 1);
    leaf = path.substr(cut + 1);
  }
  if (scratch.owner == this && scratch.epoch == epoch_ && scratch.dir == dir) {
    return;  // same directory as the previous event: descent reused
  }
  DescendDir(dir, scratch);
  scratch.dir.assign(dir);
  scratch.owner = this;
  scratch.epoch = epoch_;
}

bool RuleIndex::Residual(const Entry& entry, uint32_t kind, std::string_view path,
                         std::string_view name) {
  if ((kind & entry.event_mask) == 0) return false;
  switch (entry.tail) {
    case Entry::Tail::kExact:
      if (path.size() != entry.prefix_len) return false;
      break;
    case Entry::Tail::kAnything:
      break;
    case Entry::Tail::kGlob:
      if (!entry.rule->trigger.path_glob.MatchesSuffix(path.substr(entry.prefix_len))) {
        return false;
      }
      break;
  }
  return !entry.has_suffix || strings::EndsWith(name, *entry.rule->trigger.name_suffix);
}

bool RuleIndex::ProbeAny(uint32_t kind, std::string_view path,
                         std::string_view leaf, std::string_view name,
                         Scratch& scratch) const {
  for (const auto bucket : scratch.dir_buckets) {
    for (const Entry& entry : bucket) {
      if (Residual(entry, kind, path, name)) return true;
    }
  }
  if (scratch.leaf_node != nullptr) {
    for (const Partial& p : scratch.leaf_node->partial) {
      if (!leaf.starts_with(p.prefix)) continue;
      for (const Entry& entry : p.bucket.entries()) {
        if (Residual(entry, kind, path, name)) return true;
      }
    }
  }
  const unsigned bit = static_cast<unsigned>(std::countr_zero(kind));
  if (bit < catch_all_.size()) {
    for (const Entry& entry : catch_all_[bit].entries()) {
      if (Residual(entry, kind, path, name)) return true;
    }
  }
  return false;
}

void RuleIndex::ProbeAll(uint32_t kind, std::string_view path,
                         std::string_view leaf, std::string_view name,
                         Scratch& scratch, std::vector<const Rule*>& out) const {
  const size_t first = out.size();
  const auto probe = [&](std::span<const Entry> bucket) {
    for (const Entry& entry : bucket) {
      if (Residual(entry, kind, path, name)) out.push_back(entry.rule);
    }
  };
  for (const auto bucket : scratch.dir_buckets) probe(bucket);
  if (scratch.leaf_node != nullptr) {
    for (const Partial& p : scratch.leaf_node->partial) {
      if (leaf.starts_with(p.prefix)) probe(p.bucket.entries());
    }
  }
  const unsigned bit = static_cast<unsigned>(std::countr_zero(kind));
  if (bit < catch_all_.size()) probe(catch_all_[bit].entries());
  // Every rule lives in exactly one probed bucket, so the matches are
  // unique; sorting them by id makes the output bit-identical to a linear
  // scan over an id-ordered rule map.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            [](const Rule* a, const Rule* b) { return a->id < b->id; });
}

bool RuleIndex::MatchesAny(uint32_t kind, std::string_view path,
                           std::string_view name, Scratch& scratch) const {
  if (kind == 0 || path.empty()) return false;
  std::string_view leaf;
  EnsureDescent(path, leaf, scratch);
  return ProbeAny(kind, path, leaf, name, scratch);
}

void RuleIndex::Match(uint32_t kind, std::string_view path,
                      std::string_view name, Scratch& scratch,
                      std::vector<const Rule*>& out) const {
  if (kind == 0 || path.empty()) return;
  std::string_view leaf;
  EnsureDescent(path, leaf, scratch);
  ProbeAll(kind, path, leaf, name, scratch, out);
}

bool RuleIndex::MatchesAny(const monitor::FsEvent& event) const {
  Scratch scratch;
  return MatchesAny(KindOfEvent(event.type), event.path, event.name, scratch);
}

void RuleIndex::Match(const monitor::FsEvent& event,
                      std::vector<const Rule*>& out) const {
  Scratch scratch;
  Match(KindOfEvent(event.type), event.path, event.name, scratch, out);
}

size_t RuleIndex::EvaluateBatch(const monitor::wire::EventBatchView& view,
                                Scratch& scratch,
                                std::vector<uint32_t>& matched) const {
  size_t appended = 0;
  const size_t n = view.size();
  for (size_t i = 0; i < n; ++i) {
    // Kind first: MARK/OPEN/HSM events skip string resolution entirely.
    const uint32_t kind = KindOfEvent(view.type(i));
    if (kind == 0) continue;
    const monitor::wire::EventView event = view[i];
    const std::string_view path = event.path();
    if (path.empty()) continue;
    std::string_view leaf;
    EnsureDescent(path, leaf, scratch);
    if (ProbeAny(kind, path, leaf, event.name(), scratch)) {
      matched.push_back(static_cast<uint32_t>(i));
      ++appended;
    }
  }
  return appended;
}

RuleIndex::Layout RuleIndex::layout() const noexcept {
  Layout layout;
  layout.trie_nodes = trie_nodes_;
  layout.anchored_rules = anchored_rules_;
  layout.catch_all_rules = catch_all_rules_;
  layout.max_depth = depth_count_.empty() ? 0 : depth_count_.size() - 1;
  return layout;
}

}  // namespace sdci::ripple
