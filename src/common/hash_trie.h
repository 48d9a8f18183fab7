// HashTrie: a persistent hash map from string keys to shared immutable
// values (a hash array mapped trie, 32-way, 5 hash bits per level).
//
// The map object is a value: a root level and a size. Put/Erase change
// that object by path copying: the levels from the root to the key's slot
// are copied, and everything else is shared with every other map that was
// copied from the same root. A copy of the map taken before the change
// keeps answering for its own contents, and a level is freed by reference
// count once no map reaches it. Each change copies O(log32 n) levels of at
// most 32 slots. The key is read from the value (`KeyOf`), so slots store
// a hash and a pointer but no key string, and a level is one allocation
// whose bitmap sits in the slot that points to it: a lookup touches one
// cache line per level.
//
// FromValues() builds a whole map at once. `in_place` Puts skip copying
// the levels they pass through; they are only for a map whose levels no
// other map shares yet (a map being built).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace sdci {

// `KeyOf` is a function `std::string_view(const T&)`.
template <typename T, auto KeyOf>
class HashTrie {
 public:
  [[nodiscard]] static size_t Hash(std::string_view key) noexcept {
    return std::hash<std::string_view>{}(key);
  }

  // Builds a map of `values` in one pass: no per-key walks, and levels
  // laid out in hash order. Of values with equal keys, the later wins.
  [[nodiscard]] static HashTrie FromValues(std::vector<std::shared_ptr<const T>> values) {
    std::vector<Slot> leaves;
    leaves.reserve(values.size());
    for (auto& value : values) {
      const size_t hash = Hash(KeyOf(*value));
      leaves.push_back(Slot{hash, std::move(value), {}});
    }
    // Stable: among equal keys, the later value stays later.
    std::stable_sort(leaves.begin(), leaves.end(),
                     [](const Slot& a, const Slot& b) { return a.hash < b.hash; });
    // Within a run of equal hashes, drop a value whose key recurs later.
    size_t kept = 0;
    for (size_t i = 0; i < leaves.size(); ++i) {
      bool replaced = false;
      for (size_t j = i + 1; j < leaves.size() && leaves[j].hash == leaves[i].hash; ++j) {
        replaced |= KeyOf(*leaves[j].value) == KeyOf(*leaves[i].value);
      }
      if (!replaced) leaves[kept++] = std::move(leaves[i]);
    }
    leaves.resize(kept);
    HashTrie map;
    map.size_ = leaves.size();
    if (!leaves.empty()) Assemble(leaves, 0, map.root_bits_, map.root_);
    return map;
  }

  [[nodiscard]] const T* Find(std::string_view key) const noexcept {
    return Find(key, Hash(key));
  }
  [[nodiscard]] const T* Find(std::string_view key, size_t hash) const noexcept {
    const Slot* slots = root_.get();
    size_t bits = root_bits_;
    for (unsigned shift = 0; slots != nullptr; shift += kBits) {
      if (shift >= kHashBits) {
        for (const Slot& slot : std::span(slots, bits)) {
          if (KeyOf(*slot.value) == key) return slot.value.get();
        }
        return nullptr;
      }
      const size_t bit = BitOf(hash, shift);
      if ((bits & bit) == 0) return nullptr;
      const Slot& slot = slots[IndexOf(bits, bit)];
      if (slot.sub == nullptr) {
        return slot.hash == hash && KeyOf(*slot.value) == key ? slot.value.get() : nullptr;
      }
      bits = slot.hash;
      slots = slot.sub.get();
    }
    return nullptr;
  }

  // Inserts `value`, or replaces the value with the same key. Returns the
  // replaced value (null when the key is new).
  std::shared_ptr<const T> Put(std::shared_ptr<const T> value, bool in_place = false) {
    const size_t hash = Hash(KeyOf(*value));
    std::shared_ptr<const T> replaced = Insert(root_bits_, root_, 0, hash, value, in_place);
    if (replaced == nullptr) ++size_;
    return replaced;
  }

  // Removes `key`. Returns false (and changes nothing) when it is absent.
  bool Erase(std::string_view key) {
    if (!Remove(root_bits_, root_, 0, Hash(key), key)) return false;
    --size_;
    return true;
  }

  // Visits every value, in no particular order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    Visit(root_bits_, root_.get(), 0, fn);
  }

  [[nodiscard]] size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

 private:
  static constexpr unsigned kBits = 5;
  static constexpr unsigned kHashBits = 8 * sizeof(size_t);

  // A leaf (value set) or a branch to the next level (sub set). A level
  // is an array of slots described by `bits`, kept in the slot (or map)
  // that points to it: a bitmap with one set bit per slot, in bit order,
  // or — once the hash bits run out, for keys whose full hashes collide —
  // the length of a plain list of leaves.
  struct Slot {
    size_t hash = 0;  // a leaf's key hash; a branch's level bits
    std::shared_ptr<const T> value;
    std::shared_ptr<const Slot[]> sub;
  };
  using Level = std::shared_ptr<const Slot[]>;

  // Levels consume the hash from its top bits down, so hash order is
  // slot order at every level (FromValues relies on it).
  static size_t BitOf(size_t hash, unsigned shift) noexcept {
    return size_t{1} << ((hash << shift) >> (kHashBits - kBits));
  }
  static size_t IndexOf(size_t bits, size_t bit) noexcept {
    return static_cast<size_t>(std::popcount(bits & (bit - 1)));
  }
  static size_t CountOf(size_t bits, unsigned shift) noexcept {
    return shift >= kHashBits ? bits : static_cast<size_t>(std::popcount(bits));
  }

  // Copies of `level` (n slots) with slot `at` inserted or dropped.
  static Level Inserted(const Level& level, size_t n, size_t at, Slot slot) {
    auto out = std::make_shared<Slot[]>(n + 1);
    for (size_t i = 0; i < at; ++i) out[i] = level[i];
    out[at] = std::move(slot);
    for (size_t i = at; i < n; ++i) out[i + 1] = level[i];
    return out;
  }
  static Level Dropped(const Level& level, size_t n, size_t at) {
    if (n == 1) return nullptr;
    auto out = std::make_shared<Slot[]>(n - 1);
    for (size_t i = 0, j = 0; i < n; ++i) {
      if (i != at) out[j++] = level[i];
    }
    return out;
  }
  // The level behind `ptr`, writable: itself when in place, else a copy
  // that `ptr` now points to.
  static Slot* Writable(Level& ptr, size_t n, bool in_place) {
    if (!in_place) {
      auto copy = std::make_shared<Slot[]>(n);
      std::copy(ptr.get(), ptr.get() + n, copy.get());
      ptr = std::move(copy);
    }
    // Every level is created non-const by make_shared<Slot[]>.
    return const_cast<Slot*>(ptr.get());
  }

  static void Assemble(std::span<Slot> leaves, unsigned shift, size_t& bits, Level& level) {
    if (shift >= kHashBits) {
      auto out = std::make_shared<Slot[]>(leaves.size());
      std::move(leaves.begin(), leaves.end(), out.get());
      bits = leaves.size();
      level = std::move(out);
      return;
    }
    const auto chunk_end = [&](size_t i) {
      const size_t bit = BitOf(leaves[i].hash, shift);
      while (i < leaves.size() && BitOf(leaves[i].hash, shift) == bit) ++i;
      return i;
    };
    size_t groups = 0;
    for (size_t i = 0; i < leaves.size(); i = chunk_end(i)) ++groups;
    auto out = std::make_shared<Slot[]>(groups);
    bits = 0;
    size_t at = 0;
    for (size_t i = 0; i < leaves.size();) {
      const size_t j = chunk_end(i);
      bits |= BitOf(leaves[i].hash, shift);
      if (j - i == 1) {
        out[at++] = std::move(leaves[i]);
      } else {
        Slot& branch = out[at++];
        Assemble(leaves.subspan(i, j - i), shift + kBits, branch.hash, branch.sub);
      }
      i = j;
    }
    level = std::move(out);
  }

  static std::shared_ptr<const T> Insert(size_t& bits, Level& level, unsigned shift,
                                         size_t hash, std::shared_ptr<const T>& value,
                                         bool in_place) {
    const std::string_view key = KeyOf(*value);
    const size_t n = level == nullptr ? 0 : CountOf(bits, shift);
    if (shift >= kHashBits) {
      for (size_t i = 0; i < n; ++i) {
        if (KeyOf(*level[i].value) == key) {
          return std::exchange(Writable(level, n, in_place)[i].value, std::move(value));
        }
      }
      level = Inserted(level, n, n, Slot{hash, std::move(value), {}});
      bits = n + 1;
      return nullptr;
    }
    const size_t bit = BitOf(hash, shift);
    const size_t at = IndexOf(bits, bit);
    if ((bits & bit) == 0) {
      level = Inserted(level, n, at, Slot{hash, std::move(value), {}});
      bits |= bit;
      return nullptr;
    }
    const Slot& slot = level[at];
    if (slot.sub == nullptr && slot.hash == hash && KeyOf(*slot.value) == key) {
      return std::exchange(Writable(level, n, in_place)[at].value, std::move(value));
    }
    Slot& writable = Writable(level, n, in_place)[at];
    if (writable.sub != nullptr) {
      return Insert(writable.hash, writable.sub, shift + kBits, hash, value, in_place);
    }
    // Two keys share this slot's hash bits so far: move both one level down.
    Slot branch;
    Insert(branch.hash, branch.sub, shift + kBits, writable.hash, writable.value, true);
    Insert(branch.hash, branch.sub, shift + kBits, hash, value, true);
    writable = std::move(branch);
    return nullptr;
  }

  // Path-copying removal; `level` becomes null when it empties.
  static bool Remove(size_t& bits, Level& level, unsigned shift, size_t hash,
                     std::string_view key) {
    if (level == nullptr) return false;
    const size_t n = CountOf(bits, shift);
    if (shift >= kHashBits) {
      for (size_t i = 0; i < n; ++i) {
        if (KeyOf(*level[i].value) != key) continue;
        level = Dropped(level, n, i);
        bits = n - 1;
        return true;
      }
      return false;
    }
    const size_t bit = BitOf(hash, shift);
    if ((bits & bit) == 0) return false;
    const size_t at = IndexOf(bits, bit);
    const Slot& slot = level[at];
    if (slot.sub == nullptr) {
      if (slot.hash != hash || KeyOf(*slot.value) != key) return false;
      level = Dropped(level, n, at);
      bits &= ~bit;
      return true;
    }
    size_t sub_bits = slot.hash;
    Level sub = slot.sub;
    if (!Remove(sub_bits, sub, shift + kBits, hash, key)) return false;
    if (sub == nullptr) {
      level = Dropped(level, n, at);
      bits &= ~bit;
    } else if (CountOf(sub_bits, shift + kBits) == 1 && sub[0].sub == nullptr) {
      Writable(level, n, false)[at] = sub[0];  // a lone leaf moves back up
    } else {
      Slot& writable = Writable(level, n, false)[at];
      writable.hash = sub_bits;
      writable.sub = std::move(sub);
    }
    return true;
  }

  template <typename Fn>
  static void Visit(size_t bits, const Slot* slots, unsigned shift, Fn& fn) {
    if (slots == nullptr) return;
    for (const Slot& slot : std::span(slots, CountOf(bits, shift))) {
      if (slot.sub != nullptr) {
        Visit(slot.hash, slot.sub.get(), shift + kBits, fn);
      } else {
        fn(*slot.value);
      }
    }
  }

  size_t root_bits_ = 0;
  Level root_;
  size_t size_ = 0;
};

}  // namespace sdci
