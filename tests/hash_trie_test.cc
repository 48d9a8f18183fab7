// HashTrie: a persistent map must answer like std::map after any sequence
// of Put/Erase, and copies taken earlier must keep their own contents.
#include "common/hash_trie.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace sdci {
namespace {

struct Item {
  std::string key;
  int value = 0;
};

std::string_view KeyOfItem(const Item& item) { return item.key; }

using Trie = HashTrie<Item, &KeyOfItem>;

void ExpectSame(const Trie& trie, const std::map<std::string, int>& model) {
  ASSERT_EQ(trie.size(), model.size());
  for (const auto& [key, value] : model) {
    const Item* item = trie.Find(key);
    ASSERT_NE(item, nullptr) << key;
    EXPECT_EQ(item->value, value) << key;
  }
  std::map<std::string, int> visited;
  trie.ForEach([&visited](const Item& item) { visited[item.key] = item.value; });
  EXPECT_EQ(visited, model);
}

TEST(HashTrie, EmptyFindsNothing) {
  const Trie trie;
  EXPECT_EQ(trie.Find("a"), nullptr);
  EXPECT_TRUE(trie.empty());
  Trie copy = trie;
  EXPECT_FALSE(copy.Erase("a"));
}

TEST(HashTrie, PutReplacesAndReturnsTheOldValue) {
  Trie trie;
  EXPECT_EQ(trie.Put(std::make_shared<const Item>(Item{"k", 1})), nullptr);
  const auto old = trie.Put(std::make_shared<const Item>(Item{"k", 2}));
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old->value, 1);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.Find("k")->value, 2);
}

// Random Put/Erase against std::map over a key space dense enough that
// many keys share hash bits at the first levels (splits and collapses).
// Copies kept along the way must still answer for their own contents.
TEST(HashTrie, RandomOperationsMatchStdMapAndCopiesPersist) {
  Rng rng(5);
  Trie trie;
  std::map<std::string, int> model;
  std::vector<std::pair<Trie, std::map<std::string, int>>> kept;
  for (int step = 0; step < 20000; ++step) {
    const std::string key = "k" + std::to_string(rng.NextBelow(3000));
    if (rng.NextBool(0.35)) {
      EXPECT_EQ(trie.Erase(key), model.erase(key) == 1);
    } else {
      const int value = static_cast<int>(rng.NextBelow(1000000));
      const bool existed = model.count(key) != 0;
      EXPECT_EQ(trie.Put(std::make_shared<const Item>(Item{key, value})) != nullptr, existed);
      model[key] = value;
    }
    if (step % 2000 == 0) kept.emplace_back(trie, model);
  }
  ExpectSame(trie, model);
  for (const auto& [copy, contents] : kept) ExpectSame(copy, contents);
}

TEST(HashTrie, FromValuesKeepsTheLastValueOfEachKey) {
  Rng rng(9);
  std::vector<std::shared_ptr<const Item>> values;
  std::map<std::string, int> model;
  for (int i = 0; i < 20000; ++i) {
    const std::string key = "v" + std::to_string(rng.NextBelow(7000));
    values.push_back(std::make_shared<const Item>(Item{key, i}));
    model[key] = i;
  }
  const Trie trie = Trie::FromValues(std::move(values));
  ExpectSame(trie, model);
  // A bulk-built map takes persistent changes like any other.
  Trie changed = trie;
  changed.Put(std::make_shared<const Item>(Item{"v1", -1}));
  ASSERT_TRUE(changed.Erase("v2") || model.count("v2") == 0);
  ExpectSame(trie, model);
}

TEST(HashTrie, InPlaceBuildMatchesPersistentBuild) {
  Trie in_place;
  Trie persistent;
  for (int i = 0; i < 5000; ++i) {
    in_place.Put(std::make_shared<const Item>(Item{"n" + std::to_string(i), i}), true);
    persistent.Put(std::make_shared<const Item>(Item{"n" + std::to_string(i), i}));
  }
  std::map<std::string, int> model;
  for (int i = 0; i < 5000; ++i) model["n" + std::to_string(i)] = i;
  ExpectSame(in_place, model);
  ExpectSame(persistent, model);
  // Erasing everything leaves an empty map.
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE(in_place.Erase("n" + std::to_string(i)));
  EXPECT_TRUE(in_place.empty());
  EXPECT_EQ(in_place.Find("n1"), nullptr);
}

}  // namespace
}  // namespace sdci
