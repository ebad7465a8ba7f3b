#include "itemsets/itemset_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/random.h"

namespace demon {
namespace {

using Entry = ItemsetTable::Entry;
// The count and the frequent flag share one word: every model (BORDERS,
// each GEMM window, each cached block model) pays 8 bytes per entry.
static_assert(sizeof(Entry) == 8);
using Reference = std::unordered_map<Itemset, Entry, ItemsetHash>;

// A random sorted itemset of 1..max_size items from [0, num_items).
Itemset RandomItemset(Rng* rng, size_t max_size, size_t num_items) {
  Itemset itemset;
  const size_t size = 1 + rng->NextUint64(max_size);
  while (itemset.size() < size) {
    const Item item = static_cast<Item>(rng->NextUint64(num_items));
    const auto at = std::lower_bound(itemset.begin(), itemset.end(), item);
    if (at == itemset.end() || *at != item) itemset.insert(at, item);
  }
  return itemset;
}

// Requires `table` to hold exactly `reference`, both through lookups and
// through iteration.
void ExpectSameContents(const ItemsetTable& table, const Reference& reference) {
  ASSERT_EQ(table.size(), reference.size());
  size_t iterated = 0;
  for (const auto& [itemset, entry] : table) {
    const auto it = reference.find(itemset);
    ASSERT_NE(it, reference.end()) << ToString(itemset);
    EXPECT_EQ(entry.count, it->second.count) << ToString(itemset);
    EXPECT_EQ(entry.frequent, it->second.frequent) << ToString(itemset);
    ++iterated;
  }
  EXPECT_EQ(iterated, reference.size());
  for (const auto& [itemset, entry] : reference) {
    const auto it = table.find(itemset);
    ASSERT_NE(it, table.end()) << ToString(itemset);
    EXPECT_EQ(it->second.count, entry.count);
  }
}

// Mixed insert / emplace-existing / find / erase / iterate sequences over
// 1-9-item keys, checked step by step against std::unordered_map. The key
// space is small enough that keys recur (emplace-existing, reinsertion
// after erase) and large enough that the table rehashes several times;
// erase-heavy phases push the dead slots past the compaction threshold.
TEST(ItemsetTableTest, RandomizedMatchesUnorderedMap) {
  Rng rng(20251018);
  ItemsetTable table;
  Reference reference;
  size_t growths = 0;
  size_t compactions = 0;  // the only way the footprint shrinks
  size_t last_memory = table.MemoryBytes();
  for (int phase = 0; phase < 6; ++phase) {
    // Even phases mostly insert, odd phases mostly erase.
    const uint64_t erase_per_mille = phase % 2 == 0 ? 150 : 700;
    for (int step = 0; step < 6000; ++step) {
      const Itemset key = RandomItemset(&rng, 9, 13);
      const uint64_t op = rng.NextUint64(1000);
      if (op < erase_per_mille) {
        EXPECT_EQ(table.erase(key), reference.erase(key)) << ToString(key);
      } else if (op < 850) {
        const Entry value{rng.NextUint64(1000), rng.NextUint64(2) == 1};
        const auto [it, inserted] = table.emplace(key, value);
        const auto [ref_it, ref_inserted] = reference.emplace(key, value);
        EXPECT_EQ(inserted, ref_inserted) << ToString(key);
        EXPECT_EQ(Itemset(it->first), key);
        EXPECT_EQ(it->second.count, ref_it->second.count);
        // Updating through the returned iterator reaches the entry.
        it->second.count += 1;
        ref_it->second.count += 1;
      } else {
        const auto it = table.find(key);
        const auto ref_it = reference.find(key);
        ASSERT_EQ(it == table.end(), ref_it == reference.end())
            << ToString(key);
        if (ref_it != reference.end()) {
          EXPECT_EQ(it->second.count, ref_it->second.count);
          EXPECT_EQ(it->second.frequent, ref_it->second.frequent);
        }
      }
      ASSERT_EQ(table.size(), reference.size());
      const size_t memory = table.MemoryBytes();
      if (memory > last_memory) ++growths;
      if (memory < last_memory) ++compactions;
      last_memory = memory;
    }
    ExpectSameContents(table, reference);
  }
  EXPECT_GT(growths, 3u);
  EXPECT_GT(compactions, 3u);
}

TEST(ItemsetTableTest, IteratesLiveEntriesInInsertionOrder) {
  ItemsetTable table;
  const std::vector<Itemset> keys = {{9}, {1, 2}, {3}, {0, 4, 7}, {2}};
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(table.emplace(keys[i], Entry{i, false}).second);
  }
  EXPECT_EQ(table.erase(Itemset{3}), 1u);
  EXPECT_EQ(table.erase(Itemset{3}), 0u);
  std::vector<Itemset> seen;
  for (const auto& [itemset, entry] : table) seen.push_back(itemset);
  EXPECT_EQ(seen, (std::vector<Itemset>{{9}, {1, 2}, {0, 4, 7}, {2}}));
}

TEST(ItemsetTableTest, SpanLookupEqualsItemsetLookup) {
  ItemsetTable table;
  table.emplace(Itemset{2, 5, 8}, Entry{7, true});
  table.emplace(Itemset{2, 5}, Entry{9, true});
  // A key built in a stack buffer finds the same entry as an Itemset.
  const Item buffer[] = {2, 5, 8};
  const auto by_span = table.find(std::span<const Item>(buffer));
  const auto by_itemset = table.find(Itemset{2, 5, 8});
  ASSERT_NE(by_span, table.end());
  EXPECT_EQ(by_span, by_itemset);
  EXPECT_EQ(by_span->second.count, 7u);
  // A prefix of the buffer is a different key.
  const auto prefix = table.find(std::span<const Item>(buffer, 2));
  ASSERT_NE(prefix, table.end());
  EXPECT_EQ(prefix->second.count, 9u);
  EXPECT_FALSE(table.contains(std::span<const Item>(buffer + 1, 2)));
  // A view from iteration looks up its own entry.
  for (const auto& [itemset, entry] : table) {
    EXPECT_EQ(table.find(itemset)->second.count, entry.count);
  }
}

TEST(ItemsetTableTest, CopyMoveAndClear) {
  ItemsetTable table;
  for (Item i = 0; i < 100; ++i) table.emplace(Itemset{i, i + 1}, Entry{i});
  table.erase(Itemset{3, 4});

  ItemsetTable copy = table;
  ASSERT_EQ(copy.size(), 99u);
  // The copy is independent: writes to one do not reach the other.
  copy.find(Itemset{5, 6})->second.count = 500;
  EXPECT_EQ(table.find(Itemset{5, 6})->second.count, 5u);
  EXPECT_FALSE(copy.contains(Itemset{3, 4}));

  ItemsetTable moved = std::move(copy);
  EXPECT_EQ(moved.size(), 99u);
  EXPECT_EQ(moved.find(Itemset{5, 6})->second.count, 500u);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.begin(), copy.end());
  copy.emplace(Itemset{1}, Entry{1});  // a moved-from table is reusable
  EXPECT_EQ(copy.size(), 1u);

  ItemsetTable assigned;
  assigned = moved;
  EXPECT_EQ(assigned.size(), 99u);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 99u);

  assigned.clear();
  EXPECT_TRUE(assigned.empty());
  EXPECT_EQ(assigned.MemoryBytes(), 0u);
  EXPECT_FALSE(assigned.contains(Itemset{5, 6}));
  EXPECT_TRUE(assigned.emplace(Itemset{5, 6}, Entry{1}).second);
}

TEST(ItemsetTableTest, EraseEverythingThenReinsert) {
  ItemsetTable table;
  Rng rng(7);
  std::vector<Itemset> keys;
  for (int i = 0; i < 2000; ++i) {
    Itemset key = RandomItemset(&rng, 5, 60);
    if (table.emplace(key, Entry{static_cast<uint64_t>(i), true}).second) {
      keys.push_back(std::move(key));
    }
  }
  for (const Itemset& key : keys) EXPECT_EQ(table.erase(key), 1u);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.begin(), table.end());
  for (const Itemset& key : keys) EXPECT_FALSE(table.contains(key));

  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(table.emplace(keys[i], Entry{i + 1, false}).second);
  }
  ASSERT_EQ(table.size(), keys.size());
  size_t i = 0;
  for (const auto& [itemset, entry] : table) {
    EXPECT_EQ(Itemset(itemset), keys[i]);
    EXPECT_EQ(entry.count, i + 1);
    ++i;
  }
}

TEST(ItemsetTableTest, CompactedKeysAreSlotsInInsertionOrder) {
  ItemsetTable table;
  table.emplace(Itemset{1, 2}, Entry{12});
  table.emplace(Itemset{3}, Entry{3});
  table.emplace(Itemset{4, 5, 6}, Entry{456});
  table.erase(Itemset{3});
  table.Compact();
  const FlatItemsets keys = table.Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(Itemset(keys[0]), (Itemset{1, 2}));
  EXPECT_EQ(Itemset(keys[1]), (Itemset{4, 5, 6}));
  EXPECT_EQ(table.ValueAt(1).count, 456u);
  EXPECT_EQ(table.find(Itemset{4, 5, 6})->second.count, 456u);
}

// The footprint gate: capacities only, so it holds on any hardware. A
// node-based unordered_map spends ~108 bytes per 2-itemset; the table
// measures 36.7 bytes grown by doubling and 30.5 reserved exactly.
TEST(ItemsetTableTest, FootprintPerEntry) {
  constexpr size_t kEntries = 200000;
  Rng rng(11);
  std::vector<Itemset> keys;
  {
    ItemsetSet distinct;
    while (distinct.size() < kEntries) {
      Itemset key = RandomItemset(&rng, 1, 1000);
      Item second = static_cast<Item>(rng.NextUint64(1000));
      if (second == key[0]) continue;
      key.insert(std::lower_bound(key.begin(), key.end(), second), second);
      if (distinct.insert(key).second) keys.push_back(std::move(key));
    }
  }

  ItemsetTable grown;
  for (const Itemset& key : keys) grown.emplace(key, Entry{1, true});
  ASSERT_EQ(grown.size(), kEntries);
  EXPECT_LE(static_cast<double>(grown.MemoryBytes()) / kEntries, 40.0);

  ItemsetTable reserved;
  reserved.ReserveMore(kEntries, 2 * kEntries);
  for (const Itemset& key : keys) reserved.emplace(key, Entry{1, true});
  ASSERT_EQ(reserved.size(), kEntries);
  EXPECT_LE(static_cast<double>(reserved.MemoryBytes()) / kEntries, 32.0);
}

}  // namespace
}  // namespace demon
