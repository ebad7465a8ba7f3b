#include "itemsets/prefix_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/random.h"
#include "datagen/quest_generator.h"

namespace demon {
namespace {

// A random sorted itemset of 1..max_size items from [0, num_items).
Itemset RandomItemset(Rng* rng, size_t max_size, size_t num_items) {
  Itemset itemset;
  const size_t size = 1 + rng->NextUint64(max_size);
  while (itemset.size() < size) {
    const Item item = static_cast<Item>(rng->NextUint64(num_items));
    if (!std::binary_search(itemset.begin(), itemset.end(), item)) {
      itemset.insert(std::lower_bound(itemset.begin(), itemset.end(), item),
                     item);
    }
  }
  return itemset;
}

// A tree with one count array: what a single PT-Scan shard holds.
struct CountedTree {
  template <typename List>
  void Build(const List& itemsets) {
    tree.Build(itemsets);
    counts.assign(tree.num_nodes(), 0);
  }
  void Count(const Transaction& t, uint64_t weight = 1) {
    tree.CountTransaction(t, counts, weight);
  }
  uint64_t CountOf(size_t i) const { return tree.CountOf(i, counts); }

  PrefixTree tree;
  std::vector<uint64_t> counts;
};

// Brute-force support of `itemset` over transactions [begin, end).
uint64_t BruteForce(const Itemset& itemset,
                    const std::vector<Transaction>& transactions,
                    size_t begin, size_t end) {
  uint64_t count = 0;
  for (size_t t = begin; t < end; ++t) {
    count += transactions[t].ContainsAll(itemset.begin(), itemset.end());
  }
  return count;
}

// Counts `itemsets` over `block` with a tree, checks every count against
// a brute-force subset test and returns the counted tree.
CountedTree CountAgainstBruteForce(const std::vector<Itemset>& itemsets,
                                   const TransactionBlock& block) {
  CountedTree tree;
  tree.Build(itemsets);
  for (const Transaction& t : block.transactions()) tree.Count(t);
  for (size_t i = 0; i < itemsets.size(); ++i) {
    EXPECT_EQ(tree.CountOf(i), BruteForce(itemsets[i], block.transactions(),
                                          0, block.size()))
        << ToString(itemsets[i]);
  }
  return tree;
}

TEST(PrefixTreeTest, SingleItemsetCounting) {
  CountedTree tree;
  tree.Build(std::vector<Itemset>{{1, 3}});
  tree.Count(Transaction({1, 2, 3}));
  tree.Count(Transaction({1, 2}));
  tree.Count(Transaction({3}));
  tree.Count(Transaction({1, 3}));
  EXPECT_EQ(tree.CountOf(0), 2u);
}

TEST(PrefixTreeTest, DuplicatesShareOneCount) {
  CountedTree tree;
  tree.Build(std::vector<Itemset>{{5, 9}, {5}, {5, 9}});
  tree.Count(Transaction({5, 9}));
  tree.Count(Transaction({5}));
  EXPECT_EQ(tree.CountOf(0), 1u);
  EXPECT_EQ(tree.CountOf(1), 2u);
  EXPECT_EQ(tree.CountOf(2), 1u);
}

TEST(PrefixTreeTest, MixedSizesAndSharedPrefixes) {
  CountedTree tree;
  // Input deliberately out of order: the build sorts.
  tree.Build(std::vector<Itemset>{{1, 3}, {1, 2, 3}, {1}, {1, 2}});
  const size_t id13 = 0, id123 = 1, id1 = 2, id12 = 3;
  tree.Count(Transaction({1, 2, 3}));
  EXPECT_EQ(tree.CountOf(id1), 1u);
  EXPECT_EQ(tree.CountOf(id12), 1u);
  EXPECT_EQ(tree.CountOf(id123), 1u);
  EXPECT_EQ(tree.CountOf(id13), 1u);
  tree.Count(Transaction({1, 3, 7}));
  EXPECT_EQ(tree.CountOf(id1), 2u);
  EXPECT_EQ(tree.CountOf(id12), 1u);
  EXPECT_EQ(tree.CountOf(id123), 1u);
  EXPECT_EQ(tree.CountOf(id13), 2u);
}

TEST(PrefixTreeTest, MatchesHandCountedSupports) {
  CountedTree tree;
  tree.Build(std::vector<Itemset>{{1, 3}, {1}, {2, 3, 5}, {5}});
  const std::vector<Transaction> transactions = {
      Transaction({1, 2, 3}), Transaction({1, 2}),    Transaction({3}),
      Transaction({1, 3}),    Transaction({2, 3, 5}), Transaction({}),
      Transaction({5}),       Transaction({1, 2, 3, 4, 5})};
  for (const Transaction& t : transactions) tree.Count(t);
  EXPECT_EQ(tree.CountOf(0), 3u);  // {1,3}
  EXPECT_EQ(tree.CountOf(1), 4u);  // {1}
  EXPECT_EQ(tree.CountOf(2), 2u);  // {2,3,5}
  EXPECT_EQ(tree.CountOf(3), 3u);  // {5}
}

TEST(PrefixTreeTest, WeightedCounting) {
  CountedTree tree;
  tree.Build(std::vector<Itemset>{{2}, {2, 4}});
  tree.Count(Transaction({2, 4}), 5);
  tree.Count(Transaction({2, 3}), 2);
  EXPECT_EQ(tree.CountOf(0), 7u);
  EXPECT_EQ(tree.CountOf(1), 5u);
}

// The tree holds no counts: a fresh zeroed array over the same tree reads
// zero whatever was counted into another one, and counts from there.
TEST(PrefixTreeTest, ResetCounts) {
  CountedTree tree;
  tree.Build(std::vector<Itemset>{{1, 2}});
  tree.Count(Transaction({1, 2}));
  EXPECT_EQ(tree.CountOf(0), 1u);
  std::vector<uint64_t> fresh(tree.tree.num_nodes(), 0);
  EXPECT_EQ(tree.tree.CountOf(0, fresh), 0u);
  tree.tree.CountTransaction(Transaction({1, 2}), fresh);
  EXPECT_EQ(tree.tree.CountOf(0, fresh), 1u);
  EXPECT_EQ(tree.CountOf(0), 1u);
}

TEST(PrefixTreeTest, WeightedCountThenReset) {
  CountedTree tree;
  tree.Build(std::vector<Itemset>{{2, 4}});
  tree.Count(Transaction({2, 3, 4}), 5);
  EXPECT_EQ(tree.CountOf(0), 5u);
  std::fill(tree.counts.begin(), tree.counts.end(), 0);
  EXPECT_EQ(tree.CountOf(0), 0u);
  tree.Count(Transaction({2, 4}), 3);
  EXPECT_EQ(tree.CountOf(0), 3u);
}

TEST(PrefixTreeTest, EmptyTransactionCountsNothing) {
  CountedTree tree;
  tree.Build(std::vector<Itemset>{{1}});
  tree.Count(Transaction({}));
  EXPECT_EQ(tree.CountOf(0), 0u);
}

TEST(PrefixTreeTest, EmptyTreeCountsNothing) {
  CountedTree tree;
  tree.Build(std::vector<Itemset>{});
  EXPECT_EQ(tree.tree.num_nodes(), 1u);  // the root alone
  tree.Count(Transaction({1, 2, 3}));
  EXPECT_EQ(tree.counts[0], 0u);
}

// Build is repeatable on a reused tree; the new structure needs a count
// array of its own size.
TEST(PrefixTreeTest, RebuildStartsFromZeroCounts) {
  CountedTree tree;
  tree.Build(std::vector<Itemset>{{1, 2}});
  tree.Count(Transaction({1, 2}));
  EXPECT_EQ(tree.CountOf(0), 1u);

  tree.Build(std::vector<Itemset>{{7}, {7, 9}});
  EXPECT_EQ(tree.CountOf(0), 0u);
  EXPECT_EQ(tree.CountOf(1), 0u);
  tree.Count(Transaction({7, 8, 9}));
  EXPECT_EQ(tree.CountOf(0), 1u);
  EXPECT_EQ(tree.CountOf(1), 1u);
}

// The shard contract of CountingContext's PT-Scan: one tree, read by
// several threads at once, each counting its share of the transactions
// into its own array. Each array holds exactly its share's supports, and
// their sum is the whole block's.
TEST(PrefixTreeTest, OneTreeCountsIntoIndependentArrays) {
  QuestParams params;
  params.num_transactions = 1200;
  params.num_items = 60;
  params.num_patterns = 30;
  params.avg_transaction_len = 8;
  QuestGenerator gen(params);
  const TransactionBlock block = gen.GenerateAll();
  const auto& transactions = block.transactions();

  Rng rng(5);
  std::vector<Itemset> itemsets;
  for (int i = 0; i < 250; ++i) {
    itemsets.push_back(RandomItemset(&rng, 4, params.num_items));
  }
  itemsets.push_back(itemsets[3]);  // duplicates share a node
  PrefixTree tree;
  tree.Build(itemsets);
  const size_t half = transactions.size() / 2;
  std::vector<uint64_t> first(tree.num_nodes(), 0);
  std::vector<uint64_t> second(tree.num_nodes(), 0);
  std::thread other([&] {
    for (size_t t = half; t < transactions.size(); ++t) {
      tree.CountTransaction(transactions[t], second);
    }
  });
  for (size_t t = 0; t < half; ++t) {
    tree.CountTransaction(transactions[t], first);
  }
  other.join();

  for (size_t i = 0; i < itemsets.size(); ++i) {
    const uint64_t expected_first = BruteForce(itemsets[i], transactions, 0,
                                               half);
    const uint64_t expected_second =
        BruteForce(itemsets[i], transactions, half, transactions.size());
    EXPECT_EQ(tree.CountOf(i, first), expected_first) << ToString(itemsets[i]);
    EXPECT_EQ(tree.CountOf(i, second), expected_second)
        << ToString(itemsets[i]);
  }
}

TEST(PrefixTreeTest, RejectsCountArrayOfWrongSize) {
  PrefixTree tree;
  tree.Build(std::vector<Itemset>{{1, 2}});
  std::vector<uint64_t> short_counts(tree.num_nodes() - 1, 0);
  EXPECT_DEATH(tree.CountTransaction(Transaction({1, 2}), short_counts), "");
}

TEST(PrefixTreeTest, RejectsUnsortedOrEmptyItemsets) {
  PrefixTree tree;
  EXPECT_DEATH(tree.Build({{3, 1}}), "strictly increasing");
  EXPECT_DEATH(tree.Build({{2, 2}}), "strictly increasing");
  EXPECT_DEATH(tree.Build({{1}, {}}), "strictly increasing");
}

// Property check: counts from the tree match brute-force subset tests on
// random itemsets over realistic Quest data.
TEST(PrefixTreeTest, RandomizedAgainstBruteForce) {
  QuestParams params;
  params.num_transactions = 2000;
  params.num_items = 80;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  QuestGenerator gen(params);
  const TransactionBlock block = gen.GenerateAll();

  Rng rng(7);
  std::vector<Itemset> itemsets;
  for (int i = 0; i < 200; ++i) {
    itemsets.push_back(RandomItemset(&rng, 4, params.num_items));
  }
  CountAgainstBruteForce(itemsets, block);
}

// Longer transactions and deeper itemsets than above.
TEST(PrefixTreeTest, RandomizedDeepItemsetsAgainstBruteForce) {
  QuestParams params;
  params.num_transactions = 1500;
  params.num_items = 60;
  params.num_patterns = 30;
  params.avg_transaction_len = 10;
  QuestGenerator gen(params);
  const TransactionBlock block = gen.GenerateAll();

  Rng rng(13);
  std::vector<Itemset> itemsets;
  for (int i = 0; i < 300; ++i) {
    itemsets.push_back(RandomItemset(&rng, 5, params.num_items));
  }
  CountAgainstBruteForce(itemsets, block);
}

// The shape BORDERS detection hands over: a downward-closed family of
// mixed sizes in no sorted order, with duplicates. Each duplicate must get
// the same count as its first copy.
TEST(PrefixTreeTest, ShuffledDuplicatesAndMixedSizes) {
  QuestParams params;
  params.num_transactions = 1000;
  params.num_items = 40;
  params.num_patterns = 20;
  params.avg_transaction_len = 8;
  QuestGenerator gen(params);
  const TransactionBlock block = gen.GenerateAll();

  Rng rng(21);
  std::vector<Itemset> itemsets;
  for (int i = 0; i < 150; ++i) {
    const Itemset itemset = RandomItemset(&rng, 5, params.num_items);
    // Every prefix too, so sizes mix along shared paths.
    for (size_t k = 1; k <= itemset.size(); ++k) {
      itemsets.emplace_back(itemset.begin(), itemset.begin() + k);
    }
  }
  const size_t originals = itemsets.size();
  for (size_t i = 0; i < originals; i += 3) itemsets.push_back(itemsets[i]);
  for (size_t i = itemsets.size(); i > 1; --i) {
    std::swap(itemsets[i - 1], itemsets[rng.NextUint64(i)]);
  }
  const CountedTree tree = CountAgainstBruteForce(itemsets, block);
  ItemsetMap<size_t> first;
  for (size_t i = 0; i < itemsets.size(); ++i) {
    const auto [it, inserted] = first.emplace(itemsets[i], i);
    if (!inserted) {
      EXPECT_EQ(tree.CountOf(i), tree.CountOf(it->second))
          << ToString(itemsets[i]);
    }
  }
}

// BORDERS detection builds from its model's key arena instead of a copied
// list: the flat build must count, position by position, exactly as the
// build from the vector list does.
TEST(PrefixTreeTest, FlatListCountsLikeVectorList) {
  QuestParams params;
  params.num_transactions = 800;
  params.num_items = 50;
  params.num_patterns = 20;
  params.avg_transaction_len = 8;
  QuestGenerator gen(params);
  const TransactionBlock block = gen.GenerateAll();

  Rng rng(33);
  std::vector<Itemset> itemsets;
  for (int i = 0; i < 400; ++i) {
    itemsets.push_back(RandomItemset(&rng, 5, params.num_items));
  }
  itemsets.push_back(itemsets[17]);  // a duplicate, as in any list
  std::vector<Item> arena;
  std::vector<uint32_t> offsets = {0};
  for (const Itemset& itemset : itemsets) {
    arena.insert(arena.end(), itemset.begin(), itemset.end());
    offsets.push_back(static_cast<uint32_t>(arena.size()));
  }

  CountedTree from_vector;
  CountedTree from_flat;
  from_vector.Build(itemsets);
  from_flat.Build(FlatItemsets(arena, offsets));
  for (const Transaction& t : block.transactions()) {
    from_vector.Count(t);
    from_flat.Count(t);
  }
  for (size_t i = 0; i < itemsets.size(); ++i) {
    EXPECT_EQ(from_flat.CountOf(i), from_vector.CountOf(i))
        << ToString(itemsets[i]);
  }
}

}  // namespace
}  // namespace demon
