#include "itemsets/apriori.h"

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "itemsets/candidate_generation.h"

namespace demon {
namespace {

std::shared_ptr<const TransactionBlock> MakeBlock(
    std::vector<Transaction> transactions, Tid first_tid = 0) {
  return std::make_shared<TransactionBlock>(std::move(transactions),
                                            first_tid);
}

// Brute-force ground truth: counts every subset of the item universe (the
// universe must be tiny), then derives L and NB- from first principles.
struct GroundTruth {
  std::map<Itemset, uint64_t> frequent;
  std::map<Itemset, uint64_t> border;
};

GroundTruth BruteForce(
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    double minsup, size_t num_items) {
  uint64_t n = 0;
  for (const auto& b : blocks) n += b->size();
  const double exact = minsup * static_cast<double>(n);
  uint64_t min_count = static_cast<uint64_t>(exact);
  if (static_cast<double>(min_count) < exact) ++min_count;
  if (min_count == 0) min_count = 1;

  std::map<Itemset, uint64_t> counts;
  const size_t limit = size_t{1} << num_items;
  for (size_t mask = 1; mask < limit; ++mask) {
    Itemset itemset;
    for (size_t i = 0; i < num_items; ++i) {
      if (mask & (size_t{1} << i)) itemset.push_back(static_cast<Item>(i));
    }
    uint64_t count = 0;
    for (const auto& b : blocks) {
      for (const Transaction& t : b->transactions()) {
        count += t.ContainsAll(itemset.begin(), itemset.end()) ? 1 : 0;
      }
    }
    counts[itemset] = count;
  }

  GroundTruth truth;
  for (const auto& [itemset, count] : counts) {
    if (count >= min_count) {
      truth.frequent[itemset] = count;
      continue;
    }
    bool all_subsets_frequent = true;
    Itemset subset;
    for (size_t drop = 0; drop < itemset.size() && all_subsets_frequent;
         ++drop) {
      AssignWithoutIndex(itemset, drop, &subset);
      if (subset.empty()) continue;
      all_subsets_frequent = counts[subset] >= min_count;
    }
    if (all_subsets_frequent) truth.border[itemset] = count;
  }
  return truth;
}

void ExpectModelMatchesTruth(const ItemsetModel& model,
                             const GroundTruth& truth) {
  ASSERT_EQ(model.NumFrequent(), truth.frequent.size());
  ASSERT_EQ(model.NumBorder(), truth.border.size());
  for (const auto& [itemset, count] : truth.frequent) {
    ASSERT_TRUE(model.IsFrequent(itemset)) << ToString(itemset);
    EXPECT_EQ(model.CountOf(itemset), count) << ToString(itemset);
  }
  for (const auto& [itemset, count] : truth.border) {
    ASSERT_TRUE(model.Contains(itemset)) << ToString(itemset);
    ASSERT_FALSE(model.IsFrequent(itemset)) << ToString(itemset);
    EXPECT_EQ(model.CountOf(itemset), count) << ToString(itemset);
  }
}

TEST(AprioriTest, HandWorkedExample) {
  // 4 transactions over items {0,1,2}; minsup 0.5 -> min count 2.
  auto block = MakeBlock({Transaction({0, 1}), Transaction({0, 1, 2}),
                          Transaction({0, 2}), Transaction({1})});
  const ItemsetModel model = Apriori({block}, 0.5, 3);
  EXPECT_EQ(model.num_transactions(), 4u);
  EXPECT_EQ(model.MinCount(), 2u);
  // Counts: {0}=3 {1}=3 {2}=2 {0,1}=2 {0,2}=2 {1,2}=1 {0,1,2}=1.
  EXPECT_TRUE(model.IsFrequent({0}));
  EXPECT_TRUE(model.IsFrequent({1}));
  EXPECT_TRUE(model.IsFrequent({2}));
  EXPECT_TRUE(model.IsFrequent({0, 1}));
  EXPECT_TRUE(model.IsFrequent({0, 2}));
  EXPECT_FALSE(model.IsFrequent({1, 2}));
  // {1,2} is a border member (both subsets frequent); {0,1,2} is not (its
  // subset {1,2} is infrequent).
  EXPECT_TRUE(model.Contains({1, 2}));
  EXPECT_FALSE(model.Contains({0, 1, 2}));
  EXPECT_EQ(model.CountOf({0, 1}), 2u);
  EXPECT_EQ(model.CountOf({1, 2}), 1u);
}

TEST(AprioriTest, InfrequentSingleItemsAreBorderMembers) {
  auto block = MakeBlock({Transaction({0}), Transaction({0}),
                          Transaction({1})});
  const ItemsetModel model = Apriori({block}, 0.6, 3);
  EXPECT_TRUE(model.IsFrequent({0}));
  EXPECT_TRUE(model.Contains({1}));
  EXPECT_FALSE(model.IsFrequent({1}));
  // Item 2 never occurs: count 0 but still in the border.
  EXPECT_TRUE(model.Contains({2}));
  EXPECT_EQ(model.CountOf({2}), 0u);
}

TEST(AprioriTest, MultiBlockCountsAreSummed) {
  auto b1 = MakeBlock({Transaction({0, 1}), Transaction({0})});
  auto b2 = MakeBlock({Transaction({0, 1}), Transaction({1})}, 2);
  const ItemsetModel model = Apriori({b1, b2}, 0.5, 2);
  EXPECT_EQ(model.num_transactions(), 4u);
  EXPECT_EQ(model.CountOf({0}), 3u);
  EXPECT_EQ(model.CountOf({1}), 3u);
  EXPECT_EQ(model.CountOf({0, 1}), 2u);
  EXPECT_TRUE(model.IsFrequent({0, 1}));
}

struct RandomCaseParam {
  uint64_t seed;
  double minsup;
  size_t num_items;
  size_t num_transactions;
};

class AprioriRandomizedTest
    : public ::testing::TestWithParam<RandomCaseParam> {};

TEST_P(AprioriRandomizedTest, MatchesBruteForceEnumeration) {
  const RandomCaseParam param = GetParam();
  Rng rng(param.seed);
  std::vector<Transaction> transactions;
  for (size_t i = 0; i < param.num_transactions; ++i) {
    std::vector<Item> items;
    for (Item item = 0; item < param.num_items; ++item) {
      if (rng.NextBernoulli(0.35)) items.push_back(item);
    }
    if (items.empty()) items.push_back(0);
    transactions.push_back(Transaction(std::move(items)));
  }
  auto block = MakeBlock(std::move(transactions));
  const GroundTruth truth =
      BruteForce({block}, param.minsup, param.num_items);
  const ItemsetModel model = Apriori({block}, param.minsup, param.num_items);
  ExpectModelMatchesTruth(model, truth);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AprioriRandomizedTest,
    ::testing::Values(RandomCaseParam{1, 0.30, 6, 50},
                      RandomCaseParam{2, 0.20, 7, 80},
                      RandomCaseParam{3, 0.40, 8, 60},
                      RandomCaseParam{4, 0.10, 6, 200},
                      RandomCaseParam{5, 0.50, 9, 40},
                      RandomCaseParam{6, 0.05, 5, 500},
                      RandomCaseParam{7, 0.25, 10, 100}));

TEST(CandidateGenerationTest, JoinAndPrune) {
  // Frequent 2-itemsets {0,1},{0,2},{1,2},{1,3}: join gives {0,1,2} (kept:
  // all subsets frequent) and {1,2,3} (pruned: {2,3} infrequent).
  std::vector<Itemset> frequent = {{0, 1}, {0, 2}, {1, 2}, {1, 3}};
  ItemsetSet lookup(frequent.begin(), frequent.end());
  auto candidates = GenerateCandidates(
      frequent, [&lookup](const Itemset& s) { return lookup.count(s) > 0; });
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], (Itemset{0, 1, 2}));
}

TEST(CandidateGenerationTest, PairCandidatesFromItems) {
  auto candidates = GeneratePairCandidates({3, 1, 2});
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0], (Itemset{1, 2}));
  EXPECT_EQ(candidates[1], (Itemset{1, 3}));
  EXPECT_EQ(candidates[2], (Itemset{2, 3}));
}

}  // namespace
}  // namespace demon
