#include "itemsets/itemset_model.h"

#include <gtest/gtest.h>

#include "itemsets/itemset.h"

namespace demon {
namespace {

TEST(ItemsetTest, SubsetAndUnionHelpers) {
  EXPECT_TRUE(IsSubset({1, 3}, {1, 2, 3}));
  EXPECT_FALSE(IsSubset({1, 4}, {1, 2, 3}));
  EXPECT_TRUE(IsSubset({}, {1}));
  EXPECT_EQ(Union({1, 3}, {2, 3}), (Itemset{1, 2, 3}));
  Itemset subset = {1};  // overwritten, not appended to
  AssignWithoutIndex(Itemset{5, 7, 9}, 1, &subset);
  EXPECT_EQ(subset, (Itemset{5, 9}));
  EXPECT_EQ(ToString({1, 5}), "{1, 5}");
  EXPECT_EQ(ToString({}), "{}");
}

TEST(ItemsetTest, HashTreatsEqualSetsEqually) {
  ItemsetHash hash;
  EXPECT_EQ(hash({1, 2, 3}), hash({1, 2, 3}));
  EXPECT_NE(hash({1, 2, 3}), hash({1, 2, 4}));
  EXPECT_NE(hash({1, 2}), hash({2, 1}));  // unsorted input is a bug upstream
}

TEST(ItemsetModelTest, MinCountCeiling) {
  ItemsetModel model(0.1, 10);
  model.set_num_transactions(0);
  EXPECT_EQ(model.MinCount(), 1u);  // empty data: nothing can be frequent
  model.set_num_transactions(10);
  EXPECT_EQ(model.MinCount(), 1u);  // 0.1 * 10 = 1 exactly
  model.set_num_transactions(11);
  EXPECT_EQ(model.MinCount(), 2u);  // ceil(1.1)
  model.set_num_transactions(19);
  EXPECT_EQ(model.MinCount(), 2u);
  model.set_num_transactions(20);
  EXPECT_EQ(model.MinCount(), 2u);
  model.set_num_transactions(21);
  EXPECT_EQ(model.MinCount(), 3u);
}

TEST(ItemsetModelTest, QueriesOnTrackedAndUntracked) {
  ItemsetModel model(0.5, 4);
  model.set_num_transactions(10);
  model.mutable_entries()->emplace(Itemset{0},
                                   ItemsetModel::Entry{8, true});
  model.mutable_entries()->emplace(Itemset{1},
                                   ItemsetModel::Entry{2, false});
  EXPECT_TRUE(model.IsFrequent({0}));
  EXPECT_FALSE(model.IsFrequent({1}));
  EXPECT_FALSE(model.IsFrequent({2}));
  EXPECT_TRUE(model.Contains({1}));
  EXPECT_FALSE(model.Contains({2}));
  EXPECT_EQ(model.CountOf({0}), 8u);
  EXPECT_EQ(model.CountOf({2}), 0u);
  EXPECT_DOUBLE_EQ(model.SupportOf({0}), 0.8);
  EXPECT_EQ(model.NumFrequent(), 1u);
  EXPECT_EQ(model.NumBorder(), 1u);
  EXPECT_EQ(model.FrequentItemsets().size(), 1u);
  EXPECT_EQ(model.NegativeBorder().size(), 1u);
}

TEST(ItemsetModelTest, Frequent2ItemsetsOrderedBySupport) {
  ItemsetModel model(0.1, 6);
  model.set_num_transactions(100);
  auto& entries = *model.mutable_entries();
  entries.emplace(Itemset{0, 1}, ItemsetModel::Entry{30, true});
  entries.emplace(Itemset{2, 3}, ItemsetModel::Entry{90, true});
  entries.emplace(Itemset{1, 4}, ItemsetModel::Entry{60, true});
  entries.emplace(Itemset{0, 5}, ItemsetModel::Entry{5, false});  // border
  entries.emplace(Itemset{0}, ItemsetModel::Entry{95, true});     // size 1
  const auto pairs = model.Frequent2ItemsetsBySupport();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (std::pair<Item, Item>{2, 3}));
  EXPECT_EQ(pairs[1], (std::pair<Item, Item>{1, 4}));
  EXPECT_EQ(pairs[2], (std::pair<Item, Item>{0, 1}));
}

TEST(ItemsetModelTest, TieBreakIsDeterministic) {
  ItemsetModel model(0.1, 6);
  model.set_num_transactions(100);
  auto& entries = *model.mutable_entries();
  entries.emplace(Itemset{4, 5}, ItemsetModel::Entry{50, true});
  entries.emplace(Itemset{0, 1}, ItemsetModel::Entry{50, true});
  const auto pairs = model.Frequent2ItemsetsBySupport();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<Item, Item>{0, 1}));  // lexicographic tie
}

TEST(ItemsetModelTest, SupportOfOnEmptyModel) {
  ItemsetModel model(0.3, 4);
  EXPECT_DOUBLE_EQ(model.SupportOf({0}), 0.0);
}

}  // namespace
}  // namespace demon
