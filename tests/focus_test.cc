#include "deviation/focus.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/cluster_generator.h"
#include "datagen/quest_generator.h"

namespace demon {
namespace {

TransactionBlock QuestBlock(size_t n, uint64_t seed, size_t num_patterns = 40,
                            size_t num_items = 60) {
  QuestParams params;
  params.num_transactions = n;
  params.num_items = num_items;
  params.num_patterns = num_patterns;
  params.avg_transaction_len = 8;
  params.avg_pattern_len = 3;
  params.seed = seed;
  QuestGenerator gen(params);
  return gen.GenerateAll();
}

FocusItemsets::Options ItemsetOptions() {
  FocusItemsets::Options options;
  options.minsup = 0.03;
  options.num_items = 60;
  return options;
}

TEST(FocusItemsetsTest, IdenticalBlocksHaveZeroDeviation) {
  const TransactionBlock block = QuestBlock(1000, 60);
  FocusItemsets focus(ItemsetOptions());
  const DeviationResult result = focus.Compare(block, block);
  EXPECT_DOUBLE_EQ(result.deviation, 0.0);
  EXPECT_NEAR(result.significance, 0.0, 1e-9);
  EXPECT_GT(result.num_regions, 0u);
  EXPECT_FALSE(result.scanned_blocks);
}

TEST(FocusItemsetsTest, SameDistributionLowDeviation) {
  // Two blocks drawn from the same generator (different stretches).
  QuestParams params;
  params.num_transactions = 4000;
  params.num_items = 60;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.avg_pattern_len = 3;
  params.seed = 61;
  QuestGenerator gen(params);
  const TransactionBlock b1 = gen.NextBlock(2000, 0);
  const TransactionBlock b2 = gen.NextBlock(2000, 2000);
  FocusItemsets focus(ItemsetOptions());
  const DeviationResult result = focus.Compare(b1, b2);
  EXPECT_LT(result.deviation, 0.15);
  EXPECT_LT(result.significance, 0.999);
}

TEST(FocusItemsetsTest, DifferentDistributionsHighDeviation) {
  // Different pattern tables: clearly different generating processes.
  const TransactionBlock b1 = QuestBlock(2000, 62, /*num_patterns=*/40);
  const TransactionBlock b2 = QuestBlock(2000, 63, /*num_patterns=*/40);
  FocusItemsets focus(ItemsetOptions());
  const DeviationResult result = focus.Compare(b1, b2);
  EXPECT_GT(result.deviation, 0.3);
  EXPECT_GT(result.significance, 0.99);
  EXPECT_TRUE(result.scanned_blocks);
}

TEST(FocusItemsetsTest, SymmetricInArguments) {
  const TransactionBlock b1 = QuestBlock(1500, 64);
  const TransactionBlock b2 = QuestBlock(1500, 65);
  FocusItemsets focus(ItemsetOptions());
  const DeviationResult ab = focus.Compare(b1, b2);
  const DeviationResult ba = focus.Compare(b2, b1);
  EXPECT_NEAR(ab.deviation, ba.deviation, 1e-12);
  EXPECT_NEAR(ab.significance, ba.significance, 1e-12);
  EXPECT_EQ(ab.num_regions, ba.num_regions);
}

TEST(FocusItemsetsTest, CachedModelPathMatchesDirectPath) {
  const TransactionBlock b1 = QuestBlock(1000, 66);
  const TransactionBlock b2 = QuestBlock(1000, 67);
  FocusItemsets focus(ItemsetOptions());
  const FrozenItemsetModel m1 = focus.MineModel(b1);
  const FrozenItemsetModel m2 = focus.MineModel(b2);
  const DeviationResult direct = focus.Compare(b1, b2);
  const DeviationResult cached = focus.CompareWithModels(b1, m1, b2, m2);
  EXPECT_DOUBLE_EQ(direct.deviation, cached.deviation);
  EXPECT_DOUBLE_EQ(direct.significance, cached.significance);
  EXPECT_EQ(direct.num_regions, cached.num_regions);
  EXPECT_EQ(direct.scanned_blocks, cached.scanned_blocks);
}

TEST(FocusItemsetsTest, DeviationBoundedByOne) {
  // Completely disjoint item universes: deviation at the upper bound.
  std::vector<Transaction> t1;
  std::vector<Transaction> t2;
  for (int i = 0; i < 200; ++i) {
    t1.push_back(Transaction({0, 1}));
    t2.push_back(Transaction({10, 11}));
  }
  const TransactionBlock b1(std::move(t1), 0);
  const TransactionBlock b2(std::move(t2), 200);
  FocusItemsets::Options options;
  options.minsup = 0.1;
  options.num_items = 20;
  FocusItemsets focus(options);
  const DeviationResult result = focus.Compare(b1, b2);
  EXPECT_NEAR(result.deviation, 1.0, 1e-9);
  EXPECT_GT(result.significance, 0.999);
}

TEST(FocusClustersTest, SameVsShiftedClusters) {
  ClusterGenParams params;
  params.num_points = 3000;
  params.num_clusters = 4;
  params.dim = 2;
  params.seed = 68;
  ClusterGenerator gen(params);
  const PointBlock b1 = gen.NextBlock(1500);
  const PointBlock b2 = gen.NextBlock(1500);

  // A block from a different layout.
  ClusterGenParams other = params;
  other.seed = 99;
  ClusterGenerator other_gen(other);
  const PointBlock b3 = other_gen.NextBlock(1500);

  FocusClusters::Options options;
  options.dim = 2;
  options.birch.num_clusters = 4;
  options.birch.tree.max_leaf_entries = 128;
  FocusClusters focus(options);

  const DeviationResult same = focus.Compare(b1, b2);
  const DeviationResult different = focus.Compare(b1, b3);
  EXPECT_LT(same.deviation, different.deviation);
  EXPECT_GT(different.significance, 0.99);
}

TEST(FocusClustersTest, IdenticalBlocksAgree) {
  ClusterGenParams params;
  params.num_points = 1000;
  params.num_clusters = 3;
  params.dim = 2;
  params.seed = 70;
  ClusterGenerator gen(params);
  const PointBlock block = gen.GenerateAll();
  FocusClusters::Options options;
  options.dim = 2;
  options.birch.num_clusters = 3;
  FocusClusters focus(options);
  const DeviationResult result = focus.Compare(block, block);
  EXPECT_NEAR(result.deviation, 0.0, 1e-12);
}

}  // namespace
}  // namespace demon
