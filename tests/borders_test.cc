#include "itemsets/borders.h"

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"

namespace demon {
namespace {

using BlockPtr = std::shared_ptr<const TransactionBlock>;

// Asserts that two models are identical: same tracked itemsets, counts and
// frequency flags (the paper's correctness claim for BORDERS maintenance).
void ExpectModelsEqual(const ItemsetModel& actual,
                       const ItemsetModel& expected) {
  EXPECT_EQ(actual.num_transactions(), expected.num_transactions());
  ASSERT_EQ(actual.entries().size(), expected.entries().size());
  for (const auto& [itemset, entry] : expected.entries()) {
    const auto it = actual.entries().find(itemset);
    ASSERT_NE(it, actual.entries().end()) << "missing " << ToString(itemset);
    EXPECT_EQ(it->second.count, entry.count) << ToString(itemset);
    EXPECT_EQ(it->second.frequent, entry.frequent) << ToString(itemset);
  }
}

std::vector<BlockPtr> MakeQuestBlocks(size_t num_blocks, size_t block_size,
                                      size_t num_items, uint64_t seed,
                                      double avg_len = 8.0) {
  QuestParams params;
  params.num_transactions = num_blocks * block_size;
  params.num_items = num_items;
  params.num_patterns = 40;
  params.avg_transaction_len = avg_len;
  params.avg_pattern_len = 3;
  params.seed = seed;
  QuestGenerator gen(params);
  std::vector<BlockPtr> blocks;
  Tid tid = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    auto block =
        std::make_shared<TransactionBlock>(gen.NextBlock(block_size, tid));
    tid += block->size();
    blocks.push_back(std::move(block));
  }
  return blocks;
}

class BordersStrategyTest
    : public ::testing::TestWithParam<CountingStrategy> {};

TEST_P(BordersStrategyTest, IncrementalEqualsFromScratchAfterEveryBlock) {
  const auto blocks = MakeQuestBlocks(5, 400, 60, 21);
  BordersOptions options;
  options.minsup = 0.04;
  options.num_items = 60;
  options.strategy = GetParam();
  BordersMaintainer maintainer(options);

  std::vector<BlockPtr> so_far;
  for (const auto& block : blocks) {
    maintainer.AddBlock(block);
    so_far.push_back(block);
    const ItemsetModel scratch =
        Apriori(so_far, options.minsup, options.num_items);
    ExpectModelsEqual(maintainer.model(), scratch);
  }
}

TEST_P(BordersStrategyTest, DistributionShiftBetweenBlocks) {
  // Second-block distribution differs (the Figs 4-7 setting): more model
  // churn exercises promotion/demotion paths.
  const auto first = MakeQuestBlocks(1, 1500, 60, 22, /*avg_len=*/8.0);
  QuestParams second_params;
  second_params.num_transactions = 500;
  second_params.num_items = 60;
  second_params.num_patterns = 80;  // different pattern table
  second_params.avg_transaction_len = 10.0;
  second_params.avg_pattern_len = 4;
  second_params.seed = 1234;
  QuestGenerator second_gen(second_params);
  auto second = std::make_shared<TransactionBlock>(
      second_gen.NextBlock(500, first[0]->size()));

  BordersOptions options;
  options.minsup = 0.03;
  options.num_items = 60;
  options.strategy = GetParam();
  BordersMaintainer maintainer(options);
  maintainer.AddBlock(first[0]);
  maintainer.AddBlock(second);

  const ItemsetModel scratch =
      Apriori({first[0], second}, options.minsup, options.num_items);
  ExpectModelsEqual(maintainer.model(), scratch);
  EXPECT_GT(maintainer.last_stats().update_iterations +
                maintainer.last_stats().new_candidates,
            0u);
}

TEST_P(BordersStrategyTest, RemoveOldestBlockMatchesFromScratch) {
  const auto blocks = MakeQuestBlocks(4, 300, 50, 23);
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 50;
  options.strategy = GetParam();
  BordersMaintainer maintainer(options);
  for (const auto& block : blocks) maintainer.AddBlock(block);

  maintainer.RemoveOldestBlock();
  ExpectModelsEqual(maintainer.model(),
                    Apriori({blocks[1], blocks[2], blocks[3]},
                            options.minsup, options.num_items));
  maintainer.RemoveOldestBlock();
  ExpectModelsEqual(
      maintainer.model(),
      Apriori({blocks[2], blocks[3]}, options.minsup, options.num_items));
}

TEST_P(BordersStrategyTest, SlidingWindowAddAndRemove) {
  // AuM-style usage (§3.2.4): add new block, drop oldest, repeatedly.
  const auto blocks = MakeQuestBlocks(6, 250, 40, 24);
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 40;
  options.strategy = GetParam();
  BordersMaintainer maintainer(options);
  maintainer.AddBlock(blocks[0]);
  maintainer.AddBlock(blocks[1]);
  maintainer.AddBlock(blocks[2]);
  for (size_t next = 3; next < blocks.size(); ++next) {
    maintainer.AddBlock(blocks[next]);
    maintainer.RemoveOldestBlock();
    const std::vector<BlockPtr> window(blocks.begin() + (next - 2),
                                       blocks.begin() + next + 1);
    ExpectModelsEqual(maintainer.model(),
                      Apriori(window, options.minsup, options.num_items));
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, BordersStrategyTest,
                         ::testing::Values(CountingStrategy::kPtScan,
                                           CountingStrategy::kEcut,
                                           CountingStrategy::kEcutPlus),
                         [](const auto& info) {
                           switch (info.param) {
                             case CountingStrategy::kPtScan:
                               return "PtScan";
                             case CountingStrategy::kEcut:
                               return "Ecut";
                             case CountingStrategy::kEcutPlus:
                               return "EcutPlus";
                           }
                           return "Unknown";
                         });

TEST(BordersTest, RaisingMinSupportShrinksModelConsistently) {
  const auto blocks = MakeQuestBlocks(3, 400, 50, 25);
  BordersOptions options;
  options.minsup = 0.03;
  options.num_items = 50;
  BordersMaintainer maintainer(options);
  for (const auto& block : blocks) maintainer.AddBlock(block);

  maintainer.ChangeMinSupport(0.08);
  ExpectModelsEqual(maintainer.model(), Apriori(blocks, 0.08, 50));
}

TEST(BordersTest, LoweringMinSupportGrowsModelConsistently) {
  const auto blocks = MakeQuestBlocks(3, 400, 50, 26);
  BordersOptions options;
  options.minsup = 0.08;
  options.num_items = 50;
  options.strategy = CountingStrategy::kEcut;
  BordersMaintainer maintainer(options);
  for (const auto& block : blocks) maintainer.AddBlock(block);

  maintainer.ChangeMinSupport(0.03);
  ExpectModelsEqual(maintainer.model(), Apriori(blocks, 0.03, 50));
}

TEST(BordersTest, UnselectedBlocksAreSimplySkipped) {
  // BSS semantics (§3.1.1): if b_{t+1} = 0 the model carries over; the
  // caller just does not pass the block in. The model must then equal the
  // from-scratch model over the selected blocks only.
  const auto blocks = MakeQuestBlocks(4, 300, 40, 27);
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 40;
  BordersMaintainer maintainer(options);
  maintainer.AddBlock(blocks[0]);
  maintainer.AddBlock(blocks[2]);  // skip blocks[1] and blocks[3]
  ExpectModelsEqual(maintainer.model(),
                    Apriori({blocks[0], blocks[2]}, options.minsup, 40));
}

TEST(BordersTest, StatsReportPhases) {
  const auto blocks = MakeQuestBlocks(2, 500, 50, 28);
  BordersOptions options;
  options.minsup = 0.04;
  options.num_items = 50;
  BordersMaintainer maintainer(options);
  maintainer.AddBlock(blocks[0]);
  maintainer.AddBlock(blocks[1]);
  const auto& stats = maintainer.last_stats();
  EXPECT_GE(stats.detection_seconds, 0.0);
  EXPECT_GE(stats.update_seconds, 0.0);
}

TEST(BordersTest, EcutPlusBudgetZeroStillCorrect) {
  // With a zero pair budget ECUT+ degenerates to ECUT but must stay exact.
  const auto blocks = MakeQuestBlocks(3, 300, 40, 29);
  BordersOptions options;
  options.minsup = 0.05;
  options.num_items = 40;
  options.strategy = CountingStrategy::kEcutPlus;
  options.pair_budget_fraction = 0.0;
  BordersMaintainer maintainer(options);
  for (const auto& block : blocks) maintainer.AddBlock(block);
  ExpectModelsEqual(maintainer.model(), Apriori(blocks, options.minsup, 40));
}

TEST(BordersTest, ManySmallBlocksStressPromotionDemotionCycles) {
  // Tiny skewed blocks make itemsets oscillate across the threshold.
  Rng rng(30);
  BordersOptions options;
  options.minsup = 0.3;
  options.num_items = 8;
  BordersMaintainer maintainer(options);
  std::vector<BlockPtr> so_far;
  Tid tid = 0;
  for (int b = 0; b < 20; ++b) {
    std::vector<Transaction> transactions;
    const size_t n = 5 + rng.NextUint64(10);
    for (size_t i = 0; i < n; ++i) {
      std::vector<Item> items;
      for (Item item = 0; item < 8; ++item) {
        if (rng.NextBernoulli(0.4)) items.push_back(item);
      }
      if (items.empty()) items.push_back(static_cast<Item>(b % 8));
      transactions.push_back(Transaction(std::move(items)));
    }
    auto block =
        std::make_shared<TransactionBlock>(std::move(transactions), tid);
    tid += block->size();
    maintainer.AddBlock(block);
    so_far.push_back(block);
    ExpectModelsEqual(maintainer.model(),
                      Apriori(so_far, options.minsup, options.num_items));
  }
}

// Between blocks a maintainer holds its model, its blocks and its TID-lists
// and nothing else: no counting call leaves a buffer behind, whatever
// number of shards it ran on. Checked on the heap in use (glibc's
// mallinfo2), so it is skipped where a sanitizer replaces the allocator.
TEST(BordersTest, HeapBetweenBlocksIsModelBlocksAndTidLists) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
#endif
#endif
#if !defined(__GLIBC__)
  GTEST_SKIP() << "needs glibc's mallinfo2";
#else
  const auto heap_in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  // Heap a block holds: its transaction array and each transaction's item
  // array, with two words of allocator header per allocation.
  const auto block_bytes = [](const TransactionBlock& block) {
    size_t bytes = sizeof(TransactionBlock) +
                   block.transactions().capacity() * sizeof(Transaction);
    for (const Transaction& t : block.transactions()) {
      bytes += t.items().capacity() * sizeof(Item) + 2 * sizeof(void*);
    }
    return bytes;
  };

  constexpr size_t kNumItems = 300;
  ThreadPool pool(4);
  for (CountingStrategy strategy :
       {CountingStrategy::kPtScan, CountingStrategy::kEcut}) {
    QuestParams params;
    params.num_transactions = 4 * 2000;
    params.num_items = kNumItems;
    params.num_patterns = 60;
    params.avg_transaction_len = 10;
    params.avg_pattern_len = 3;
    params.seed = 61;
    QuestGenerator gen(params);
    BordersOptions options;
    options.minsup = 0.004;
    options.num_items = kNumItems;
    options.strategy = strategy;
    BordersMaintainer maintainer(options);
    maintainer.set_counting_pool(&pool);

    const size_t baseline = heap_in_use();
    std::vector<BlockPtr> blocks;
    size_t blocks_total = 0;
    Tid tid = 0;
    for (int b = 0; b < 4; ++b) {
      blocks.push_back(
          std::make_shared<TransactionBlock>(gen.NextBlock(2000, tid)));
      tid += blocks.back()->size();
      blocks_total += block_bytes(*blocks.back());
      maintainer.AddBlock(blocks.back());
      const size_t held = heap_in_use() - baseline;
      const size_t model = maintainer.model().entries().MemoryBytes();
      const size_t tidlists = maintainer.tidlist_store().TotalPayloadBytes();
      EXPECT_LE(held, model + tidlists + blocks_total + (size_t{2} << 20))
          << CountingStrategyName(strategy) << " block " << b << ": model "
          << model << " B, TID-lists " << tidlists << " B, blocks "
          << blocks_total << " B, "
          << maintainer.model().entries().size() << " entries";
    }
    ExpectModelsEqual(maintainer.model(),
                      Apriori(blocks, options.minsup, options.num_items));
  }
#endif
}

}  // namespace
}  // namespace demon
