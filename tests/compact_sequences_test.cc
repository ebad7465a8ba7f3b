#include "patterns/compact_sequences.h"

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "datagen/quest_generator.h"
#include "datagen/trace_generator.h"

namespace demon {
namespace {

using BlockPtr = std::shared_ptr<const TransactionBlock>;

// Builds a block of `n` two-item transactions drawn from one of a few
// fixed "regimes" so similarity between blocks is fully controlled.
BlockPtr RegimeBlock(int regime, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Transaction> transactions;
  transactions.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Item a = 0;
    Item b = 0;
    switch (regime) {
      case 0:  // items 0/1 dominate
        a = rng.NextBernoulli(0.8) ? 0 : 2;
        b = rng.NextBernoulli(0.8) ? 1 : 3;
        break;
      case 1:  // items 4/5 dominate
        a = rng.NextBernoulli(0.8) ? 4 : 6;
        b = rng.NextBernoulli(0.8) ? 5 : 7;
        break;
      default:  // items 8/9 dominate
        a = rng.NextBernoulli(0.8) ? 8 : 2;
        b = rng.NextBernoulli(0.8) ? 9 : 3;
        break;
    }
    transactions.push_back(Transaction({a, b}));
  }
  return std::make_shared<TransactionBlock>(std::move(transactions), 0);
}

CompactSequenceMiner::Options MinerOptions() {
  CompactSequenceMiner::Options options;
  options.focus.minsup = 0.05;
  options.focus.num_items = 16;
  options.alpha = 0.95;
  return options;
}

TEST(CompactSequenceMinerTest, SingleBlockIsItsOwnSequence) {
  CompactSequenceMiner miner(MinerOptions());
  miner.AddBlock(RegimeBlock(0, 500, 1));
  ASSERT_EQ(miner.sequences().size(), 1u);
  EXPECT_EQ(miner.sequences()[0], (std::vector<size_t>{0}));
}

TEST(CompactSequenceMinerTest, SameRegimeBlocksFormOneLongSequence) {
  CompactSequenceMiner miner(MinerOptions());
  for (int b = 0; b < 5; ++b) miner.AddBlock(RegimeBlock(0, 500, 10 + b));
  // The sequence started at block 0 must have absorbed everything.
  EXPECT_EQ(miner.sequences()[0], (std::vector<size_t>{0, 1, 2, 3, 4}));
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) {
      EXPECT_TRUE(miner.Similar(i, j)) << i << "," << j;
    }
  }
}

TEST(CompactSequenceMinerTest, AlternatingRegimesFormInterleavedSequences) {
  // Blocks: A B A B A. Sequences {0,2,4} and {1,3} must coexist — the
  // overlap the paper says clustering formulations cannot express.
  CompactSequenceMiner miner(MinerOptions());
  for (int b = 0; b < 5; ++b) {
    miner.AddBlock(RegimeBlock(b % 2, 500, 20 + b));
  }
  EXPECT_EQ(miner.sequences()[0], (std::vector<size_t>{0, 2, 4}));
  EXPECT_EQ(miner.sequences()[1], (std::vector<size_t>{1, 3}));
}

TEST(CompactSequenceMinerTest, AnomalousBlockExcludedFromAllSequences) {
  // A A X A A with X from a different regime: X must stay a singleton.
  CompactSequenceMiner miner(MinerOptions());
  miner.AddBlock(RegimeBlock(0, 500, 31));
  miner.AddBlock(RegimeBlock(0, 500, 32));
  miner.AddBlock(RegimeBlock(2, 500, 33));  // anomaly
  miner.AddBlock(RegimeBlock(0, 500, 34));
  miner.AddBlock(RegimeBlock(0, 500, 35));
  EXPECT_EQ(miner.sequences()[0], (std::vector<size_t>{0, 1, 3, 4}));
  EXPECT_EQ(miner.sequences()[2], (std::vector<size_t>{2}));
}

TEST(CompactSequenceMinerTest, AllMaintainedSequencesAreCompact) {
  // Mixed regimes; every maintained sequence must satisfy Definition 4.1
  // against the miner's own similarity matrix.
  CompactSequenceMiner miner(MinerOptions());
  const int regimes[] = {0, 1, 0, 2, 1, 0, 0, 2, 1, 0};
  for (int b = 0; b < 10; ++b) {
    miner.AddBlock(RegimeBlock(regimes[b], 400, 40 + b));
  }
  for (const auto& sequence : miner.sequences()) {
    EXPECT_TRUE(miner.IsCompact(sequence));
  }
}

TEST(CompactSequenceMinerTest, PaperWorkedExample) {
  // Paper example after Definition 4.1: blocks D1..D4 with similar pairs
  // exactly (1,2), (1,3), (1,4), (2,4). Then {D1,D2,D4} is compact while
  // {D1,D2,D3} (pairwise fails) and {D1,D4} (hole at D2) are not.
  // We validate the IsCompact predicate on a miner whose matrix we build
  // from regime blocks is impractical; instead check the predicate logic
  // via a miner with hand-picked blocks is fragile, so this test uses the
  // algorithmic invariant on the miner's own sequences plus IsCompact on
  // hand-built index lists where the matrix allows it.
  CompactSequenceMiner miner(MinerOptions());
  // Construct A A B A-ish pattern where (0,1),(0,2)? We approximate the
  // paper's matrix with regimes: 0:A 1:A 2:B 3:A.
  miner.AddBlock(RegimeBlock(0, 500, 51));
  miner.AddBlock(RegimeBlock(0, 500, 52));
  miner.AddBlock(RegimeBlock(1, 500, 53));
  miner.AddBlock(RegimeBlock(0, 500, 54));
  // {0,1,3} must be compact; {0,3} alone is not (hole at 1: 1 is similar
  // to 0); {0,2} is not (dissimilar pair).
  EXPECT_TRUE(miner.IsCompact({0, 1, 3}));
  EXPECT_FALSE(miner.IsCompact({0, 3}));
  EXPECT_FALSE(miner.IsCompact({0, 2}));
}

TEST(CompactSequenceMinerTest, MaximalSequencesFilterSubsets) {
  CompactSequenceMiner miner(MinerOptions());
  for (int b = 0; b < 4; ++b) miner.AddBlock(RegimeBlock(0, 500, 60 + b));
  // Sequences are {0,1,2,3}, {1,2,3}, {2,3}, {3}; only the first is
  // maximal.
  const auto maximal = miner.MaximalSequences(2);
  ASSERT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0], (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(CompactSequenceMinerTest, ScanCountsAndTimingReported) {
  CompactSequenceMiner miner(MinerOptions());
  miner.AddBlock(RegimeBlock(0, 400, 71));
  miner.AddBlock(RegimeBlock(1, 400, 72));  // dissimilar: forces scans
  EXPECT_GE(miner.last_add_seconds(), 0.0);
  EXPECT_GE(miner.last_scan_count(), 1u);
}

TEST(CompactSequenceMinerTest, SyntheticTraceSeparatesWeekdayFromWeekend) {
  // End-to-end smoke of the §5.3 experiment at 24h granularity: weekday
  // day blocks should chain together and exclude weekend + anomalous 9-9.
  TraceGenerator::Params params;
  params.rate_scale = 0.05;
  params.seed = 7;
  TraceGenerator gen(params);
  const auto trace = gen.Generate();
  const auto blocks = SegmentTrace(trace, 24, 24);  // from midnight 9-3

  CompactSequenceMiner::Options options;
  options.focus.minsup = 0.01;
  options.focus.num_items =
      TraceGenerator::kNumObjectTypes + TraceGenerator::kNumSizeBuckets;
  options.alpha = 0.99;
  CompactSequenceMiner miner(options);
  for (const auto& block : blocks) {
    miner.AddBlock(std::make_shared<TransactionBlock>(block));
  }
  // Block indices: 0 = Tue 9-3, ..., day i = Sep (3+i). Weekdays (not the
  // anomaly Mon 9-9 which is index 6) should pairwise chain.
  // Tue 9-3 (0) and Wed 9-4 (1) are both plain working days.
  EXPECT_TRUE(miner.Similar(0, 1));
  // Sat 9-7 (4) differs from Tue 9-3 (0).
  EXPECT_FALSE(miner.Similar(0, 4));
  // The anomalous Monday 9-9 (6) differs from normal weekdays and from
  // weekends.
  EXPECT_FALSE(miner.Similar(1, 6));
  EXPECT_FALSE(miner.Similar(4, 6));
  // Weekend days resemble each other: Sat 9-7 (4) vs Sun 9-8 (5).
  EXPECT_TRUE(miner.Similar(4, 5));
}

TEST(CompactSequenceMinerTest, Figure10PairsCompareWithoutScansThroughBorderCounts) {
  // Figure 10's configuration: 6-hour blocks of the proxy trace.
  TraceGenerator::Params params;
  params.rate_scale = 0.05;
  params.seed = 7;
  const auto blocks = SegmentTrace(TraceGenerator(params).Generate(), 6, 12);
  CompactSequenceMiner::Options options;
  options.focus.minsup = 0.01;
  options.focus.num_items =
      TraceGenerator::kNumObjectTypes + TraceGenerator::kNumSizeBuckets;
  options.alpha = 0.99;
  CompactSequenceMiner miner(options);
  std::vector<std::vector<Itemset>> frequent;
  const FocusItemsets focus(options.focus);
  for (const auto& block : blocks) {
    miner.AddBlock(std::make_shared<TransactionBlock>(block));
    frequent.push_back(focus.MineModel(block).FrequentItemsets());
  }

  size_t pairs = 0;
  size_t unscanned = 0;
  for (size_t j = 0; j < miner.NumBlocks(); ++j) {
    for (size_t i = 0; i < j; ++i) {
      ++pairs;
      if (miner.Similarity(i, j).deviation.scanned_blocks) continue;
      ++unscanned;
      // No two blocks share their frequent itemsets, so a pair compares
      // without a scan only because each block's model carries its
      // negative border with counts.
      EXPECT_NE(frequent[i], frequent[j]) << i << "," << j;
    }
  }
  EXPECT_EQ(pairs, 3321u);
  // Pinned: the count the hash-table model cache gave on this trace.
  EXPECT_EQ(unscanned, 1235u);
}

TEST(CompactSequenceMinerTest, HeapIsFrozenModelsBlocksAndSimilarityMatrix) {
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
  constexpr size_t kBlocks = 6;
  QuestParams params;
  params.num_transactions = kBlocks * 1000;
  params.num_items = kNumItems;
  params.num_patterns = 200;
  params.avg_transaction_len = 10;
  params.avg_pattern_len = 3;
  params.seed = 81;
  QuestGenerator gen(params);
  CompactSequenceMiner::Options options;
  options.focus.minsup = 0.005;
  options.focus.num_items = kNumItems;
  CompactSequenceMiner miner(options);
  const FocusItemsets focus(options.focus);

  std::vector<BlockPtr> blocks;
  blocks.reserve(kBlocks);
  const size_t baseline = heap_in_use();
  size_t blocks_total = 0;
  size_t models_total = 0;
  Tid tid = 0;
  for (size_t b = 0; b < kBlocks; ++b) {
    blocks.push_back(
        std::make_shared<TransactionBlock>(gen.NextBlock(1000, tid)));
    tid += blocks.back()->size();
    blocks_total += block_bytes(*blocks.back());
    models_total += focus.MineModel(*blocks.back()).MemoryBytes();
    miner.AddBlock(blocks.back());
    // Row j of the similarity matrix holds j entries; the row and
    // sequence headers fall inside the slack.
    const size_t n = miner.NumBlocks();
    const size_t matrix = n * (n - 1) / 2 * sizeof(PairwiseSimilarity);
    const size_t held = heap_in_use() - baseline;
    EXPECT_LE(held, models_total + blocks_total + matrix + (size_t{2} << 20))
        << "block " << b << ": frozen models " << models_total
        << " B, blocks " << blocks_total << " B, matrix " << matrix << " B";
  }
#endif
}

}  // namespace
}  // namespace demon
