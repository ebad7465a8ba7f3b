#include "itemsets/frozen_itemset_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "datagen/quest_generator.h"
#include "datagen/trace_generator.h"
#include "itemsets/apriori.h"
#include "itemsets/model_io.h"

namespace demon {
namespace {

TransactionBlock QuestBlock(size_t num_items, size_t num_patterns,
                            double avg_transaction_len, double plen,
                            uint64_t seed) {
  QuestParams params;
  params.num_transactions = 1000;
  params.num_items = num_items;
  params.num_patterns = num_patterns;
  params.avg_transaction_len = avg_transaction_len;
  params.avg_pattern_len = plen;
  params.seed = seed;
  return QuestGenerator(params).GenerateAll();
}

/// A 1000-record `*.20L.1I.4pats.4plen` block: 1000 items, 4000 patterns.
TransactionBlock FleetBlock() { return QuestBlock(1000, 4000, 20, 4, 7); }

/// A 6-hour block of the synthetic proxy trace.
TransactionBlock TraceBlock() {
  TraceGenerator::Params params;
  params.rate_scale = 0.05;
  params.seed = 7;
  const auto blocks = SegmentTrace(TraceGenerator(params).Generate(), 6, 12);
  return blocks.at(10);
}

constexpr size_t kTraceItems =
    TraceGenerator::kNumObjectTypes + TraceGenerator::kNumSizeBuckets;

FrozenItemsetModel MustFreeze(const ItemsetModel& model) {
  Result<FrozenItemsetModel> frozen = FrozenItemsetModel::Freeze(model);
  EXPECT_TRUE(frozen.ok()) << frozen.status();
  return frozen.ok() ? std::move(frozen).value() : FrozenItemsetModel();
}

std::string Bytes(const ItemsetModel& model) {
  persistence::Writer w;
  SerializeItemsetModel(w, model);
  return w.buffer();
}

std::string Bytes(const FrozenItemsetModel& model) {
  persistence::Writer w;
  SerializeItemsetModel(w, model);
  return w.buffer();
}

/// The frozen model's answer for `key` must be the source model's, tracked
/// or not.
void ExpectSameLookup(const ItemsetModel& source,
                      const FrozenItemsetModel& frozen,
                      const Itemset& key) {
  const std::optional<uint64_t> expected =
      source.Contains(key) ? std::optional<uint64_t>(source.CountOf(key))
                           : std::nullopt;
  EXPECT_EQ(frozen.Find(key), expected) << ToString(key);
}

/// Differential check of every tracked itemset and of untracked probes:
/// every pair (so pairs with an infrequent item and pairs at the last
/// item), unsorted and out-of-universe keys, and one-item extensions of
/// every tracked itemset of two or more items.
void ExpectSameModel(const ItemsetModel& source,
                     const FrozenItemsetModel& frozen) {
  EXPECT_DOUBLE_EQ(frozen.minsup(), source.minsup());
  EXPECT_EQ(frozen.num_items(), source.num_items());
  EXPECT_EQ(frozen.num_transactions(), source.num_transactions());
  EXPECT_EQ(frozen.MinCount(), source.MinCount());
  ASSERT_EQ(frozen.size(), source.entries().size());

  std::vector<Itemset> tracked;
  for (const auto& [itemset, entry] : source.entries()) {
    const std::optional<uint64_t> count = frozen.Find(itemset);
    ASSERT_TRUE(count.has_value()) << ToString(itemset);
    EXPECT_EQ(*count, entry.count) << ToString(itemset);
    tracked.emplace_back(itemset);
  }

  const auto n = static_cast<Item>(source.num_items());
  EXPECT_EQ(frozen.Find(Itemset{}), std::nullopt);
  ExpectSameLookup(source, frozen, {n});
  for (Item a = 0; a < n; ++a) {
    for (Item b = a + 1; b < n; ++b) {
      ExpectSameLookup(source, frozen, {a, b});
    }
    ExpectSameLookup(source, frozen, {a, n});
  }
  if (n >= 2) ExpectSameLookup(source, frozen, {n - 1, 0});

  size_t extensions = 0;
  for (const Itemset& itemset : tracked) {
    if (itemset.size() < 2) continue;
    for (Item next = itemset.back() + 1; next < std::min(n, itemset.back() + 9);
         ++next) {
      Itemset longer = itemset;
      longer.push_back(next);
      ExpectSameLookup(source, frozen, longer);
      ++extensions;
    }
    Itemset last = itemset;
    last.push_back(n - 1);
    if (last.back() > itemset.back()) ExpectSameLookup(source, frozen, last);
  }
  if (frozen.size() > frozen.num_items()) {
    EXPECT_GT(extensions, 0u);
  }

  std::vector<Itemset> frequent = source.FrequentItemsets();
  std::sort(frequent.begin(), frequent.end(), ItemsetLess());
  EXPECT_EQ(frozen.FrequentItemsets(), frequent);
}

TEST(FrozenItemsetModelTest, MatchesSourceOnQuestBlocksAtSeveralMinsups) {
  const TransactionBlock block = QuestBlock(200, 100, 10, 4, 3);
  for (double minsup : {0.005, 0.02, 0.05}) {
    SCOPED_TRACE(minsup);
    const ItemsetModel model = AprioriOnBlock(block, minsup, 200);
    ExpectSameModel(model, MustFreeze(model));
  }
}

TEST(FrozenItemsetModelTest, MatchesSourceOnFleetBlock) {
  const ItemsetModel model = AprioriOnBlock(FleetBlock(), 0.005, 1000);
  ExpectSameModel(model, MustFreeze(model));
}

TEST(FrozenItemsetModelTest, MatchesSourceOnTraceBlock) {
  const ItemsetModel model = AprioriOnBlock(TraceBlock(), 0.01, kTraceItems);
  ASSERT_GT(model.NumFrequent(), 0u);
  ExpectSameModel(model, MustFreeze(model));
}

TEST(FrozenItemsetModelTest, MatchesSourceOnEmptyAndOneTransactionBlocks) {
  const TransactionBlock empty(std::vector<Transaction>{}, 0);
  const ItemsetModel empty_model = AprioriOnBlock(empty, 0.5, 4);
  ExpectSameModel(empty_model, MustFreeze(empty_model));

  const TransactionBlock one({Transaction({0, 2, 3, 4})}, 0);
  const ItemsetModel one_model = AprioriOnBlock(one, 0.5, 6);
  ASSERT_TRUE(one_model.IsFrequent({0, 2, 3, 4}));
  ExpectSameModel(one_model, MustFreeze(one_model));

  // A model that tracks nothing freezes to one that tracks nothing.
  const FrozenItemsetModel none = MustFreeze(ItemsetModel(0.1, 5));
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.Find(Itemset{0}), std::nullopt);
}

TEST(FrozenItemsetModelTest, SerializesToTheSourceModelsBytes) {
  const TransactionBlock quest = QuestBlock(200, 100, 10, 4, 5);
  const TransactionBlock empty(std::vector<Transaction>{}, 0);
  const TransactionBlock one({Transaction({1, 3, 4})}, 0);
  const std::vector<ItemsetModel> models = {
      AprioriOnBlock(quest, 0.01, 200), AprioriOnBlock(quest, 0.05, 200),
      AprioriOnBlock(TraceBlock(), 0.01, kTraceItems),
      AprioriOnBlock(empty, 0.5, 4), AprioriOnBlock(one, 0.5, 5),
      ItemsetModel(0.1, 5), ItemsetModel()};
  for (const ItemsetModel& model : models) {
    const std::string bytes = Bytes(model);
    EXPECT_EQ(Bytes(MustFreeze(model)), bytes);

    // Loading freezes, and the loaded model writes the same bytes again.
    persistence::Reader r(bytes);
    FrozenItemsetModel loaded;
    DeserializeItemsetModel(r, &loaded);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(Bytes(loaded), bytes);
  }
  EXPECT_EQ(Bytes(FrozenItemsetModel()), Bytes(ItemsetModel()));
}

/// Freezing `model` fails with InvalidArgument naming `why`, and loading
/// its bytes as a frozen model is DataLoss.
void ExpectRejected(const ItemsetModel& model, const std::string& why) {
  const Result<FrozenItemsetModel> frozen = FrozenItemsetModel::Freeze(model);
  ASSERT_FALSE(frozen.ok());
  EXPECT_EQ(frozen.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(frozen.status().message().find(why), std::string::npos)
      << frozen.status();

  const std::string bytes = Bytes(model);
  persistence::Reader r(bytes);
  FrozenItemsetModel loaded;
  DeserializeItemsetModel(r, &loaded);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

ItemsetModel SmallModel() {
  return AprioriOnBlock(QuestBlock(60, 40, 8, 3, 9), 0.03, 60);
}

/// The first tracked itemset of `size` items whose frequent flag is
/// `frequent`.
Itemset FirstTracked(const ItemsetModel& model, size_t size, bool frequent) {
  for (const auto& [itemset, entry] : model.entries()) {
    if (itemset.size() == size && entry.frequent == frequent) return itemset;
  }
  ADD_FAILURE() << "no " << size << "-itemset with frequent=" << frequent;
  return {};
}

TEST(FrozenItemsetModelTest, RejectsMissingFrequentItemPair) {
  ItemsetModel model = SmallModel();
  ASSERT_EQ(model.mutable_entries()->erase(FirstTracked(model, 2, false)), 1u);
  ExpectRejected(model, "level 2 holds");
}

TEST(FrozenItemsetModelTest, RejectsFlagInconsistentWithMinCount) {
  ItemsetModel model = SmallModel();
  const Itemset border = FirstTracked(model, 2, false);
  (*model.mutable_entries()->find(border)).second.frequent = true;
  ExpectRejected(model, "frequent=1");
}

TEST(FrozenItemsetModelTest, RejectsCountAboveTransactions) {
  ItemsetModel model = SmallModel();
  const Itemset frequent = FirstTracked(model, 2, true);
  (*model.mutable_entries()->find(frequent)).second.count =
      model.num_transactions() + 1;
  ExpectRejected(model, "above");
}

TEST(FrozenItemsetModelTest, RejectsIncompleteItemLayer) {
  ItemsetModel model = SmallModel();
  ASSERT_EQ(model.mutable_entries()->erase(FirstTracked(model, 1, false)), 1u);
  ExpectRejected(model, "items");
}

TEST(FrozenItemsetModelTest, RejectsUniverseLargerThanItsItemsets) {
  // A corrupt universe size is rejected before anything is sized by it.
  ItemsetModel model(0.5, size_t{1} << 40);
  model.set_num_transactions(3);
  model.mutable_entries()->emplace(Itemset{0}, ItemsetModel::Entry{1, false});
  ExpectRejected(model, "fewer than");
}

TEST(FrozenItemsetModelTest, RejectsTransactionTotalBeyond32Bits) {
  ItemsetModel model(0.5, 1);
  model.set_num_transactions(uint64_t{1} << 32);
  model.mutable_entries()->emplace(Itemset{0}, ItemsetModel::Entry{7, false});
  ExpectRejected(model, "32-bit");
}

TEST(FrozenItemsetModelTest, FootprintAtMostFourAndAHalfBytesPerItemset) {
  const ItemsetModel model = AprioriOnBlock(FleetBlock(), 0.005, 1000);
  const FrozenItemsetModel frozen = MustFreeze(model);
  const double per_itemset = static_cast<double>(frozen.MemoryBytes()) /
                             static_cast<double>(frozen.size());
  EXPECT_LE(per_itemset, 4.5) << frozen.MemoryBytes() << " B for "
                              << frozen.size() << " itemsets";
  EXPECT_LT(frozen.MemoryBytes() * 6, model.entries().MemoryBytes());
}

}  // namespace
}  // namespace demon
