#include "itemsets/model_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"

namespace demon {
namespace {

ItemsetModel MineModel(uint64_t seed) {
  QuestParams params;
  params.num_transactions = 1200;
  params.num_items = 60;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.seed = seed;
  QuestGenerator gen(params);
  auto block = std::make_shared<TransactionBlock>(gen.GenerateAll());
  return Apriori({block}, 0.04, params.num_items);
}

TEST(ModelIoTest, RoundTripIsExact) {
  const ItemsetModel model = MineModel(41);
  const std::string path = ::testing::TempDir() + "/model.bin";
  ASSERT_TRUE(WriteItemsetModel(model, path).ok());

  auto reread = ReadItemsetModel(path);
  ASSERT_TRUE(reread.ok()) << reread.status();
  const ItemsetModel& loaded = reread.value();
  EXPECT_DOUBLE_EQ(loaded.minsup(), model.minsup());
  EXPECT_EQ(loaded.num_items(), model.num_items());
  EXPECT_EQ(loaded.num_transactions(), model.num_transactions());
  ASSERT_EQ(loaded.entries().size(), model.entries().size());
  for (const auto& [itemset, entry] : model.entries()) {
    const auto it = loaded.entries().find(itemset);
    ASSERT_NE(it, loaded.entries().end()) << ToString(itemset);
    EXPECT_EQ(it->second.count, entry.count);
    EXPECT_EQ(it->second.frequent, entry.frequent);
  }
  std::remove(path.c_str());
}

long WrittenFileSize(const ItemsetModel& model, const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(WriteItemsetModel(model, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fclose(f);
  std::remove(path.c_str());
  return file_size;
}

// SerializedModelBytes is an independent prediction of the writer's output
// size; the writer and the predictor must never drift apart. Cover the
// degenerate, minimal, and realistic shapes.
TEST(ModelIoTest, SerializedBytesMatchesFileSizeEmptyModel) {
  const ItemsetModel model(0.05, 10);
  EXPECT_EQ(static_cast<uint64_t>(WrittenFileSize(model, "model_empty.bin")),
            SerializedModelBytes(model));
}

TEST(ModelIoTest, SerializedBytesMatchesFileSizeSingleItemset) {
  ItemsetModel model(0.05, 10);
  model.set_num_transactions(100);
  model.mutable_entries()->emplace(Itemset{3, 7, 9},
                                   ItemsetModel::Entry{42, true});
  EXPECT_EQ(static_cast<uint64_t>(WrittenFileSize(model, "model_one.bin")),
            SerializedModelBytes(model));
}

TEST(ModelIoTest, SerializedBytesMatchesFileSizeLargeModel) {
  const ItemsetModel model = MineModel(42);
  ASSERT_GT(model.entries().size(), 100u);
  EXPECT_EQ(static_cast<uint64_t>(WrittenFileSize(model, "model_large.bin")),
            SerializedModelBytes(model));
}

TEST(ModelIoTest, SerializationIsDeterministic) {
  // Entries live in an unordered map, but the writer emits them in
  // canonical order: equal models must produce byte-identical payloads
  // (checkpoint equivalence tests compare serialized state directly).
  const ItemsetModel model = MineModel(45);
  persistence::Writer a;
  persistence::Writer b;
  SerializeItemsetModel(a, model);
  SerializeItemsetModel(b, model);
  EXPECT_EQ(a.buffer(), b.buffer());

  persistence::Reader r(a.buffer());
  ItemsetModel reloaded;
  DeserializeItemsetModel(r, &reloaded);
  ASSERT_TRUE(r.status().ok()) << r.status();
  persistence::Writer c;
  SerializeItemsetModel(c, reloaded);
  EXPECT_EQ(a.buffer(), c.buffer());
}

TEST(ModelIoTest, ModelIsTinyComparedToData) {
  // §3.2.3: "the space occupied by a model is insignificant when compared
  // to that occupied by the data in each block".
  QuestParams params;
  params.num_transactions = 30000;
  params.num_items = 100;
  params.num_patterns = 50;
  params.avg_transaction_len = 10;
  params.seed = 43;
  QuestGenerator gen(params);
  auto block = std::make_shared<TransactionBlock>(gen.GenerateAll());
  const ItemsetModel model = Apriori({block}, 0.10, params.num_items);
  const uint64_t data_bytes = block->TotalItemOccurrences() * sizeof(Item);
  EXPECT_LT(SerializedModelBytes(model), data_bytes);
}

// A model entry keeps 63 bits of count: the largest such count loads
// intact, and one past it is rejected instead of silently truncated.
TEST(ModelIoTest, CountOutsideEntryRangeFails) {
  constexpr uint64_t kMaxCount = (uint64_t{1} << 63) - 1;
  const auto payload = [](uint64_t count) {
    persistence::Writer w;
    w.WriteDouble(0.5);
    w.WriteU64(10);  // num_items
    w.WriteU64(1);   // num_transactions
    w.WriteU64(1);   // num_entries
    const std::vector<Item> itemset = {3, 7};
    w.WriteU32Span(itemset);
    w.WriteU64(count);
    w.WriteBool(true);
    return w.buffer();
  };

  const std::string largest = payload(kMaxCount);
  persistence::Reader ok_reader(largest);
  ItemsetModel model;
  DeserializeItemsetModel(ok_reader, &model);
  ASSERT_TRUE(ok_reader.status().ok()) << ok_reader.status();
  EXPECT_EQ(model.CountOf({3, 7}), kMaxCount);
  EXPECT_TRUE(model.IsFrequent({3, 7}));

  const std::string too_large = payload(kMaxCount + 1);
  persistence::Reader bad_reader(too_large);
  ItemsetModel rejected;
  DeserializeItemsetModel(bad_reader, &rejected);
  EXPECT_EQ(bad_reader.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(rejected.entries().empty());
}

TEST(ModelIoTest, MissingFileFails) {
  auto result = ReadItemsetModel("/nonexistent/model.bin");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(ModelIoTest, TruncatedValidModelFails) {
  // A real serialized model chopped mid-stream must be rejected, not read
  // back as a smaller model.
  const ItemsetModel model = MineModel(44);
  const std::string path = ::testing::TempDir() + "/truncated_model.bin";
  ASSERT_TRUE(WriteItemsetModel(model, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full_size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(full_size, 16);
  ASSERT_EQ(truncate(path.c_str(), full_size - full_size / 3), 0);

  auto result = ReadItemsetModel(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(ModelIoTest, CorruptFileFails) {
  const std::string path = ::testing::TempDir() + "/corrupt_model.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[32] = "not a model";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  auto result = ReadItemsetModel(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace demon
