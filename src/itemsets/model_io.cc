#include "itemsets/model_io.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "persistence/file_header.h"

namespace demon {

namespace {

constexpr uint32_t kModelFormatVersion = 1;

}  // namespace

void SerializeItemsetModel(persistence::Writer& w, const ItemsetModel& model) {
  w.WriteDouble(model.minsup());
  w.WriteU64(model.num_items());
  w.WriteU64(model.num_transactions());
  w.WriteU64(model.entries().size());
  // Canonical order: the table iterates in insertion order, which differs
  // between equal models built along different paths, but checkpoints of
  // equal models must be byte-equal for the restore-equivalence tests.
  std::vector<ItemsetTable::const_iterator> sorted;
  sorted.reserve(model.entries().size());
  for (auto it = model.entries().begin(); it != model.entries().end(); ++it) {
    sorted.push_back(it);
  }
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    const ItemsetView x = a->first;
    const ItemsetView y = b->first;
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                        y.end());
  });
  for (const auto& it : sorted) {
    const auto [itemset, entry] = *it;
    w.WriteU32Span(itemset);
    w.WriteU64(entry.count);
    w.WriteBool(entry.frequent);
  }
}

void DeserializeItemsetModel(persistence::Reader& r, ItemsetModel* model) {
  const double minsup = r.ReadDouble();
  const uint64_t num_items = r.ReadU64();
  const uint64_t num_transactions = r.ReadU64();
  const size_t num_entries = r.ReadLength(sizeof(uint64_t) + 1);
  if (!r.ok()) return;
  if (!(minsup > 0.0 && minsup < 1.0)) {
    r.Fail("model minsup outside (0, 1)");
    return;
  }
  ItemsetModel loaded(minsup, num_items);
  loaded.set_num_transactions(num_transactions);
  ItemsetTable& entries = *loaded.mutable_entries();
  // The entry count is known; the key items are not (every itemset holds
  // at least one), so the arena is trimmed once everything is read.
  entries.ReserveMore(num_entries, num_entries);
  for (size_t e = 0; e < num_entries; ++e) {
    const Itemset itemset = r.ReadU32Vector();
    const uint64_t count = r.ReadU64();
    const bool frequent = r.ReadBool();
    if (!r.ok()) return;
    if (count >= uint64_t{1} << 63) {
      // Entry keeps 63 bits of count; no real count comes near it.
      r.Fail("model entry count out of range");
      return;
    }
    entries.emplace(itemset, ItemsetModel::Entry{count, frequent});
  }
  entries.Compact();
  *model = std::move(loaded);
}

void SerializeItemsetModel(persistence::Writer& w,
                           const FrozenItemsetModel& model) {
  w.WriteDouble(model.minsup());
  w.WriteU64(model.num_items());
  w.WriteU64(model.num_transactions());
  const uint64_t num_entries = model.size();
  w.WriteU64(num_entries);
  // ForEachEntry walks in the canonical (lexicographic) order.
  const uint64_t min_count = model.MinCount();
  uint64_t written = 0;
  model.ForEachEntry([&](std::span<const Item> itemset, uint64_t count) {
    w.WriteU32Span(itemset);
    w.WriteU64(count);
    w.WriteBool(count >= min_count);
    ++written;
  });
  DEMON_CHECK(written == num_entries);
}

void DeserializeItemsetModel(persistence::Reader& r,
                             FrozenItemsetModel* model) {
  ItemsetModel loaded;
  DeserializeItemsetModel(r, &loaded);
  if (!r.ok()) return;
  Result<FrozenItemsetModel> frozen = FrozenItemsetModel::Freeze(loaded);
  if (!frozen.ok()) {
    r.Fail(frozen.status().message());
    return;
  }
  *model = std::move(frozen).value();
}

Status WriteItemsetModel(const ItemsetModel& model, const std::string& path) {
  persistence::Writer payload;
  SerializeItemsetModel(payload, model);
  return persistence::WritePayloadFile(path, persistence::FormatId::kItemsetModel,
                                       kModelFormatVersion, payload);
}

Result<ItemsetModel> ReadItemsetModel(const std::string& path) {
  DEMON_ASSIGN_OR_RETURN(
      const std::string payload,
      persistence::ReadPayloadFile(path, persistence::FormatId::kItemsetModel,
                                   kModelFormatVersion));
  persistence::Reader r(payload);
  ItemsetModel model;
  DeserializeItemsetModel(r, &model);
  DEMON_RETURN_NOT_OK(r.status());
  if (!r.AtEnd()) {
    return Status::DataLoss("trailing bytes after model payload: " + path);
  }
  return model;
}

uint64_t SerializedModelBytes(const ItemsetModel& model) {
  // FileHeader + (minsup, num_items, num_transactions, num_entries) +
  // per entry: length-prefixed items + count + frequent byte. Must stay in
  // lockstep with SerializeItemsetModel; model_io_test asserts predicted ==
  // written for empty, single-itemset, and large models.
  uint64_t bytes = persistence::FileHeader::kBytes + 4 * sizeof(uint64_t);
  for (const auto& [itemset, entry] : model.entries()) {
    bytes += sizeof(uint64_t) + itemset.size() * sizeof(Item) +
             sizeof(uint64_t) + 1;
  }
  return bytes;
}

}  // namespace demon
