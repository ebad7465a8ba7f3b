#include "itemsets/frozen_itemset_model.h"

#include <functional>
#include <numeric>
#include <string>
#include <utility>

namespace demon {

namespace {

Status NotAprioriShaped(const std::string& why) {
  return Status::InvalidArgument("model cannot be frozen: " + why);
}

/// Sorts the k-item rows of `keys`/`counts` lexicographically.
void SortRows(size_t k, std::vector<Item>* keys,
              std::vector<uint32_t>* counts) {
  const auto row = [&](size_t i) { return keys->data() + i * k; };
  std::vector<size_t> order(counts->size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(row(a), row(a) + k, row(b),
                                        row(b) + k);
  });
  std::vector<Item> sorted_keys;
  std::vector<uint32_t> sorted_counts;
  sorted_keys.reserve(keys->size());
  sorted_counts.reserve(counts->size());
  for (const size_t i : order) {
    sorted_keys.insert(sorted_keys.end(), row(i), row(i) + k);
    sorted_counts.push_back((*counts)[i]);
  }
  *keys = std::move(sorted_keys);
  *counts = std::move(sorted_counts);
}

}  // namespace

Result<FrozenItemsetModel> FrozenItemsetModel::Freeze(
    const ItemsetModel& model) {
  FrozenItemsetModel frozen;
  frozen.minsup_ = model.minsup();
  frozen.num_items_ = model.num_items();
  frozen.num_transactions_ = model.num_transactions();
  frozen.min_count_ = model.MinCount();
  const ItemsetTable& entries = model.entries();
  if (entries.empty()) return frozen;

  const size_t num_items = model.num_items();
  const uint64_t total = model.num_transactions();
  const uint64_t min_count = frozen.min_count_;
  if (total > UINT32_MAX) {
    return NotAprioriShaped(std::to_string(total) +
                            " transactions overflow 32-bit counts");
  }
  // Checked before anything is sized by num_items, which a loaded model
  // takes from its file.
  if (entries.size() < num_items) {
    return NotAprioriShaped("tracks " + std::to_string(entries.size()) +
                            " itemsets, fewer than its " +
                            std::to_string(num_items) + " items");
  }

  // Pass 1: check every entry, fill level 1 and size the other levels.
  frozen.item_counts_.assign(num_items, 0);
  size_t num_singletons = 0;
  size_t num_pairs = 0;
  std::vector<size_t> level_sizes;
  for (const auto& [key, entry] : entries) {
    if (key.empty() ||
        std::adjacent_find(key.begin(), key.end(),
                           std::greater_equal<Item>()) != key.end() ||
        key.back() >= num_items) {
      return NotAprioriShaped("key " + ToString(key) +
                              " is empty, unsorted or outside the universe "
                              "of " + std::to_string(num_items) + " items");
    }
    if (entry.count > total) {
      return NotAprioriShaped(ToString(key) + " has count " +
                              std::to_string(entry.count) + " above " +
                              std::to_string(total) + " transactions");
    }
    if (entry.frequent != (entry.count >= min_count)) {
      return NotAprioriShaped(ToString(key) + " has count " +
                              std::to_string(entry.count) + " against " +
                              "MinCount() " + std::to_string(min_count) +
                              " but frequent=" +
                              std::to_string(entry.frequent));
    }
    if (key.size() == 1) {
      frozen.item_counts_[key[0]] = static_cast<uint32_t>(entry.count);
      ++num_singletons;
    } else if (key.size() == 2) {
      ++num_pairs;
    } else {
      if (level_sizes.size() < key.size() - 2) {
        level_sizes.resize(key.size() - 2, 0);
      }
      ++level_sizes[key.size() - 3];
    }
  }
  if (num_singletons != num_items) {
    return NotAprioriShaped("tracks " + std::to_string(num_singletons) +
                            " of " + std::to_string(num_items) + " items");
  }

  frozen.rank_.assign(num_items, kNotFrequent);
  for (Item item = 0; item < num_items; ++item) {
    if (frozen.item_counts_[item] >= min_count) {
      frozen.rank_[item] = static_cast<uint32_t>(frozen.frequent_items_.size());
      frozen.frequent_items_.push_back(item);
    }
  }
  frozen.frequent_items_.shrink_to_fit();
  const size_t f = frozen.frequent_items_.size();
  // Keys are unique, so once every tracked pair is a frequent-item pair,
  // C(F, 2) of them fill the triangle.
  if (num_pairs != (f == 0 ? 0 : f * (f - 1) / 2)) {
    return NotAprioriShaped("level 2 holds " + std::to_string(num_pairs) +
                            " pairs, not the pairs of " + std::to_string(f) +
                            " frequent items");
  }

  // Pass 2: fill level 2 and the levels above it.
  frozen.pair_counts_.assign(num_pairs, 0);
  frozen.levels_.resize(level_sizes.size());
  for (size_t level = 0; level < level_sizes.size(); ++level) {
    frozen.levels_[level].keys.reserve(level_sizes[level] * (level + 3));
    frozen.levels_[level].counts.reserve(level_sizes[level]);
  }
  for (const auto& [key, entry] : entries) {
    const auto count = static_cast<uint32_t>(entry.count);
    if (key.size() == 2) {
      const uint32_t r = frozen.rank_[key[0]];
      const uint32_t s = frozen.rank_[key[1]];
      if (r == kNotFrequent || s == kNotFrequent) {
        return NotAprioriShaped("pair " + ToString(key) +
                                " has an infrequent item");
      }
      frozen.pair_counts_[frozen.PairIndex(r, s)] = count;
    } else if (key.size() > 2) {
      Level& level = frozen.levels_[key.size() - 3];
      level.keys.insert(level.keys.end(), key.begin(), key.end());
      level.counts.push_back(count);
    }
  }
  for (size_t level = 0; level < frozen.levels_.size(); ++level) {
    Level& rows = frozen.levels_[level];
    SortRows(level + 3, &rows.keys, &rows.counts);
  }

  // Every k >= 3 itemset extends a frequent (k-1)-itemset, which is what
  // ForEachEntry's walk relies on to reach it.
  for (size_t level = 0; level < frozen.levels_.size(); ++level) {
    const Level& rows = frozen.levels_[level];
    const size_t k = level + 3;
    for (size_t row = 0; row < rows.counts.size(); ++row) {
      const std::span<const Item> prefix(rows.keys.data() + row * k, k - 1);
      const std::optional<uint64_t> count = frozen.Find(prefix);
      if (!count.has_value() || *count < min_count) {
        const Itemset key(rows.keys.data() + row * k,
                          rows.keys.data() + (row + 1) * k);
        return NotAprioriShaped(ToString(key) +
                                " extends an untracked or infrequent prefix");
      }
    }
  }
  return frozen;
}

std::optional<uint64_t> FrozenItemsetModel::Find(
    std::span<const Item> itemset) const {
  switch (itemset.size()) {
    case 0:
      return std::nullopt;
    case 1:
      if (itemset[0] >= item_counts_.size()) return std::nullopt;
      return item_counts_[itemset[0]];
    case 2: {
      const Item a = itemset[0];
      const Item b = itemset[1];
      if (a >= b || b >= rank_.size() || rank_[a] == kNotFrequent ||
          rank_[b] == kNotFrequent) {
        return std::nullopt;
      }
      return pair_counts_[PairIndex(rank_[a], rank_[b])];
    }
    default: {
      const size_t level = itemset.size() - 3;
      if (level >= levels_.size()) return std::nullopt;
      const size_t row = FindRow(level, itemset);
      if (row == levels_[level].counts.size()) return std::nullopt;
      return levels_[level].counts[row];
    }
  }
}

size_t FrozenItemsetModel::FindRow(size_t level,
                                   std::span<const Item> key) const {
  const Level& rows = levels_[level];
  const size_t k = key.size();
  const auto row = [&](size_t i) { return rows.keys.data() + i * k; };
  size_t lo = 0;
  size_t hi = rows.counts.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (std::lexicographical_compare(row(mid), row(mid) + k, key.begin(),
                                     key.end())) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < rows.counts.size() && std::equal(key.begin(), key.end(), row(lo))) {
    return lo;
  }
  return rows.counts.size();
}

size_t FrozenItemsetModel::size() const {
  size_t n = item_counts_.size() + pair_counts_.size();
  for (const Level& level : levels_) n += level.counts.size();
  return n;
}

std::vector<Itemset> FrozenItemsetModel::FrequentItemsets() const {
  std::vector<Itemset> out;
  ForEachEntry([&](std::span<const Item> itemset, uint64_t count) {
    if (count >= min_count_) out.emplace_back(itemset.begin(), itemset.end());
  });
  return out;
}

size_t FrozenItemsetModel::MemoryBytes() const {
  size_t bytes = (item_counts_.capacity() + rank_.capacity() +
                  frequent_items_.capacity() + pair_counts_.capacity()) *
                     sizeof(uint32_t) +
                 levels_.capacity() * sizeof(Level);
  for (const Level& level : levels_) {
    bytes += level.keys.capacity() * sizeof(Item) +
             level.counts.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace demon
