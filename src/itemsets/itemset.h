#ifndef DEMON_ITEMSETS_ITEMSET_H_
#define DEMON_ITEMSETS_ITEMSET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "data/types.h"

namespace demon {

/// An itemset: a sorted, duplicate-free vector of items. All functions in
/// this module require the sorted representation.
using Itemset = std::vector<Item>;

/// \brief FNV-1a style hash over the items, usable as the hash functor of
/// unordered containers keyed by Itemset.
struct ItemsetHash {
  size_t operator()(const Itemset& itemset) const {
    uint64_t h = 1469598103934665603ULL;
    for (Item item : itemset) {
      h ^= item;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

using ItemsetSet = std::unordered_set<Itemset, ItemsetHash>;

template <typename V>
using ItemsetMap = std::unordered_map<Itemset, V, ItemsetHash>;

/// \brief A non-owning view of a sorted itemset stored elsewhere — in an
/// ItemsetTable's key arena or a FlatItemsets list. Converts to an owning
/// Itemset on demand; std::span<const Item> constructs from it implicitly.
class ItemsetView {
 public:
  ItemsetView() = default;
  ItemsetView(const Item* data, size_t size) : data_(data), size_(size) {}

  const Item* begin() const { return data_; }
  const Item* end() const { return data_ + size_; }
  const Item* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Item operator[](size_t i) const { return data_[i]; }
  Item front() const { return data_[0]; }
  Item back() const { return data_[size_ - 1]; }

  // Implicit so that callers keep a view as an Itemset (push_back, set
  // insert) without spelling the copy.
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator Itemset() const { return Itemset(begin(), end()); }

 private:
  const Item* data_ = nullptr;
  size_t size_ = 0;
};

/// \brief A list of itemsets stored back to back: itemset `i` is
/// `items[offsets[i], offsets[i + 1])`, so `offsets` holds one entry more
/// than the list (or none for an empty list).
class FlatItemsets {
 public:
  FlatItemsets(std::span<const Item> items, std::span<const uint32_t> offsets)
      : items_(items), offsets_(offsets) {}

  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  ItemsetView operator[](size_t i) const {
    return ItemsetView(items_.data() + offsets_[i],
                       offsets_[i + 1] - offsets_[i]);
  }

 private:
  std::span<const Item> items_;
  std::span<const uint32_t> offsets_;
};

/// \brief True if sorted itemset `a` is a subset of sorted itemset `b`.
inline bool IsSubset(const Itemset& a, const Itemset& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// \brief Returns the union of two sorted itemsets (sorted).
inline Itemset Union(const Itemset& a, const Itemset& b) {
  Itemset out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// \brief Writes `itemset` with the element at `index` removed into `*out`
/// — the (k-1)-subset used for Apriori pruning. Reuses `*out`'s capacity,
/// so subset probes in a loop do not allocate.
inline void AssignWithoutIndex(std::span<const Item> itemset, size_t index,
                               Itemset* out) {
  out->assign(itemset.begin(), itemset.begin() + index);
  out->insert(out->end(), itemset.begin() + index + 1, itemset.end());
}

/// \brief Renders "{1, 5, 9}" for logs and experiment output.
inline std::string ToString(const Itemset& itemset) {
  std::string out = "{";
  for (size_t i = 0; i < itemset.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(itemset[i]);
  }
  out += "}";
  return out;
}

/// \brief Lexicographic comparison used to canonically order itemset lists
/// in tests and candidate generation (first by size is NOT implied).
struct ItemsetLess {
  bool operator()(const Itemset& a, const Itemset& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

}  // namespace demon

#endif  // DEMON_ITEMSETS_ITEMSET_H_
