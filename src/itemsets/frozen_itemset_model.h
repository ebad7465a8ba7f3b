#ifndef DEMON_ITEMSETS_FROZEN_ITEMSET_MODEL_H_
#define DEMON_ITEMSETS_FROZEN_ITEMSET_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "itemsets/itemset.h"
#include "itemsets/itemset_model.h"

namespace demon {

/// \brief A read-only copy of a mined ItemsetModel — the same L ∪ NB- with
/// the same counts — laid out by level as dense count arrays. FOCUS's
/// pattern detector caches one per block (paper §4) and never updates it.
///
/// The layout follows the shape Apriori gives a model (§3.1.1): level 1
/// tracks every item of the universe, and level 2 tracks exactly the pairs
/// of frequent items, since every such pair is a candidate and is either
/// frequent or on the negative border. So:
///   - level 1 is one count per item;
///   - level 2 is one triangular count array over the pairs of frequent
///     items, addressed through an item -> frequent-rank table;
///   - each level k >= 3 is a lexicographically sorted array of k-item
///     keys with a parallel count array, searched by binary search.
/// Counts are uint32_t (a block's transaction total must stay below 2^32)
/// and the frequent flag is not stored: it is `count >= MinCount()`. On a
/// 1000-item block whose level 2 is 472k pairs this costs about 4 bytes per
/// tracked itemset, against about 29 in an ItemsetTable.
class FrozenItemsetModel {
 public:
  /// The empty model: tracks nothing.
  FrozenItemsetModel() = default;

  /// Copies `model` into the frozen layout. Fails with InvalidArgument
  /// unless the model has the Apriori shape: keys sorted and inside the
  /// universe; on a non-empty model every item tracked; level 2 exactly
  /// the frequent-item pairs; every k >= 3 key's (k-1)-prefix tracked and
  /// frequent; every frequent flag equal to `count >= MinCount()`; every
  /// count at most num_transactions, which is below 2^32.
  [[nodiscard]] static Result<FrozenItemsetModel> Freeze(
      const ItemsetModel& model);

  double minsup() const { return minsup_; }
  size_t num_items() const { return num_items_; }
  uint64_t num_transactions() const { return num_transactions_; }
  /// The source model's MinCount().
  uint64_t MinCount() const { return min_count_; }

  /// The count of a sorted itemset if it is tracked (frequent or border);
  /// nullopt if it is not — as ItemsetModel's Contains() and CountOf().
  std::optional<uint64_t> Find(std::span<const Item> itemset) const;

  /// Tracked itemsets.
  size_t size() const;

  /// The frequent itemsets, in lexicographic order.
  std::vector<Itemset> FrequentItemsets() const;

  /// Calls `fn(std::span<const Item> itemset, uint64_t count)` for every
  /// tracked itemset, in lexicographic order (the order in which
  /// SerializeItemsetModel writes a model). A depth-first walk: an
  /// itemset's children (itemsets one item longer that extend it) follow
  /// it, and only frequent itemsets have children.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    std::vector<size_t> cursors(levels_.size(), 0);
    Item pair[2];
    for (Item a = 0; a < item_counts_.size(); ++a) {
      pair[0] = a;
      fn(std::span<const Item>(pair, 1), uint64_t{item_counts_[a]});
      const uint32_t r = rank_[a];
      if (r == kNotFrequent) continue;
      for (uint32_t s = r + 1; s < frequent_items_.size(); ++s) {
        pair[1] = frequent_items_[s];
        const uint64_t count = pair_counts_[PairIndex(r, s)];
        fn(std::span<const Item>(pair, 2), count);
        if (count >= min_count_) {
          VisitChildren(0, std::span<const Item>(pair, 2), &cursors, fn);
        }
      }
    }
  }

  /// Bytes the model holds: the capacities of its arrays.
  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kNotFrequent = UINT32_MAX;

  /// The itemsets of one level k >= 3: row i is
  /// keys[i * k, (i + 1) * k), rows in lexicographic order.
  struct Level {
    std::vector<Item> keys;
    std::vector<uint32_t> counts;
  };

  /// Position of the pair of frequent ranks r < s in pair_counts_: rows
  /// of the upper triangle, row r holding the pairs (r, r+1..F-1).
  size_t PairIndex(uint32_t r, uint32_t s) const {
    const size_t f = frequent_items_.size();
    return r * f - size_t{r} * (r + 1) / 2 + (s - r - 1);
  }

  /// The row of `levels_[level]` equal to `key`, or its number of rows.
  size_t FindRow(size_t level, std::span<const Item> key) const;

  /// Visits the rows of levels_[level] that extend `prefix` (and their
  /// children); `cursors` holds the next unvisited row of every level.
  template <typename Fn>
  void VisitChildren(size_t level, std::span<const Item> prefix,
                     std::vector<size_t>* cursors, Fn& fn) const {
    if (level >= levels_.size()) return;
    const Level& rows = levels_[level];
    const size_t k = level + 3;
    size_t& row = (*cursors)[level];
    while (row < rows.counts.size()) {
      const std::span<const Item> key(rows.keys.data() + row * k, k);
      if (!std::equal(prefix.begin(), prefix.end(), key.begin())) return;
      const uint64_t count = rows.counts[row++];
      fn(key, count);
      if (count >= min_count_) VisitChildren(level + 1, key, cursors, fn);
    }
  }

  double minsup_ = 0.01;
  size_t num_items_ = 0;
  uint64_t num_transactions_ = 0;
  uint64_t min_count_ = 1;
  /// Count per item; empty on a model that tracks nothing.
  std::vector<uint32_t> item_counts_;
  /// Rank of each item among the frequent items (in item order), or
  /// kNotFrequent; sized as item_counts_.
  std::vector<uint32_t> rank_;
  /// The frequent items, in item order: the inverse of rank_.
  std::vector<Item> frequent_items_;
  /// Counts of the frequent-item pairs, indexed by PairIndex().
  std::vector<uint32_t> pair_counts_;
  /// levels_[i] holds the (i + 3)-itemsets.
  std::vector<Level> levels_;
};

}  // namespace demon

#endif  // DEMON_ITEMSETS_FROZEN_ITEMSET_MODEL_H_
