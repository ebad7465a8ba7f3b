#ifndef DEMON_ITEMSETS_PREFIX_TREE_H_
#define DEMON_ITEMSETS_PREFIX_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/transaction.h"
#include "itemsets/itemset.h"

namespace demon {

/// \brief Prefix tree (trie) for counting the supports of a set of
/// itemsets in one scan of the data — the candidate-counting structure of
/// [Mue95] that PT-Scan uses (paper §3.1.1), and the only counting tree of
/// the repository.
///
/// The tree is built once from the candidate list and then counts any
/// number of transactions. Nodes are laid out breadth-first as
/// structure-of-arrays: every node's children occupy one contiguous slot
/// range with strictly increasing items, so the per-transaction descent
/// merge-walks one uint32 array instead of chasing pointers — PT-Scan's
/// hottest loop. The root's children, one per distinct first item, are
/// found through an item-indexed table instead.
///
/// The tree holds structure only. Counts live in a caller-owned array of
/// num_nodes() entries, one per node: the transactions containing the
/// itemset the node's path spells. CountingContext builds one tree per
/// PT-Scan call and lets every shard count into its own array over it.
class PrefixTree {
 public:
  /// Rebuilds the tree from `itemsets`. Each itemset must be non-empty
  /// and strictly increasing (checked); the list itself may be in any
  /// order and may hold duplicates, which end at one node and so share
  /// one count. `CountOf(i, counts)` then reports the itemset at position
  /// `i` of the list.
  void Build(const std::vector<Itemset>& itemsets);
  /// The same over a flat list (an ItemsetTable's key arena), so a model
  /// counts its itemsets without copying them out.
  void Build(const FlatItemsets& itemsets);

  /// Nodes of the tree, the root included: the length of a count array.
  size_t num_nodes() const { return item_.size(); }

  /// Adds `weight` to `counts[n]` for every node n whose itemset is a
  /// subset of the (sorted) transaction. `counts` has num_nodes() entries.
  /// The tree itself is only read, so any number of threads may count
  /// into their own arrays over one tree at once.
  void CountTransaction(const Transaction& transaction,
                        std::span<uint64_t> counts,
                        uint64_t weight = 1) const;

  /// Count of `itemsets[i]` of the last Build in `counts`.
  uint64_t CountOf(size_t i, std::span<const uint64_t> counts) const {
    return counts[node_of_[i]];
  }

 private:
  /// Build over any list whose `itemsets[i]` is a sorted item range.
  template <typename List>
  void BuildFrom(const List& itemsets);
  void CountRecursive(uint32_t node, const Item* pos, const Item* end,
                      uint64_t* counts, uint64_t weight) const;

  /// Node storage indexed by BFS slot; slot 0 is the root. The children
  /// of slot n are slots [child_begin_[n], child_begin_[n + 1]) — BFS
  /// assigns child slots in parent order, so one offset array with a
  /// trailing sentinel bounds every range.
  std::vector<Item> item_;
  std::vector<uint32_t> child_begin_;
  /// Input position -> the node its itemset ends at.
  std::vector<uint32_t> node_of_;
  /// First item -> the root's child for it, or 0 (the root is never a
  /// child).
  std::vector<uint32_t> root_child_;
};

}  // namespace demon

#endif  // DEMON_ITEMSETS_PREFIX_TREE_H_
