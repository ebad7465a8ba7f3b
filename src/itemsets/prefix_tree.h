#ifndef DEMON_ITEMSETS_PREFIX_TREE_H_
#define DEMON_ITEMSETS_PREFIX_TREE_H_

#include <cstdint>
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
class PrefixTree {
 public:
  /// Rebuilds the tree from `itemsets` with all counts zero. Each itemset
  /// must be non-empty and strictly increasing (checked); the list itself
  /// may be in any order and may hold duplicates, which share one count.
  /// `CountOf(i)` then reports the itemset at position `i` of the list.
  void Build(const std::vector<Itemset>& itemsets);
  /// The same over a flat list (an ItemsetTable's key arena), so a model
  /// counts its itemsets without copying them out.
  void Build(const FlatItemsets& itemsets);

  /// Adds `weight` to the count of every itemset of the tree that is a
  /// subset of the (sorted) transaction.
  void CountTransaction(const Transaction& transaction, uint64_t weight = 1);

  /// Count accumulated for `itemsets[i]` of the last Build.
  uint64_t CountOf(size_t i) const { return counts_[node_of_[i]]; }

  /// Resets all counts to zero (the tree structure is kept).
  void ResetCounts();

 private:
  /// Build over any list whose `itemsets[i]` is a sorted item range.
  template <typename List>
  void BuildFrom(const List& itemsets);
  void CountRecursive(uint32_t node, const Item* pos, const Item* end);

  /// Node storage indexed by BFS slot; slot 0 is the root. The children
  /// of slot n are slots [child_begin_[n], child_begin_[n + 1]) — BFS
  /// assigns child slots in parent order, so one offset array with a
  /// trailing sentinel bounds every range.
  std::vector<Item> item_;
  std::vector<uint32_t> child_begin_;
  /// Transactions reaching each node, i.e. containing the itemset its
  /// path spells.
  std::vector<uint64_t> counts_;
  /// Input position -> the node its itemset ends at.
  std::vector<uint32_t> node_of_;
  /// First item -> the root's child for it, or 0 (the root is never a
  /// child).
  std::vector<uint32_t> root_child_;
  uint64_t weight_ = 1;
};

}  // namespace demon

#endif  // DEMON_ITEMSETS_PREFIX_TREE_H_
