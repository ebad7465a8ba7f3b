#include "itemsets/prefix_tree.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "common/check.h"

namespace demon {

template <typename List>
void PrefixTree::BuildFrom(const List& itemsets) {
  DEMON_CHECK(itemsets.size() < std::numeric_limits<uint32_t>::max());
  const auto n = static_cast<uint32_t>(itemsets.size());
  Item max_first = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const auto& itemset = itemsets[i];
    DEMON_CHECK_MSG(!itemset.empty() &&
                        std::adjacent_find(itemset.begin(), itemset.end(),
                                           std::greater_equal<Item>()) ==
                            itemset.end(),
                    "counted itemsets must be non-empty and strictly "
                    "increasing");
    max_first = std::max(max_first, itemset.front());
  }

  // Counting-sort the positions on their first item (items are dense, so
  // the buckets span the universe). The sort is stable: positions sharing
  // a first item stay ascending, which is the order the packed keys of
  // the deeper levels sort into.
  std::vector<uint32_t> order(n);
  {
    std::vector<uint32_t> start(size_t{max_first} + 2, 0);
    for (uint32_t i = 0; i < n; ++i) ++start[size_t{itemsets[i].front()} + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (uint32_t i = 0; i < n; ++i) order[start[itemsets[i].front()]++] = i;
  }

  // Level by level, in slot order. The j-th node of the current level
  // owns the positions order[bounds[j], bounds[j + 1]): the itemsets its
  // path is a prefix of. Those of length `depth` end at the node; the
  // rest become its children, keyed by their next item and sorted on the
  // packed key (item << 32 | position). Children are appended in parent
  // order, which is the breadth-first layout.
  item_.assign(1, 0);  // the root
  child_begin_.clear();
  node_of_.resize(n);
  std::vector<uint32_t> bounds = {0, n};
  std::vector<uint32_t> next_order;
  std::vector<uint32_t> next_bounds;
  std::vector<uint64_t> keys;
  uint32_t node = 0;
  for (size_t depth = 0; bounds.size() > 1; ++depth) {
    next_order.clear();
    next_bounds.clear();
    for (size_t j = 0; j + 1 < bounds.size(); ++j, ++node) {
      child_begin_.push_back(static_cast<uint32_t>(item_.size()));
      keys.clear();
      for (uint32_t k = bounds[j]; k < bounds[j + 1]; ++k) {
        const uint32_t i = order[k];
        if (itemsets[i].size() == depth) {
          node_of_[i] = node;
        } else {
          keys.push_back(uint64_t{itemsets[i][depth]} << 32 | i);
        }
      }
      // The root's keys arrive in order from the counting sort.
      if (depth > 0) std::sort(keys.begin(), keys.end());
      for (const uint64_t key : keys) {
        const auto item = static_cast<Item>(key >> 32);
        if (item_.size() == child_begin_.back() || item_.back() != item) {
          item_.push_back(item);
          next_bounds.push_back(static_cast<uint32_t>(next_order.size()));
        }
        next_order.push_back(static_cast<uint32_t>(key));
      }
    }
    next_bounds.push_back(static_cast<uint32_t>(next_order.size()));
    order.swap(next_order);
    bounds.swap(next_bounds);
  }
  child_begin_.push_back(static_cast<uint32_t>(item_.size()));
  root_child_.assign(size_t{max_first} + 1, 0);
  for (uint32_t c = child_begin_[0]; c < child_begin_[1]; ++c) {
    root_child_[item_[c]] = c;
  }
}

void PrefixTree::Build(const std::vector<Itemset>& itemsets) {
  BuildFrom(itemsets);
}

void PrefixTree::Build(const FlatItemsets& itemsets) { BuildFrom(itemsets); }

void PrefixTree::CountTransaction(const Transaction& transaction,
                                  std::span<uint64_t> counts,
                                  uint64_t weight) const {
  DEMON_CHECK(counts.size() == item_.size());
  const auto& items = transaction.items();
  // The root's children are looked up by item instead of merge-walked:
  // the root has a child per distinct first item, hundreds on Quest data,
  // against a transaction's few dozen items. Items are sorted, so the
  // first one past the table ends the walk.
  const Item* end = items.data() + items.size();
  for (const Item* p = items.data(); p != end && *p < root_child_.size();
       ++p) {
    const uint32_t child = root_child_[*p];
    if (child != 0) CountRecursive(child, p + 1, end, counts.data(), weight);
  }
}

void PrefixTree::CountRecursive(uint32_t node, const Item* pos,
                                const Item* end, uint64_t* counts,
                                uint64_t weight) const {
  counts[node] += weight;
  uint32_t c = child_begin_[node];
  const uint32_t cend = child_begin_[node + 1];
  // Merge-walk the contiguous child slots (items strictly increasing)
  // against the sorted remaining items.
  const Item* p = pos;
  while (c < cend && p != end) {
    const Item child_item = item_[c];
    if (child_item < *p) {
      ++c;
    } else if (*p < child_item) {
      ++p;
    } else {
      CountRecursive(c, p + 1, end, counts, weight);
      ++c;
      ++p;
    }
  }
}

}  // namespace demon
