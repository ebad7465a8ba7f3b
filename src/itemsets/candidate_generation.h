#ifndef DEMON_ITEMSETS_CANDIDATE_GENERATION_H_
#define DEMON_ITEMSETS_CANDIDATE_GENERATION_H_

#include <vector>

#include "itemsets/itemset.h"

namespace demon {

/// \brief Apriori candidate generation [AMS+96]: joins the (k-1)-itemsets
/// in `frequent_prev` pairwise on their common (k-2)-prefix and prunes
/// candidates that have an infrequent (k-1)-subset.
///
/// `frequent_prev` must contain sorted itemsets all of the same size k-1
/// (k >= 2). `is_frequent` answers membership of (k-1)-itemsets in the
/// frequent set (typically a closure over an ItemsetSet or ItemsetModel).
/// The result is in lexicographic order without duplicates.
template <typename FrequentPredicate>
std::vector<Itemset> GenerateCandidates(std::vector<Itemset> frequent_prev,
                                        FrequentPredicate is_frequent) {
  std::vector<Itemset> candidates;
  if (frequent_prev.empty()) return candidates;
  std::sort(frequent_prev.begin(), frequent_prev.end(), ItemsetLess());

  Itemset subset;
  // Join step: pairs sharing the first k-2 items.
  for (size_t i = 0; i < frequent_prev.size(); ++i) {
    for (size_t j = i + 1; j < frequent_prev.size(); ++j) {
      const Itemset& a = frequent_prev[i];
      const Itemset& b = frequent_prev[j];
      if (!std::equal(a.begin(), a.end() - 1, b.begin())) break;
      Itemset candidate = a;
      candidate.push_back(b.back());

      // Prune step: every (k-1)-subset must be frequent. Subsets formed by
      // dropping the last two positions are `a` and `b` themselves.
      bool keep = true;
      for (size_t drop = 0; drop + 2 < candidate.size() && keep; ++drop) {
        AssignWithoutIndex(candidate, drop, &subset);
        keep = is_frequent(subset);
      }
      if (keep) candidates.push_back(std::move(candidate));
    }
  }
  return candidates;
}

/// \brief All 2-candidates from frequent 1-itemsets (every pair qualifies).
std::vector<Itemset> GeneratePairCandidates(
    const std::vector<Item>& frequent_items);

}  // namespace demon

#endif  // DEMON_ITEMSETS_CANDIDATE_GENERATION_H_
