#ifndef DEMON_ITEMSETS_SUPPORT_COUNTING_H_
#define DEMON_ITEMSETS_SUPPORT_COUNTING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/block.h"
#include "itemsets/itemset.h"
#include "tidlist/tidlist_store.h"

namespace demon {

/// How the update phase counts the supports of new candidate itemsets over
/// the accumulated (selected) data — the axis Figures 2 and 4-7 compare.
enum class CountingStrategy {
  /// BORDERS' counting: organize the candidates in a prefix tree and scan
  /// every transaction of the dataset [Mue95].
  kPtScan,
  /// ECUT (paper §3.1.1): intersect the per-block TID-lists of the
  /// candidate's items; only the relevant fraction of the data is read.
  kEcut,
  /// ECUT+ (paper §3.1.1): like ECUT but covers the candidate with
  /// materialized 2-itemset TID-lists where available.
  kEcutPlus,
};

const char* CountingStrategyName(CountingStrategy strategy);

/// \brief Metrics of one counting call, mirroring the paper's analysis of
/// "amount of data fetched".
struct CountingStats {
  /// TID slots (uint32 entries) read from lists, or item occurrences
  /// touched by the scan for PT-Scan.
  uint64_t slots_fetched = 0;
  /// Number of TID-lists opened (0 for PT-Scan).
  uint64_t lists_opened = 0;
};

// The functions below are the sequential convenience API; they run a
// one-shot CountingContext (see itemsets/counting_context.h) without a
// thread pool. Maintainers on the hot path hold a CountingContext instead,
// which can fan work out over a shared ThreadPool with bit-identical
// results.

/// \brief PT-Scan: counts `itemsets` with one pass over all transactions of
/// `blocks` using a prefix tree. Returns absolute counts, parallel to
/// `itemsets`.
std::vector<uint64_t> PtScanCount(
    const std::vector<Itemset>& itemsets,
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    CountingStats* stats = nullptr);

/// \brief ECUT / ECUT+: counts `itemsets` by intersecting per-block
/// TID-lists from `store`. With `use_pair_lists`, each itemset is first
/// greedily covered by materialized 2-itemset lists (smallest lists first),
/// falling back to item lists for uncovered items — the ECUT+ counting rule.
std::vector<uint64_t> EcutCount(const std::vector<Itemset>& itemsets,
                                const TidListStore& store,
                                bool use_pair_lists,
                                CountingStats* stats = nullptr);

/// \brief Dispatches on `strategy`. PT-Scan uses `blocks`; ECUT variants
/// use `store`.
std::vector<uint64_t> CountSupports(
    CountingStrategy strategy, const std::vector<Itemset>& itemsets,
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    const TidListStore& store, CountingStats* stats = nullptr);

}  // namespace demon

#endif  // DEMON_ITEMSETS_SUPPORT_COUNTING_H_
