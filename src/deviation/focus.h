#ifndef DEMON_DEVIATION_FOCUS_H_
#define DEMON_DEVIATION_FOCUS_H_

#include <memory>
#include <vector>

#include "clustering/birch.h"
#include "data/block.h"
#include "itemsets/frozen_itemset_model.h"

namespace demon {

/// \brief Outcome of a FOCUS comparison between two datasets
/// ([GGRL99a], used by DEMON §4 as the block similarity measure).
struct DeviationResult {
  /// Normalized aggregate measure difference over the common structural
  /// component, in [0, 1]: 0 = identical measures, 1 = disjoint.
  double deviation = 0.0;
  /// Statistical significance of the deviation: the confidence with which
  /// "both blocks come from the same generating process" is rejected
  /// (1 - p-value of a chi-square homogeneity test over the regions).
  /// The paper reports e.g. "as high as 99%" for the anomalous block.
  double significance = 0.0;
  /// Regions in the greatest common refinement.
  size_t num_regions = 0;
  /// Whether computing the missing measures required scanning the blocks
  /// (FOCUS needs at most one scan of each dataset; none when the two
  /// structural components coincide — the reason similar blocks compare
  /// fast in Figure 10).
  bool scanned_blocks = false;
};

/// \brief Folds two per-region count vectors into a DeviationResult:
/// normalized aggregate measure difference plus chi-square significance.
/// Shared by every FOCUS instantiation (itemsets, clusters, decision
/// trees). `n1`/`n2` are the dataset sizes.
DeviationResult SummarizeRegionCounts(const std::vector<double>& counts1,
                                      double n1,
                                      const std::vector<double>& counts2,
                                      double n2, bool scanned);

/// \brief FOCUS instantiated with frequent-itemset models.
///
/// Structural component: the set of frequent itemsets ("interesting
/// regions"); measure: their supports. The greatest common refinement of
/// two models is the union of their itemsets; measures missing on one side
/// are filled in with one scan of that block. Deviation is the normalized
/// sum of absolute support differences; significance comes from a
/// chi-square homogeneity test over the region counts (our stand-in for
/// FOCUS's bootstrap qualification — see DESIGN.md).
class FocusItemsets {
 public:
  struct Options {
    double minsup = 0.01;
    size_t num_items = 1000;
  };

  explicit FocusItemsets(const Options& options) : options_(options) {}

  /// Mines both blocks and compares them. Convenience for one-off use.
  DeviationResult Compare(const TransactionBlock& d1,
                          const TransactionBlock& d2) const;

  /// Compares two blocks whose models were already mined (the cached-model
  /// path the pattern detector uses; models must come from MineModel at
  /// these options). Scans a block only for itemsets frequent in the other
  /// model but untracked in its own.
  DeviationResult CompareWithModels(const TransactionBlock& d1,
                                    const FrozenItemsetModel& m1,
                                    const TransactionBlock& d2,
                                    const FrozenItemsetModel& m2) const;

  /// Mines the model of one block — frequent itemsets and negative border
  /// with counts — and freezes it, so callers can cache it across many
  /// comparisons.
  FrozenItemsetModel MineModel(const TransactionBlock& block) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

/// \brief FOCUS instantiated with cluster models.
///
/// Structural component: the union of both models' clusters, treated as a
/// Voronoi partition by their centroids; measure: the fraction of a
/// block's points falling in each cell (one scan per block). Deviation
/// and significance as for itemsets.
class FocusClusters {
 public:
  struct Options {
    BirchOptions birch;
    size_t dim = 2;
  };

  explicit FocusClusters(const Options& options) : options_(options) {}

  DeviationResult Compare(const PointBlock& d1, const PointBlock& d2) const;

  DeviationResult CompareWithModels(const PointBlock& d1,
                                    const ClusterModel& m1,
                                    const PointBlock& d2,
                                    const ClusterModel& m2) const;

  ClusterModel MineModel(const PointBlock& block) const;

 private:
  Options options_;
};

}  // namespace demon

#endif  // DEMON_DEVIATION_FOCUS_H_
