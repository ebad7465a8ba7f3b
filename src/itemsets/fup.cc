#include "itemsets/fup.h"

#include <algorithm>

#include "common/check.h"
#include "common/telemetry.h"
#include "itemsets/apriori.h"
#include "itemsets/candidate_generation.h"
#include "itemsets/support_counting.h"

namespace demon {

namespace {

// Counts `itemsets` over one block with PT-Scan.
std::vector<uint64_t> CountOver(const std::vector<Itemset>& itemsets,
                                const TransactionBlock& block) {
  // Non-owning alias: the counting kernel only reads the block.
  auto alias = std::shared_ptr<const TransactionBlock>(
      std::shared_ptr<const TransactionBlock>(), &block);
  return PtScanCount(itemsets, {alias});
}

uint64_t CeilCount(double minsup, uint64_t n) {
  const double exact = minsup * static_cast<double>(n);
  uint64_t count = static_cast<uint64_t>(exact);
  if (static_cast<double>(count) < exact) ++count;
  return count == 0 ? 1 : count;
}

}  // namespace

FupMaintainer::FupMaintainer(double minsup, size_t num_items)
    : minsup_(minsup), num_items_(num_items), model_(minsup, num_items) {
  DEMON_CHECK(minsup_ > 0.0 && minsup_ < 1.0);
}

void FupMaintainer::AddBlock(std::shared_ptr<const TransactionBlock> block) {
  DEMON_CHECK(block != nullptr);
  last_stats_ = Stats{};
  telemetry::ScopedTimer timer;

  if (blocks_.empty()) {
    blocks_.push_back(std::move(block));
    model_ = Apriori(blocks_, minsup_, num_items_);
    // FUP keeps only the frequent itemsets: drop the border Apriori built.
    std::vector<Itemset> border = model_.NegativeBorder();
    for (const Itemset& itemset : border) {
      model_.mutable_entries()->erase(itemset);
    }
    last_stats_.seconds = timer.Stop();
    return;
  }

  const TransactionBlock& db = *block;
  const uint64_t new_total = model_.num_transactions() + db.size();
  const uint64_t min_count = CeilCount(minsup_, new_total);
  const uint64_t min_count_db = CeilCount(minsup_, db.size());
  auto& entries = *model_.mutable_entries();

  // Old frequent itemsets grouped by size, for the level-wise pass.
  std::vector<std::vector<Itemset>> old_by_size;
  for (const auto& [itemset, entry] : entries) {
    if (old_by_size.size() < itemset.size()) old_by_size.resize(itemset.size());
    old_by_size[itemset.size() - 1].push_back(itemset);
  }

  ItemsetMap<uint64_t> new_counts;   // the updated L under construction
  std::vector<Itemset> level_prev;   // L_{k-1} of the new model

  for (size_t k = 1;; ++k) {
    std::vector<Itemset> winners;

    // (a) Re-validate old frequent k-itemsets with one scan of db.
    if (k <= old_by_size.size() && !old_by_size[k - 1].empty()) {
      const auto& old_level = old_by_size[k - 1];
      const std::vector<uint64_t> db_counts = CountOver(old_level, db);
      for (size_t i = 0; i < old_level.size(); ++i) {
        const uint64_t total =
            entries.find(old_level[i])->second.count + db_counts[i];
        if (total >= min_count) {
          new_counts[old_level[i]] = total;
          winners.push_back(old_level[i]);
        }
      }
    }

    // (b) New candidates from the updated L_{k-1}, minus already-known
    // winners; FUP's pruning lemma: they must be frequent within db.
    std::vector<Itemset> candidates;
    if (k == 1) {
      // New frequent 1-itemsets can only be items frequent in db that
      // were not frequent before.
      for (Item item = 0; item < num_items_; ++item) {
        const Itemset single{item};
        if (new_counts.count(single) == 0 && !entries.contains(single)) {
          candidates.push_back(single);
        }
      }
    } else {
      auto is_frequent_new = [&new_counts](const Itemset& s) {
        return new_counts.count(s) > 0;
      };
      for (Itemset& candidate :
           GenerateCandidates(level_prev, is_frequent_new)) {
        if (new_counts.count(candidate) == 0 &&
            !entries.contains(candidate)) {
          candidates.push_back(std::move(candidate));
        }
      }
    }

    if (!candidates.empty()) {
      const std::vector<uint64_t> db_counts = CountOver(candidates, db);
      std::vector<Itemset> survivors;
      std::vector<uint64_t> survivor_db_counts;
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (db_counts[i] >= min_count_db) {
          survivors.push_back(std::move(candidates[i]));
          survivor_db_counts.push_back(db_counts[i]);
        }
      }
      if (!survivors.empty()) {
        // The expensive step FUP is known for: scan the old database.
        ++last_stats_.old_db_scans;
        last_stats_.candidates_counted += survivors.size();
        const std::vector<uint64_t> old_counts =
            PtScanCount(survivors, blocks_);
        for (size_t i = 0; i < survivors.size(); ++i) {
          const uint64_t total = old_counts[i] + survivor_db_counts[i];
          if (total >= min_count) {
            new_counts[survivors[i]] = total;
            winners.push_back(survivors[i]);
          }
        }
      }
    }

    if (winners.empty()) break;
    level_prev = std::move(winners);
  }

  // Install the new model.
  blocks_.push_back(std::move(block));
  ItemsetModel updated(minsup_, num_items_);
  updated.set_num_transactions(new_total);
  ItemsetTable& updated_entries = *updated.mutable_entries();
  size_t items = 0;
  for (const auto& [itemset, count] : new_counts) items += itemset.size();
  updated_entries.ReserveMore(new_counts.size(), items);
  for (const auto& [itemset, count] : new_counts) {
    updated_entries.emplace(itemset, ItemsetModel::Entry{count, true});
  }
  model_ = std::move(updated);
  last_stats_.seconds = timer.Stop();
}

}  // namespace demon
