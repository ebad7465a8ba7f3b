#include "itemsets/borders.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "itemsets/apriori.h"
#include "itemsets/model_io.h"
#include "persistence/block_codec.h"

namespace demon {

namespace {

/// Store options for a maintainer: the environment (the CI soak hook) is
/// the baseline, explicit BordersOptions fields override it.
TidListStoreOptions StoreOptionsFor(const BordersOptions& options) {
  TidListStoreOptions store = TidListStoreOptions::FromEnv();
  if (options.tidlist_budget_bytes != 0) {
    store.memory_budget_bytes = options.tidlist_budget_bytes;
  }
  if (!options.tidlist_spill_dir.empty()) {
    store.spill_dir = options.tidlist_spill_dir;
  }
  return store;
}

}  // namespace

BordersMaintainer::BordersMaintainer(const BordersOptions& options)
    : options_(options),
      model_(options.minsup, options.num_items),
      tidlists_(StoreOptionsFor(options)) {
  DEMON_CHECK(options_.minsup > 0.0 && options_.minsup < 1.0);
  DEMON_CHECK(options_.num_items > 0);
}

void BordersMaintainer::FoldBlockCounts(const TransactionBlock& block,
                                        int sign) {
  ItemsetTable& entries = *model_.mutable_entries();
  if (entries.empty()) return;
  // Count the tracked itemsets where they lie: once compacted, the
  // table's key arena is the counting list and slot i is position i.
  entries.Compact();
  // Non-owning alias: the counting kernel only reads the block.
  auto alias = std::shared_ptr<const TransactionBlock>(
      std::shared_ptr<const TransactionBlock>(), &block);
  const std::vector<uint64_t> deltas =
      counting_.PtScan(entries.Keys(), {alias});
  for (size_t i = 0; i < deltas.size(); ++i) {
    ItemsetModel::Entry& entry = entries.ValueAt(i);
    const uint64_t delta = deltas[i];
    if (sign > 0) {
      entry.count += delta;
    } else {
      DEMON_CHECK_MSG(entry.count >= delta, "deletion underflows a count");
      entry.count -= delta;
    }
  }
}

void BordersMaintainer::AddBlock(
    std::shared_ptr<const TransactionBlock> block) {
  DEMON_CHECK(block != nullptr);
  last_stats_ = UpdateStats{};

  const bool needs_tidlists = options_.strategy != CountingStrategy::kPtScan;
  if (needs_tidlists) {
    // Materialize the block's TID-lists; for ECUT+ also the frequent
    // 2-itemsets of the *current* model, highest support first, within the
    // space budget (paper §3.1.1 heuristic). This is part of storing the
    // block (the lists replace the transactional format), not of model
    // maintenance, so it is not counted in detection/update time.
    DEMON_TRACE_SPAN(span, telemetry_, "tidlist-build", "borders");
    PairMaterializationSpec spec;
    std::shared_ptr<const BlockTidLists> lists;
    if (options_.strategy == CountingStrategy::kEcutPlus &&
        !model_.entries().empty()) {
      spec.pairs = model_.Frequent2ItemsetsBySupport();
      spec.budget_slots = static_cast<size_t>(
          options_.pair_budget_fraction *
          static_cast<double>(block->TotalItemOccurrences()));
      lists = BlockTidLists::Build(*block, options_.num_items, &spec);
    } else {
      lists = BlockTidLists::Build(*block, options_.num_items, nullptr);
    }
    tidlists_.Append(std::move(lists));
  }

  {
    DEMON_TRACE_SPAN(span, telemetry_, "borders-detect", "borders");
    telemetry::ScopedTimer timer(detection_hist_);
    if (blocks_.empty() && model_.entries().empty()) {
      // First selected block: build the model from scratch (base case).
      blocks_.push_back(std::move(block));
      model_ =
          Apriori(blocks_, options_.minsup, options_.num_items, &counting_);
      last_stats_.detection_seconds = timer.Stop();
      return;
    }

    // Detection phase: one scan of the new block refreshes the supports of
    // L ∪ NB- and flags any itemset that crossed the threshold.
    FoldBlockCounts(*block, +1);
    model_.AddTransactions(block->size());
    blocks_.push_back(std::move(block));
    last_stats_.detection_seconds = timer.Stop();
  }

  DEMON_TRACE_SPAN(span, telemetry_, "borders-update", "borders");
  telemetry::ScopedTimer timer(update_hist_);
  Refresh({});
  last_stats_.update_seconds = timer.Stop();
}

void BordersMaintainer::RemoveBlockAt(size_t index) {
  DEMON_CHECK(index < blocks_.size());
  last_stats_ = UpdateStats{};

  {
    DEMON_TRACE_SPAN(span, telemetry_, "borders-detect", "borders");
    telemetry::ScopedTimer timer(detection_hist_);
    const auto victim = blocks_[index];
    FoldBlockCounts(*victim, -1);
    DEMON_CHECK(model_.num_transactions() >= victim->size());
    model_.set_num_transactions(model_.num_transactions() - victim->size());
    blocks_.erase(blocks_.begin() + index);
    if (options_.strategy != CountingStrategy::kPtScan) {
      tidlists_.DropAt(index);
    }
    last_stats_.detection_seconds = timer.Stop();
  }

  DEMON_TRACE_SPAN(span, telemetry_, "borders-update", "borders");
  telemetry::ScopedTimer timer(update_hist_);
  Refresh({});
  last_stats_.update_seconds = timer.Stop();
}

void BordersMaintainer::ChangeMinSupport(double minsup) {
  DEMON_CHECK(minsup > 0.0 && minsup < 1.0);
  options_.minsup = minsup;
  model_.set_minsup(minsup);
  last_stats_ = UpdateStats{};
  DEMON_TRACE_SPAN(span, telemetry_, "borders-update", "borders");
  telemetry::ScopedTimer timer(update_hist_);
  Refresh({});
  last_stats_.update_seconds = timer.Stop();
}

void BordersMaintainer::Refresh(const std::vector<Itemset>& promotion_seeds) {
  const uint64_t min_count = model_.MinCount();
  auto& entries = *model_.mutable_entries();

  // Flip frequency flags; newly frequent itemsets seed candidate growth.
  std::vector<Itemset> seeds = promotion_seeds;
  bool any_demotion = false;
  for (auto&& [itemset, entry] : entries) {
    const bool should_be_frequent = entry.count >= min_count;
    if (should_be_frequent == entry.frequent) continue;
    entry.frequent = should_be_frequent;
    if (should_be_frequent) {
      seeds.push_back(itemset);
    } else {
      any_demotion = true;
    }
  }
  // Demotions invalidate border entries that now have an infrequent subset
  // (footnote 6: delete supersets of demoted itemsets from NB-).
  if (any_demotion) PruneBorder();

  // Update phase: grow new candidates from the promoted itemsets, count
  // them over the full selected history with the configured strategy, and
  // iterate while new frequent itemsets keep appearing (§3.1.1).
  while (!seeds.empty()) {
    ++last_stats_.update_iterations;
    std::vector<Itemset> candidates = SeededCandidates(seeds);
    seeds.clear();
    if (candidates.empty()) break;
    last_stats_.new_candidates += candidates.size();
    const std::vector<uint64_t> counts =
        counting_.Count(options_.strategy, candidates, blocks_, tidlists_,
                        &last_stats_.counting);
    size_t items = 0;
    for (const Itemset& candidate : candidates) items += candidate.size();
    entries.ReserveMore(candidates.size(), items);
    for (size_t i = 0; i < candidates.size(); ++i) {
      const bool frequent = counts[i] >= min_count;
      entries.emplace(candidates[i],
                      ItemsetModel::Entry{counts[i], frequent});
      if (frequent) seeds.push_back(std::move(candidates[i]));
    }
  }
}

std::vector<Itemset> BordersMaintainer::SeededCandidates(
    const std::vector<Itemset>& seeds) {
  // A (k+1)-itemset Y needs counting now iff it is untracked and all of its
  // k-subsets are frequent; untracked-but-eligible means at least one of
  // those subsets was *just* promoted (otherwise Y would already have been
  // generated). So every new candidate is some seed extended by one item,
  // with all other k-subsets frequent — a seeded version of the prefix
  // join of [AMS+96] that the paper's update phase uses.
  ItemsetSet produced;
  std::vector<Itemset> result;
  std::vector<Item> frequent_items;
  for (const auto& [itemset, entry] : model_.entries()) {
    if (entry.frequent && itemset.size() == 1) {
      frequent_items.push_back(itemset[0]);
    }
  }
  std::sort(frequent_items.begin(), frequent_items.end());

  // Probe keys are built in reused buffers; only kept candidates are
  // copied out.
  Itemset candidate;
  Itemset subset;
  for (const Itemset& seed : seeds) {
    for (Item extension : frequent_items) {
      const auto at = std::lower_bound(seed.begin(), seed.end(), extension);
      if (at != seed.end() && *at == extension) continue;
      const size_t extension_index = static_cast<size_t>(at - seed.begin());
      candidate.assign(seed.begin(), at);
      candidate.push_back(extension);
      candidate.insert(candidate.end(), at, seed.end());
      if (model_.entries().contains(candidate) ||
          produced.count(candidate) > 0) {
        continue;
      }
      // Prune: every |seed|-subset must be frequent (the seed itself,
      // which drops the extension, is by construction).
      bool keep = true;
      for (size_t drop = 0; drop < candidate.size() && keep; ++drop) {
        if (drop == extension_index) continue;
        AssignWithoutIndex(candidate, drop, &subset);
        keep = IsFrequentEntry(subset);
      }
      if (!keep) continue;
      produced.insert(candidate);
      result.push_back(candidate);
    }
  }
  return result;
}

void BordersMaintainer::AuditInto(audit::AuditResult* audit) const {
  model_.AuditInto(audit);

  uint64_t total_transactions = 0;
  for (const auto& block : blocks_) total_transactions += block->size();
  AUDIT_CHECK(audit, "borders", "borders/transaction-total",
              total_transactions == model_.num_transactions(),
              audit::Msg() << "model holds " << model_.num_transactions()
                           << " transactions but the " << blocks_.size()
                           << " selected blocks sum to " << total_transactions,
              "");

  if (options_.strategy == CountingStrategy::kPtScan) return;
  tidlists_.AuditInto(audit);
  AUDIT_CHECK(audit, "borders", "borders/tidlist-block-count",
              tidlists_.NumBlocks() == blocks_.size(),
              audit::Msg() << "store has " << tidlists_.NumBlocks()
                           << " TID-list blocks for " << blocks_.size()
                           << " transaction blocks",
              "");
  const size_t paired = std::min(tidlists_.NumBlocks(), blocks_.size());
  for (size_t i = 0; i < paired; ++i) {
    AUDIT_CHECK(audit, "borders", "borders/tidlist-block-size",
                tidlists_.block(i).num_transactions() == blocks_[i]->size(),
                audit::Msg() << "TID-list block " << i << " covers "
                             << tidlists_.block(i).num_transactions()
                             << " transactions, block holds "
                             << blocks_[i]->size(),
                "");
  }
}

void BordersMaintainer::AuditRescratchInto(audit::AuditResult* audit) const {
  if (blocks_.empty()) return;
  const ItemsetModel scratch =
      Apriori(blocks_, options_.minsup, options_.num_items);

  size_t mismatched = 0;
  std::string example;
  for (const auto& [itemset, entry] : scratch.entries()) {
    const auto it = model_.entries().find(itemset);
    const bool matches = it != model_.entries().end() &&
                         it->second.count == entry.count &&
                         it->second.frequent == entry.frequent;
    if (matches) continue;
    ++mismatched;
    if (example.empty()) {
      example = audit::Msg()
                << demon::ToString(itemset) << ": scratch count="
                << entry.count << " frequent=" << entry.frequent
                << (it == model_.entries().end()
                        ? std::string(", untracked incrementally")
                        : std::string(audit::Msg()
                                      << ", incremental count="
                                      << it->second.count
                                      << " frequent=" << it->second.frequent));
    }
  }
  AUDIT_CHECK(audit, "borders", "borders/rescratch-equivalence",
              mismatched == 0 &&
                  model_.entries().size() == scratch.entries().size() &&
                  model_.num_transactions() == scratch.num_transactions(),
              audit::Msg() << "incremental model diverges from a from-scratch "
                              "Apriori run over the same blocks ("
                           << mismatched << " of " << scratch.entries().size()
                           << " scratch entries mismatched; incremental "
                              "tracks "
                           << model_.entries().size() << ")",
              example);
}

void BordersMaintainer::SaveState(persistence::Writer& w) const {
  SerializeItemsetModel(w, model_);
  w.WriteU64(blocks_.size());
  for (const auto& block : blocks_) w.WriteU32(block->info().id);
  if (options_.strategy == CountingStrategy::kPtScan) return;
  DEMON_CHECK(tidlists_.NumBlocks() == blocks_.size());
  for (size_t b = 0; b < tidlists_.NumBlocks(); ++b) {
    // The pair set a block was materialized with depends on the model at
    // arrival time; record it verbatim (sorted for determinism) so restore
    // rebuilds the exact same lists rather than re-deriving them from the
    // final model.
    auto pairs = tidlists_.block(b).MaterializedPairs();
    std::sort(pairs.begin(), pairs.end());
    w.WriteU64(pairs.size());
    for (const auto& [a, c] : pairs) {
      w.WriteU32(a);
      w.WriteU32(c);
    }
  }
}

Status BordersMaintainer::LoadState(persistence::Reader& r) {
  if (!blocks_.empty() || !model_.entries().empty()) {
    return Status::FailedPrecondition(
        "BORDERS state can only be restored into a fresh maintainer");
  }
  ItemsetModel model;
  DeserializeItemsetModel(r, &model);
  if (!r.ok()) return r.status();
  if (model.minsup() != options_.minsup ||
      model.num_items() != options_.num_items) {
    return Status::InvalidArgument(
        "checkpointed itemset model was mined with different options");
  }

  const persistence::BlockSource* source = r.block_source();
  if (source == nullptr || !source->transactions) {
    return Status::FailedPrecondition(
        "no transaction block source bound to the reader");
  }
  const size_t num_blocks = r.ReadLength(sizeof(uint32_t));
  if (!r.ok()) return r.status();
  blocks_.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    const BlockId id = r.ReadU32();
    if (!r.ok()) return r.status();
    DEMON_ASSIGN_OR_RETURN(auto block, source->transactions(id));
    blocks_.push_back(std::move(block));
  }

  if (options_.strategy != CountingStrategy::kPtScan) {
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t num_pairs = r.ReadLength(2 * sizeof(uint32_t));
      PairMaterializationSpec spec;
      spec.pairs.reserve(num_pairs);
      for (size_t p = 0; p < num_pairs; ++p) {
        const Item a = r.ReadU32();
        const Item c = r.ReadU32();
        spec.pairs.emplace_back(a, c);
      }
      if (!r.ok()) return r.status();
      // The recorded pairs already respect the budget that applied at
      // arrival time, so rebuild them all (unbounded budget).
      tidlists_.Append(BlockTidLists::Build(
          *blocks_[b], options_.num_items,
          spec.pairs.empty() ? nullptr : &spec));
    }
  }
  model_ = std::move(model);
  return r.status();
}

void BordersMaintainer::PruneBorder() {
  ItemsetTable& entries = *model_.mutable_entries();
  std::vector<Itemset> to_delete;
  Itemset subset;
  for (const auto& [itemset, entry] : model_.entries()) {
    if (entry.frequent || itemset.size() <= 1) continue;
    for (size_t drop = 0; drop < itemset.size(); ++drop) {
      AssignWithoutIndex(itemset, drop, &subset);
      if (!IsFrequentEntry(subset)) {
        to_delete.push_back(itemset);
        break;
      }
    }
  }
  for (const Itemset& itemset : to_delete) entries.erase(itemset);
}

}  // namespace demon
