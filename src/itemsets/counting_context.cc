#include "itemsets/counting_context.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "itemsets/prefix_tree.h"

namespace demon {

namespace {

// Minimum work per shard: below these, the fan-out overhead outweighs the
// win and counting stays on one shard. Shard count never changes results,
// only scheduling (sums are order-independent).
constexpr size_t kMinTransactionsPerShard = 256;
constexpr size_t kMinItemsetsPerShard = 4;
// ECUT's finer-grained floor: estimated TID slots per shard. An ECUT call
// over few-but-tiny lists (the common steady-state candidate batch) is not
// worth a fan-out even when it clears the itemset floor; the estimate
// comes from directory cardinalities alone, so it costs no payload I/O.
constexpr uint64_t kMinSlotsPerShard = 4096;

// [begin, end) of shard `shard` when `work` units are split as evenly as
// possible over `shards` contiguous ranges.
std::pair<size_t, size_t> ShardRange(size_t work, size_t shard,
                                     size_t shards) {
  const size_t base = work / shards;
  const size_t extra = work % shards;
  const size_t begin = shard * base + std::min(shard, extra);
  return {begin, begin + base + (shard < extra ? 1 : 0)};
}

// Sums the equal-length per-shard arrays `partials` into partials[0],
// sharded over `pool` by index range: each part adds every shard's slice
// [lo, hi) into shard 0's, so the merge costs shards x length / parts.
void SumIntoFirst(ThreadPool* pool,
                  std::vector<std::vector<uint64_t>>* partials) {
  const size_t shards = partials->size();
  if (shards <= 1) return;
  const size_t length = (*partials)[0].size();
  ParallelFor(pool, shards, [&](size_t part) {
    const auto [lo, hi] = ShardRange(length, part, shards);
    uint64_t* sum = (*partials)[0].data();
    for (size_t shard = 1; shard < shards; ++shard) {
      const uint64_t* partial = (*partials)[shard].data();
      for (size_t i = lo; i < hi; ++i) sum[i] += partial[i];
    }
  });
}

// Folds every shard's stats into `*stats` (no-op when null).
void MergeStats(const std::vector<CountingStats>& shard_stats,
                CountingStats* stats) {
  if (stats == nullptr) return;
  for (const CountingStats& s : shard_stats) {
    stats->slots_fetched += s.slots_fetched;
    stats->lists_opened += s.lists_opened;
  }
}

// Estimated total TID slots an ECUT pass over `itemsets` touches, from
// directory cardinalities only (no payload I/O): each itemset is charged
// its smallest item's total list size across blocks.
uint64_t EstimateEcutSlots(const std::vector<Itemset>& itemsets,
                           const TidListStore& store) {
  constexpr uint64_t kUnknown = std::numeric_limits<uint64_t>::max();
  size_t num_items = 0;
  for (const auto& block : store.blocks()) {
    num_items = std::max(num_items, block->num_items());
  }
  // Per-item totals are filled lazily: only items the batch actually
  // names are summed.
  std::vector<uint64_t> item_totals(num_items, kUnknown);
  uint64_t total = 0;
  for (const Itemset& itemset : itemsets) {
    uint64_t best = kUnknown;
    for (Item item : itemset) {
      if (item >= num_items) {
        best = 0;
        break;
      }
      uint64_t& slot = item_totals[item];
      if (slot == kUnknown) {
        uint64_t sum = 0;
        for (const auto& block : store.blocks()) {
          if (item < block->num_items()) sum += block->ItemListSize(item);
        }
        slot = sum;
      }
      best = std::min(best, slot);
    }
    total += best == kUnknown ? 0 : best;
  }
  return total;
}

// One entry of an ECUT+ cover plan: a materialized pair (is_pair) or a
// single item (b unused).
struct CoverEntry {
  Item a = 0;
  Item b = 0;
  bool is_pair = false;
};

// Appends the cover plan for `itemset` to `*plan` (ECUT: one item list per
// item; ECUT+: greedy pair cover by smallest total size). Reads only
// directory metadata, so it is valid for evicted blocks.
void BuildCoverPlan(const Itemset& itemset, const TidListStore& store,
                    bool use_pair_lists, std::vector<CoverEntry>* plan) {
  DEMON_CHECK(!itemset.empty());
  const size_t k = itemset.size();
  bool any_pair_lists = false;
  if (use_pair_lists && k >= 2) {
    for (const auto& block : store.blocks()) {
      if (block->num_pair_lists() > 0) {
        any_pair_lists = true;
        break;
      }
    }
  }
  if (!any_pair_lists) {
    for (Item item : itemset) plan->push_back({item, 0, false});
    return;
  }

  // ECUT+ covering rule (paper §3.1.1), hoisted out of the per-block loop:
  // greedily pick the materialized pair with the smallest *total* list
  // size across blocks whose two items are still uncovered; cover the
  // remainder with item lists. Sizes come from the always-resident
  // directory, so planning touches no payload and triggers no page-in.
  // Any cover intersects to the exact support, so hoisting never changes
  // counts — blocks missing a chosen pair fall back to the pair's two item
  // lists at count time. The greedy score stays cardinality-based even
  // though encoded byte costs differ: cardinality bounds every kernel's
  // work, while encoded size only bounds its input scan.
  constexpr uint64_t kUnmaterialized = std::numeric_limits<uint64_t>::max();
  std::vector<uint64_t> pair_sizes(k * k, kUnmaterialized);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      uint64_t total = kUnmaterialized;
      for (const auto& block : store.blocks()) {
        if (!block->HasPairList(itemset[i], itemset[j])) continue;
        if (total == kUnmaterialized) total = 0;
        total += block->PairListSize(itemset[i], itemset[j]);
      }
      pair_sizes[i * k + j] = total;
    }
  }
  std::vector<bool> covered(k, false);
  for (;;) {
    uint64_t best_size = kUnmaterialized;
    size_t best_i = 0;
    size_t best_j = 0;
    for (size_t i = 0; i < k; ++i) {
      if (covered[i]) continue;
      for (size_t j = i + 1; j < k; ++j) {
        if (covered[j]) continue;
        const uint64_t size = pair_sizes[i * k + j];
        if (size < best_size) {
          best_size = size;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_size == kUnmaterialized) break;
    plan->push_back({itemset[best_i], itemset[best_j], true});
    covered[best_i] = true;
    covered[best_j] = true;
  }
  for (size_t i = 0; i < k; ++i) {
    if (!covered[i]) plan->push_back({itemset[i], 0, false});
  }
}

}  // namespace

size_t CountingContext::ShardCountFor(size_t work,
                                      size_t min_per_shard) const {
  if (pool_ == nullptr || pool_->num_threads() <= 1) return 1;
  // Capacity follows the pool's token budget: the calling thread plus
  // whatever tokens outer layers (in-flight monitor tasks, enclosing
  // ParallelFors) have left unborrowed. When monitors hold the whole
  // budget each one counts serially on its own worker — the behavior that
  // fixed the 4-thread regression in BENCH_engine.json — and as monitors
  // retire, their returned tokens let late counting calls fan back out.
  // The snapshot is advisory; ParallelFor re-acquires tokens for real at
  // submission time, so a stale read costs load balance, never
  // correctness.
  const size_t capacity =
      std::min(pool_->num_threads(), pool_->ApproxAvailableTokens() + 1);
  const size_t by_work = work / min_per_shard;
  return std::max<size_t>(1, std::min(by_work, capacity));
}

void CountingContext::CacheMetrics() {
  if (telemetry_ == nullptr) {
    slots_fetched_ = nullptr;
    lists_opened_ = nullptr;
    transactions_scanned_ = nullptr;
    itemsets_counted_ = nullptr;
    for (auto& row : intersect_seconds_) {
      for (auto& cell : row) cell = nullptr;
    }
    return;
  }
  slots_fetched_ = telemetry_->counter("counting/slots_fetched");
  lists_opened_ = telemetry_->counter("counting/lists_opened");
  transactions_scanned_ = telemetry_->counter("counting/transactions_scanned");
  itemsets_counted_ = telemetry_->counter("counting/itemsets_counted");
  for (uint8_t a = 0; a < kNumTidEncodings; ++a) {
    for (uint8_t b = 0; b < kNumTidEncodings; ++b) {
      intersect_seconds_[a][b] = telemetry_->histogram(
          std::string("counting/intersect_seconds_") +
          TidEncodingName(static_cast<TidEncoding>(a)) + "_" +
          TidEncodingName(static_cast<TidEncoding>(b)));
    }
  }
}

template <typename List>
std::vector<uint64_t> CountingContext::PtScanOver(
    const List& itemsets,
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    CountingStats* stats) const {
  if (itemsets.size() == 0) return {};
  DEMON_TRACE_SPAN(call_span, telemetry_, "pt-scan", "counting");
  [[maybe_unused]] const uint64_t call_span_id = DEMON_SPAN_ID(call_span);

  size_t total_transactions = 0;
  for (const auto& block : blocks) total_transactions += block->size();
  const size_t shards =
      ShardCountFor(total_transactions, kMinTransactionsPerShard);

  // One tree for the call, read by every shard; each shard counts into
  // its own array (zeroed by the shard itself, so the fill runs in
  // parallel too). All of it is freed when the call returns.
  PrefixTree tree;
  tree.Build(itemsets);
  std::vector<std::vector<uint64_t>> shard_counts(shards);
  std::vector<uint64_t> touched(shards, 0);

  const bool collect_stats = CollectStats(stats);
  ThreadPool* pool = shards > 1 ? pool_ : nullptr;
  ParallelFor(pool, shards, [&](size_t shard) {
    // The dispatching thread claims shards too, but workers have an empty
    // span stack, so the parent must travel explicitly.
    DEMON_TRACE_SPAN_UNDER(shard_span, telemetry_,
                           "pt-scan shard " + std::to_string(shard),
                           "counting", call_span_id);
    std::vector<uint64_t>& counts = shard_counts[shard];
    counts.assign(tree.num_nodes(), 0);
    const auto [begin, end] = ShardRange(total_transactions, shard, shards);
    uint64_t shard_touched = 0;
    size_t offset = 0;
    for (const auto& block : blocks) {
      if (offset >= end) break;
      const auto& transactions = block->transactions();
      const size_t lo = begin > offset ? begin - offset : 0;
      const size_t hi = std::min(transactions.size(), end - offset);
      if (collect_stats) {
        for (size_t i = lo; i < hi; ++i) {
          tree.CountTransaction(transactions[i], counts);
          shard_touched += transactions[i].size();
        }
      } else {
        for (size_t i = lo; i < hi; ++i) {
          tree.CountTransaction(transactions[i], counts);
        }
      }
      offset += transactions.size();
    }
    touched[shard] = shard_touched;
  });
  SumIntoFirst(pool, &shard_counts);

  std::vector<uint64_t> counts(itemsets.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = tree.CountOf(i, shard_counts[0]);
  }
  uint64_t total_touched = 0;
  for (const uint64_t t : touched) total_touched += t;
  if (stats != nullptr) stats->slots_fetched += total_touched;
  if (slots_fetched_ != nullptr) {
    slots_fetched_->Add(total_touched);
    transactions_scanned_->Add(total_transactions);
    itemsets_counted_->Add(itemsets.size());
  }
  return counts;
}

std::vector<uint64_t> CountingContext::PtScan(
    const std::vector<Itemset>& itemsets,
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    CountingStats* stats) const {
  return PtScanOver(itemsets, blocks, stats);
}

std::vector<uint64_t> CountingContext::PtScan(
    const FlatItemsets& itemsets,
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    CountingStats* stats) const {
  return PtScanOver(itemsets, blocks, stats);
}

std::vector<uint64_t> CountingContext::Ecut(
    const std::vector<Itemset>& itemsets, const TidListStore& store,
    bool use_pair_lists, CountingStats* stats) const {
  std::vector<uint64_t> counts(itemsets.size(), 0);
  if (itemsets.empty()) return counts;
  DEMON_TRACE_SPAN(call_span, telemetry_, use_pair_lists ? "ecut+" : "ecut",
                   "counting");
  [[maybe_unused]] const uint64_t call_span_id = DEMON_SPAN_ID(call_span);
  size_t shards = ShardCountFor(itemsets.size(), kMinItemsetsPerShard);
  if (shards > 1) {
    // Second floor: estimated intersection work, so a batch of many tiny
    // candidates stays serial. Each itemset is charged its smallest item's
    // total directory cardinality — the bound on what the smallest-first
    // k-way kernel touches.
    const uint64_t slots = EstimateEcutSlots(itemsets, store);
    shards = std::min(shards, static_cast<size_t>(std::max<uint64_t>(
                                  1, slots / kMinSlotsPerShard)));
  }

  // Resident blocks first: while this shard set works through the already
  // in-memory blocks, nothing waits on disk; each evicted block is then
  // faulted in exactly once per shard and all the shard's itemsets batch
  // over it under one lease. Advisory only — per-block supports sum, so
  // any visit order yields bit-identical counts.
  std::vector<uint32_t> block_order;
  store.ResidencyOrder(&block_order);

  const bool collect_stats = CollectStats(stats);
  const bool time_intersections = intersect_seconds_[0][0] != nullptr;
  std::vector<CountingStats> shard_stats(shards);
  ParallelFor(shards > 1 ? pool_ : nullptr, shards, [&](size_t shard) {
    DEMON_TRACE_SPAN_UNDER(shard_span, telemetry_,
                           "ecut shard " + std::to_string(shard), "counting",
                           call_span_id);
    CountingStats& shard_stat = shard_stats[shard];
    const auto [begin, end] = ShardRange(itemsets.size(), shard, shards);
    // Phase 1: plans for the whole range, from directory metadata only,
    // flat: itemset i's plan is plans[plan_begin[i - begin],
    // plan_begin[i - begin + 1]).
    std::vector<CoverEntry> plans;
    std::vector<size_t> plan_begin = {0};
    plan_begin.reserve(end - begin + 1);
    for (size_t i = begin; i < end; ++i) {
      BuildCoverPlan(itemsets[i], store, use_pair_lists, &plans);
      plan_begin.push_back(plans.size());
    }
    // Phase 2: block-outer loop; counts[i] slots are disjoint per shard.
    std::vector<TidListView> views;
    IntersectionScratch intersect;
    for (const uint32_t block_index : block_order) {
      const BlockTidLists& block = store.block(block_index);
      const TidListLease lease = block.Lease();
      for (size_t i = begin; i < end; ++i) {
        views.clear();
        for (size_t e = plan_begin[i - begin]; e < plan_begin[i - begin + 1];
             ++e) {
          const CoverEntry& entry = plans[e];
          if (entry.is_pair && block.HasPairList(entry.a, entry.b)) {
            views.push_back(block.PairView(entry.a, entry.b));
          } else if (entry.is_pair) {
            views.push_back(block.ItemView(entry.a));
            views.push_back(block.ItemView(entry.b));
          } else {
            views.push_back(block.ItemView(entry.a));
          }
        }
        if (collect_stats) {
          shard_stat.lists_opened += views.size();
          for (const TidListView& view : views) {
            shard_stat.slots_fetched += view.size();
          }
        }
        if (time_intersections && views.size() >= 2) {
          // Key the histogram by the encodings of the two smallest views —
          // the pair the k-way kernel folds first, which dominates cost.
          size_t small0 = 0;
          size_t small1 = 1;
          if (views[small1].num_tids < views[small0].num_tids) {
            std::swap(small0, small1);
          }
          for (size_t v = 2; v < views.size(); ++v) {
            if (views[v].num_tids < views[small0].num_tids) {
              small1 = small0;
              small0 = v;
            } else if (views[v].num_tids < views[small1].num_tids) {
              small1 = v;
            }
          }
          telemetry::ScopedTimer timer(
              intersect_seconds_[static_cast<uint8_t>(views[small0].encoding)]
                                [static_cast<uint8_t>(
                                    views[small1].encoding)]);
          counts[i] += IntersectionSize(views, &intersect);
        } else {
          counts[i] += IntersectionSize(views, &intersect);
        }
      }
    }
  });
  MergeStats(shard_stats, stats);
  if (slots_fetched_ != nullptr) {
    CountingStats merged;
    MergeStats(shard_stats, &merged);
    slots_fetched_->Add(merged.slots_fetched);
    lists_opened_->Add(merged.lists_opened);
    itemsets_counted_->Add(itemsets.size());
  }
  return counts;
}

std::vector<uint64_t> CountingContext::Count(
    CountingStrategy strategy, const std::vector<Itemset>& itemsets,
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    const TidListStore& store, CountingStats* stats) const {
  switch (strategy) {
    case CountingStrategy::kPtScan:
      return PtScan(itemsets, blocks, stats);
    case CountingStrategy::kEcut:
      return Ecut(itemsets, store, /*use_pair_lists=*/false, stats);
    case CountingStrategy::kEcutPlus:
      return Ecut(itemsets, store, /*use_pair_lists=*/true, stats);
  }
  return {};
}

std::vector<uint64_t> CountingContext::CountItems(
    const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
    size_t num_items) const {
  size_t total_transactions = 0;
  for (const auto& block : blocks) total_transactions += block->size();
  DEMON_TRACE_SPAN(call_span, telemetry_, "count-items", "counting");
  [[maybe_unused]] const uint64_t call_span_id = DEMON_SPAN_ID(call_span);
  const size_t shards =
      ShardCountFor(total_transactions, kMinTransactionsPerShard);

  std::vector<std::vector<uint64_t>> shard_counts(shards);
  ThreadPool* pool = shards > 1 ? pool_ : nullptr;
  ParallelFor(pool, shards, [&](size_t shard) {
    DEMON_TRACE_SPAN_UNDER(shard_span, telemetry_,
                           "count-items shard " + std::to_string(shard),
                           "counting", call_span_id);
    std::vector<uint64_t>& item_counts = shard_counts[shard];
    item_counts.assign(num_items, 0);
    const auto [begin, end] = ShardRange(total_transactions, shard, shards);
    size_t offset = 0;
    for (const auto& block : blocks) {
      if (offset >= end) break;
      const auto& transactions = block->transactions();
      const size_t lo = begin > offset ? begin - offset : 0;
      const size_t hi = std::min(transactions.size(), end - offset);
      for (size_t i = lo; i < hi; ++i) {
        for (Item item : transactions[i].items()) {
          DEMON_CHECK_MSG(item < num_items, "item outside universe");
          ++item_counts[item];
        }
      }
      offset += transactions.size();
    }
  });
  SumIntoFirst(pool, &shard_counts);
  if (transactions_scanned_ != nullptr) {
    transactions_scanned_->Add(total_transactions);
  }
  return std::move(shard_counts[0]);
}

}  // namespace demon
