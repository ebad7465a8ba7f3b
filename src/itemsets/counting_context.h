#ifndef DEMON_ITEMSETS_COUNTING_CONTEXT_H_
#define DEMON_ITEMSETS_COUNTING_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "data/block.h"
#include "itemsets/support_counting.h"
#include "tidlist/tidlist.h"
#include "tidlist/tidlist_store.h"

namespace demon {

/// \brief The support-counting kernel behind PT-Scan, ECUT and ECUT+:
/// parallel across an optional shared ThreadPool.
///
/// Figures 2 and 4-7 — the paper's core claims — are pure support-counting
/// benchmarks, so this is the hot path of every itemset monitor. A context
/// shards the work (candidate itemsets for ECUT/ECUT+, transactions for
/// PT-Scan) over `ParallelFor`, which lets the MaintenanceEngine share one
/// pool between monitor-level and counting-level parallelism: counting
/// called from inside a monitor-update task simply claims shards alongside
/// the pool's workers.
///
/// Results are bit-identical to the sequential path for every strategy and
/// thread count (DESIGN.md invariant 2): ECUT shards write disjoint count
/// slots, PT-Scan sums per-shard uint64 counts (integer addition is
/// order-independent), and stats are merged as sums.
///
/// A context holds its pool and telemetry bindings and nothing else: every
/// buffer a call uses (PT-Scan's tree and per-shard count arrays, ECUT's
/// plans, views and intersection scratch) is a local of that call, so a
/// maintainer's state between blocks is its model, not the last call's
/// scratch. Calls are const and may run concurrently; distinct contexts
/// may share a pool freely, and copying one copies its bindings.
class CountingContext {
 public:
  /// A sequential context (no pool).
  CountingContext() = default;

  /// A context fanning work out over `pool` (not owned; may be null for
  /// sequential operation). With a pool of one worker, counting stays on
  /// the calling thread.
  explicit CountingContext(ThreadPool* pool) : pool_(pool) {}

  /// Rebinds the pool (null returns the context to sequential mode).
  void set_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* pool() const { return pool_; }

  /// Binds the registry receiving per-call and per-shard spans (the
  /// shard spans make per-thread load imbalance visible in a trace) and
  /// the kernel counters `counting/{slots_fetched,lists_opened,
  /// transactions_scanned,itemsets_counted}`. Null unbinds; no-op in
  /// DEMON_TELEMETRY=OFF builds, so the hot loops stay untouched.
  void set_telemetry([[maybe_unused]] telemetry::TelemetryRegistry* registry) {
    if constexpr (telemetry::kEnabled) {
      telemetry_ = registry;
      CacheMetrics();
    }
  }
  telemetry::TelemetryRegistry* telemetry() const { return telemetry_; }

  /// PT-Scan: one pass over all transactions of `blocks`. The call builds
  /// one prefix tree that every shard reads; each shard counts its
  /// transactions into its own count array, and the arrays are summed
  /// after the barrier, sharded by node range. Stats accumulate into
  /// `*stats` when non-null; the non-instrumented path pays nothing for
  /// them.
  std::vector<uint64_t> PtScan(
      const std::vector<Itemset>& itemsets,
      const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
      CountingStats* stats = nullptr) const;
  /// The same over a flat list — BORDERS detection counts its model's key
  /// arena in place.
  std::vector<uint64_t> PtScan(
      const FlatItemsets& itemsets,
      const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
      CountingStats* stats = nullptr) const;

  /// ECUT / ECUT+: candidate itemsets are sharded across the pool; each
  /// shard intersects per-block TID-list views with its own buffers. The ECUT+ covering of an itemset by materialized pair lists
  /// is computed once per itemset from the always-resident directory (no
  /// payload I/O); a chosen pair falls back to its two item lists in
  /// blocks where it is not materialized, which leaves the counts exact
  /// (any cover intersects to the same support).
  ///
  /// Residency-aware: each shard builds every plan first, then visits
  /// blocks resident-first (TidListStore::ResidencyOrder) holding one
  /// lease per block, so a paged-out block is faulted in at most once per
  /// shard and all the shard's itemsets batch over it while it is pinned.
  /// Block visit order never changes counts (per-block supports sum).
  std::vector<uint64_t> Ecut(const std::vector<Itemset>& itemsets,
                             const TidListStore& store, bool use_pair_lists,
                             CountingStats* stats = nullptr) const;

  /// Dispatches on `strategy`. PT-Scan uses `blocks`; ECUT variants use
  /// `store`.
  std::vector<uint64_t> Count(
      CountingStrategy strategy, const std::vector<Itemset>& itemsets,
      const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
      const TidListStore& store, CountingStats* stats = nullptr) const;

  /// Level-1 counting: occurrences of every item of [0, num_items) across
  /// `blocks`, sharded over transactions with per-shard dense arrays
  /// (Apriori's base level).
  std::vector<uint64_t> CountItems(
      const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
      size_t num_items) const;

 private:
  /// Number of shards for `work` units with at least `min_per_shard` units
  /// each — 1 without a pool; with one, at most the calling thread plus
  /// the pool's unborrowed parallelism tokens (ThreadPool's pool-wide
  /// budget). Sizing to the token remainder is what keeps nested fan-out
  /// from queueing shards behind busy monitor-level tasks — the
  /// oversubscription that made 4-thread counting slower than 1-thread in
  /// BENCH_engine.json.
  size_t ShardCountFor(size_t work, size_t min_per_shard) const;

  /// PT-Scan over either list form.
  template <typename List>
  std::vector<uint64_t> PtScanOver(
      const List& itemsets,
      const std::vector<std::shared_ptr<const TransactionBlock>>& blocks,
      CountingStats* stats) const;

  /// Re-resolves the cached counter pointers from telemetry_ (all null
  /// when unbound, so the hot paths test one pointer).
  void CacheMetrics();

  /// True when per-shard stats must be collected this call: the caller
  /// asked for them, or bound counters will absorb them.
  bool CollectStats(const CountingStats* stats) const {
    return stats != nullptr || slots_fetched_ != nullptr;
  }

  ThreadPool* pool_ = nullptr;
  /// All null in DEMON_TELEMETRY=OFF builds (see set_telemetry).
  telemetry::TelemetryRegistry* telemetry_ = nullptr;
  telemetry::Counter* slots_fetched_ = nullptr;
  telemetry::Counter* lists_opened_ = nullptr;
  telemetry::Counter* transactions_scanned_ = nullptr;
  telemetry::Counter* itemsets_counted_ = nullptr;
  /// `counting/intersect_seconds_<enc>_<enc>` histograms indexed by the
  /// encodings of the two smallest views of an intersection (the pair the
  /// k-way kernel folds first). All null when unbound, so the encoding
  /// scan and the timer are skipped entirely on the plain hot path.
  telemetry::Histogram* intersect_seconds_[kNumTidEncodings]
                                          [kNumTidEncodings] = {};
};

}  // namespace demon

#endif  // DEMON_ITEMSETS_COUNTING_CONTEXT_H_
