#ifndef DEMON_PATTERNS_COMPACT_SEQUENCES_H_
#define DEMON_PATTERNS_COMPACT_SEQUENCES_H_

#include <memory>
#include <vector>

#include "common/telemetry.h"
#include "deviation/focus.h"
#include "persistence/serializer.h"

namespace demon {

/// \brief Similarity verdict between two blocks (paper Definition 4.1):
/// blocks are M-similar at level alpha when the statistical significance
/// of their deviation stays below alpha — i.e. we cannot confidently
/// reject that both come from the same generating process.
struct PairwiseSimilarity {
  DeviationResult deviation;
  bool similar = false;
};

/// \brief Incremental miner of all compact block sequences under the
/// unrestricted-window option (paper §4).
///
/// A sequence S of blocks is *compact* when (1) every pair of blocks in S
/// is similar, and (2) every block between the first and last of S that is
/// missing from S is dissimilar to at least one earlier member of S — "no
/// holes". The miner maintains one sequence per start block: when block
/// D_{t+1} arrives it computes the deviation between D_{t+1} and every
/// earlier block (caching per-block models, so unchanged blocks are never
/// re-mined), starts the new singleton sequence, and extends every
/// existing sequence whose extension stays compact — exactly the paper's
/// inductive algorithm, including the pairwise-deviation matrix.
class CompactSequenceMiner {
 public:
  struct Options {
    FocusItemsets::Options focus;
    /// Similarity level alpha of Definition 4.1; blocks are similar when
    /// deviation significance < alpha.
    double alpha = 0.95;
    /// 0 = unrestricted window (paper's main algorithm). A positive value
    /// w restricts pattern detection to the most recent w blocks
    /// (footnote 9's "easily extended" variant): evicted blocks leave
    /// every sequence and their cached models are released.
    size_t window_size = 0;
  };

  explicit CompactSequenceMiner(const Options& options)
      : options_(options), focus_(options.focus) {}

  /// Adds the next block (index t = number of blocks added so far).
  void AddBlock(std::shared_ptr<const TransactionBlock> block);

  size_t NumBlocks() const { return blocks_.size(); }

  /// All maintained sequences, as 0-based block indices in increasing
  /// order. Under the unrestricted window, sequences_[i] starts at block
  /// i; under a most-recent window, only sequences over in-window blocks
  /// are kept (ordered by start block).
  const std::vector<std::vector<size_t>>& sequences() const {
    return sequences_;
  }

  /// First block index still inside the window (0 when unrestricted).
  size_t window_start() const { return window_start_; }

  /// Maximal sequences only (those not a subset of another maintained
  /// sequence) with at least `min_length` blocks — the presentation-level
  /// filter used for Figure 9 style reports.
  std::vector<std::vector<size_t>> MaximalSequences(
      size_t min_length = 2) const;

  /// Pairwise similarity between blocks i and j (i != j).
  const PairwiseSimilarity& Similarity(size_t i, size_t j) const;
  bool Similar(size_t i, size_t j) const {
    return Similarity(i, j).similar;
  }

  /// Wall time of the last AddBlock call (Figure 10's per-block cost).
  double last_add_seconds() const { return last_add_seconds_; }
  /// Whether the last AddBlock needed block scans (dissimilar blocks force
  /// scans; the cause of Figure 10's spikes).
  size_t last_scan_count() const { return last_scan_count_; }

  /// Checks Definition 4.1 against the miner's own similarity matrix —
  /// used by tests and assertions.
  bool IsCompact(const std::vector<size_t>& sequence) const;

  /// Serializes the miner's dynamic state: window start, block references
  /// (evicted positions marked absent), cached per-block models, the full
  /// pairwise deviation matrix, and the maintained sequences. Blocks are
  /// stored as ids; the checkpoint container persists them once.
  void SaveState(persistence::Writer& w) const;

  /// Restores state saved by SaveState into a freshly constructed miner
  /// with the same options, re-acquiring blocks through the Reader's
  /// transaction BlockSource.
  [[nodiscard]] Status LoadState(persistence::Reader& r);

  const std::vector<std::shared_ptr<const TransactionBlock>>& blocks() const {
    return blocks_;
  }

  /// Binds `registry` for the per-block span and the
  /// `patterns/add_seconds` histogram. last_add_seconds() stays available
  /// in every build; no-op under DEMON_TELEMETRY=OFF.
  void set_telemetry([[maybe_unused]] telemetry::TelemetryRegistry* registry) {
    if constexpr (telemetry::kEnabled) {
      telemetry_ = registry;
      add_hist_ = registry == nullptr
                      ? nullptr
                      : registry->histogram("patterns/add_seconds");
    }
  }

 private:
  /// Rebuilds sequences_ over [window_start_, blocks_.size()) from the
  /// similarity matrix (used after evictions).
  void RebuildSequences();

  Options options_;
  FocusItemsets focus_;
  size_t window_start_ = 0;
  std::vector<std::shared_ptr<const TransactionBlock>> blocks_;
  /// One frozen model per block (empty once a block leaves the window).
  std::vector<FrozenItemsetModel> models_;
  /// Upper-triangular pairwise matrix: pair_[j] holds similarities of
  /// block j with blocks 0..j-1.
  std::vector<std::vector<PairwiseSimilarity>> pair_;
  std::vector<std::vector<size_t>> sequences_;
  double last_add_seconds_ = 0.0;
  size_t last_scan_count_ = 0;
  /// Null in DEMON_TELEMETRY=OFF builds (see set_telemetry).
  telemetry::TelemetryRegistry* telemetry_ = nullptr;
  telemetry::Histogram* add_hist_ = nullptr;
};

}  // namespace demon

#endif  // DEMON_PATTERNS_COMPACT_SEQUENCES_H_
