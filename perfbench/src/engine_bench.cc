// Engine workloads of the repository benchmark: `fleet` and `shift`.
//
// Both drive a DemonMonitor (the deployed façade: 4 engine threads,
// defer_offline on, the engine's own telemetry registry) in a closed loop —
// per block the generator calls Quiesce() (the offline drain of the
// previous block) and then AddBlock() (the response) — and write raw
// timings, exact work counters and correctness results as one JSON object
// to --out. perfbench/run.py turns that into the reported metrics.
//
//   fleet  The Figure-11 fleet over a stationary Quest stream:
//          BORDERS+ECUT, BORDERS+ECUT+, GEMM (w=3) and the compact-sequence
//          detector, minsup 0.005, 1000-record blocks.
//   shift  One large stationary block builds the history (set-up), then
//          small blocks each drawn from a fresh 4pats.5plen pattern table;
//          one unrestricted BORDERS monitor per counting strategy at
//          minsup 0.008 under a TID-list budget of about a quarter of the
//          final payload, so ECUT pages extents.
//
// With --trace=1 the run additionally (a) keeps the benchmark-side spans
// around every AddBlock/Quiesce call, (b) replays the identical inputs
// through the engine at num_threads=0, and (c) replays them through each
// layer's public entry points directly (BordersMaintainer, Gemm,
// CompactSequenceMiner, BlockTidLists::Build, CountingContext), one call
// at a time, which yields the per-layer times and the exact counters.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/demon_monitor.h"
#include "core/gemm.h"
#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"
#include "itemsets/borders.h"
#include "itemsets/counting_context.h"
#include "patterns/compact_sequences.h"
#include "tidlist/simd.h"

namespace perfbench {
namespace {

using demon::BlockTidLists;
using demon::BordersMaintainer;
using demon::BordersOptions;
using demon::CompactSequenceMiner;
using demon::CountingStrategy;
using demon::DemonMonitor;
using demon::EngineOptions;
using demon::ItemsetModel;
using demon::MonitorKind;
using demon::MonitorSpec;
using demon::TransactionBlock;
using BlockPtr = std::shared_ptr<const TransactionBlock>;
using GemmT = demon::Gemm<BordersMaintainer, BlockPtr>;

constexpr size_t kNumItems = 1000;
constexpr size_t kEngineThreads = 4;

/// What defines a workload besides the seed and --seconds. Sizes are fixed
/// per second of --seconds, chosen so the timed phase lasts about --seconds
/// on a 4-core x86 host; the same seed and --seconds always give the same
/// inputs, whatever the speed.
struct Shape {
  /// Independent streams per run, each set up afresh.
  size_t episodes;
  /// Set-ups timed per run (the median is reported): one per episode, the
  /// rest set-up only.
  size_t setups;
  double blocks_per_second;
  size_t block_records;
  /// shift: records of the history block built during set-up.
  size_t history_records;
  /// shift: TID-list budget as a share of the raw TID-list bytes of the
  /// final history, about a quarter of its encoded payload.
  double budget_share_of_raw;
};
constexpr Shape kFleet{.episodes = 1,
                       .setups = 15,
                       .blocks_per_second = 0.67,
                       .block_records = 1000,
                       .history_records = 0,
                       .budget_share_of_raw = 0.0};
constexpr Shape kShift{.episodes = 3,
                       .setups = 3,
                       .blocks_per_second = 1.5,
                       .block_records = 2000,
                       .history_records = 40000,
                       .budget_share_of_raw = 0.075};
/// Cap on the itemsets the per-strategy counting passes count.
constexpr size_t kCountSample = 4000;

/// The counters the engine's registry and the direct replay's registry
/// must agree on exactly (both sequential).
const char* const kCounterNames[] = {
    "counting/slots_fetched",       "counting/lists_opened",
    "counting/transactions_scanned", "counting/itemsets_counted",
    "tidlist/page_ins",             "tidlist/evictions",
};

struct Workload {
  std::string name;
  double minsup = 0.0;
  /// GEMM window of the windowed monitor (fleet only).
  size_t window = 0;
  /// Blocks fed during set-up; set-up ends when the last is accepted.
  std::vector<BlockPtr> setup_blocks;
  std::vector<BlockPtr> timed_blocks;
  /// Spill directories are filled in per system instance.
  std::vector<MonitorSpec> specs;

  std::vector<BlockPtr> AllBlocks() const {
    std::vector<BlockPtr> all = setup_blocks;
    all.insert(all.end(), timed_blocks.begin(), timed_blocks.end());
    return all;
  }
};

/// The paper's `*.20L.1I.<Np>pats.<p>plen` Quest configuration.
demon::QuestParams QuestFor(size_t records, uint64_t seed, double plen) {
  demon::QuestParams params;
  params.num_transactions = records;
  params.avg_transaction_len = 20.0;
  params.num_items = kNumItems;
  params.num_patterns = 4000;
  params.avg_pattern_len = plen;
  params.seed = seed;
  return params;
}

// Pattern tables are part of a workload's definition: a table fixes how
// many itemsets are frequent, hence most of the work, so it stays the same
// across seeds. The seed draws which transactions form the blocks.
constexpr uint64_t kFleetTable = 7;  // bench/engine_throughput's stream
constexpr uint64_t kHistoryTable = 11;
constexpr uint64_t kShiftTableBase = 1000;

/// `records` consecutive transactions of pattern table `table`'s stream,
/// starting after the first `skip`.
std::vector<demon::Transaction> Draw(uint64_t table, double plen,
                                     size_t skip, size_t records) {
  demon::QuestGenerator gen(QuestFor(skip + records, table, plen));
  std::vector<demon::Transaction> all =
      gen.NextBlock(skip + records, 0).transactions();
  return {std::make_move_iterator(all.begin() + static_cast<long>(skip)),
          std::make_move_iterator(all.end())};
}

/// Shuffles `records` by `seed` and keeps the first `keep`.
std::vector<demon::Transaction> Deal(std::vector<demon::Transaction> records,
                                     size_t keep, uint64_t seed) {
  demon::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5851F42D4C957F2DULL);
  rng.Shuffle(&records);
  records.resize(keep);
  return records;
}

/// Cuts `records` into consecutive blocks of `block_records`, numbered
/// from `first_id` (as DemonMonitor numbers arrivals) with TIDs from
/// `first_tid`.
std::vector<BlockPtr> Cut(std::vector<demon::Transaction> records,
                          size_t block_records, size_t first_id,
                          demon::Tid first_tid) {
  std::vector<BlockPtr> blocks;
  for (size_t start = 0; start < records.size(); start += block_records) {
    const size_t end = std::min(records.size(), start + block_records);
    std::vector<demon::Transaction> part(
        std::make_move_iterator(records.begin() + static_cast<long>(start)),
        std::make_move_iterator(records.begin() + static_cast<long>(end)));
    TransactionBlock block(std::move(part), first_tid + start);
    block.mutable_info()->id =
        static_cast<demon::BlockId>(first_id + blocks.size());
    blocks.push_back(std::make_shared<const TransactionBlock>(std::move(block)));
  }
  return blocks;
}

/// Episode `episode` of the fleet stream: the episode's own stretch of the
/// fixed table's stream, dealt into blocks in an order drawn by `seed`.
/// Every seed sees the same records per episode, in different blocks.
Workload MakeFleet(uint64_t seed, size_t episode, size_t blocks) {
  const size_t block_records = kFleet.block_records;
  Workload w;
  w.name = "fleet";
  w.minsup = 0.005;
  w.window = 3;
  const size_t records = (blocks + 1) * block_records;
  const std::vector<BlockPtr> all =
      Cut(Deal(Draw(kFleetTable, 4.0, episode * records, records), records,
               seed * 1000003ULL + episode),
          block_records, 1, 0);
  w.setup_blocks.assign(all.begin(), all.begin() + 1);
  w.timed_blocks.assign(all.begin() + 1, all.end());
  w.specs.push_back({.kind = MonitorKind::kUnrestrictedItemsets,
                     .name = "uw-ecut",
                     .minsup = w.minsup,
                     .strategy = CountingStrategy::kEcut});
  w.specs.push_back({.kind = MonitorKind::kUnrestrictedItemsets,
                     .name = "uw-ecutplus",
                     .minsup = w.minsup,
                     .strategy = CountingStrategy::kEcutPlus});
  w.specs.push_back({.kind = MonitorKind::kWindowedItemsets,
                     .name = "mrw-itemsets",
                     .window = w.window,
                     .minsup = w.minsup,
                     .strategy = CountingStrategy::kEcut});
  w.specs.push_back({.kind = MonitorKind::kPatterns,
                     .name = "patterns",
                     .minsup = w.minsup,
                     .alpha = 0.95});
  return w;
}

/// Episode `episode` of the shift stream: every block is a sample drawn by
/// (seed, episode), without replacement, from twice as many records of its
/// pattern table.
Workload MakeShift(uint64_t seed, size_t episode, size_t blocks) {
  const size_t block_records = kShift.block_records;
  const size_t history_records = kShift.history_records;
  Workload w;
  w.name = "shift";
  w.minsup = 0.008;
  const uint64_t draw = seed * 1000003ULL + episode;
  w.setup_blocks =
      Cut(Deal(Draw(kHistoryTable, 4.0, 0, 2 * history_records),
               history_records, draw),
          history_records, 1, 0);
  size_t raw_slots = w.setup_blocks[0]->TotalItemOccurrences();
  for (size_t b = 0; b < blocks; ++b) {
    // A fresh pattern table per block: every block shifts the distribution.
    BlockPtr block =
        Cut(Deal(Draw(kShiftTableBase + b, 5.0, 0, 2 * block_records),
                 block_records, draw + b),
            block_records, b + 2, history_records + b * block_records)[0];
    raw_slots += block->TotalItemOccurrences();
    w.timed_blocks.push_back(std::move(block));
  }
  // The budget derives from the input alone (raw TID-list bytes), never
  // from the encoded size, so a change of encoding cannot move the input.
  const size_t budget = static_cast<size_t>(
      kShift.budget_share_of_raw *
      static_cast<double>(raw_slots * sizeof(uint32_t)));
  for (const auto& [name, strategy] :
       {std::pair{"uw-ptscan", CountingStrategy::kPtScan},
        std::pair{"uw-ecut", CountingStrategy::kEcut},
        std::pair{"uw-ecutplus", CountingStrategy::kEcutPlus}}) {
    w.specs.push_back({.kind = MonitorKind::kUnrestrictedItemsets,
                       .name = name,
                       .minsup = w.minsup,
                       .strategy = strategy,
                       .tidlist_budget_bytes = budget});
  }
  return w;
}

std::vector<TransactionBlock> Copies(const std::vector<BlockPtr>& blocks) {
  std::vector<TransactionBlock> out;
  out.reserve(blocks.size());
  for (const BlockPtr& b : blocks) out.push_back(*b);
  return out;
}

/// Specs with per-instance spill directories under `spill_root`.
std::vector<MonitorSpec> SpecsFor(const Workload& w,
                                  const std::string& spill_root) {
  ::mkdir(spill_root.c_str(), 0755);
  std::vector<MonitorSpec> specs = w.specs;
  for (MonitorSpec& spec : specs) {
    if (spec.tidlist_budget_bytes != 0) {
      spec.tidlist_spill_dir = spill_root + "/" + spec.name;
    }
  }
  return specs;
}

std::unique_ptr<DemonMonitor> NewSystem(const Workload& w,
                                        const EngineOptions& engine,
                                        const std::string& spill_root) {
  auto demon = std::make_unique<DemonMonitor>(kNumItems, engine);
  for (MonitorSpec& spec : SpecsFor(w, spill_root)) {
    const auto id = demon->AddMonitor(std::move(spec));
    DEMON_CHECK_MSG(id.ok(), "monitor registration failed");
  }
  return demon;
}

struct Span {
  const char* name;
  size_t block;
  double start;
  double end;
};

/// One closed-loop pass over the timed blocks.
struct LoopResult {
  std::vector<double> add_block_s;
  std::vector<double> quiesce_s;
  double wall_s = 0.0;
  double final_quiesce_s = 0.0;
  CpuSeconds cpu;
  std::vector<Span> spans;
};

LoopResult RunLoop(DemonMonitor* demon, const Workload& w) {
  LoopResult r;
  r.spans.reserve(2 * w.timed_blocks.size() + 1);
  const CpuSeconds cpu0 = ProcessCpuSeconds();
  const double start = NowSeconds();
  for (size_t b = 0; b < w.timed_blocks.size(); ++b) {
    TransactionBlock copy = *w.timed_blocks[b];
    const double t0 = NowSeconds();
    demon->Quiesce();
    const double t1 = NowSeconds();
    demon->AddBlock(std::move(copy));
    const double t2 = NowSeconds();
    r.quiesce_s.push_back(t1 - t0);
    r.add_block_s.push_back(t2 - t1);
    r.spans.push_back({"Quiesce", b, t0, t1});
    r.spans.push_back({"AddBlock", b, t1, t2});
  }
  const double q0 = NowSeconds();
  demon->Quiesce();
  const double end = NowSeconds();
  r.spans.push_back({"Quiesce", w.timed_blocks.size(), q0, end});
  r.final_quiesce_s = end - q0;
  r.wall_s = end - start;
  r.cpu = ProcessCpuSeconds() - cpu0;
  return r;
}

std::string SpansChromeJson(const std::vector<Span>& spans, double origin) {
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  for (size_t i = 0; i < spans.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"block\":%zu}}",
                  i > 0 ? "," : "", spans[i].name,
                  (spans[i].start - origin) * 1e6,
                  (spans[i].end - spans[i].start) * 1e6, spans[i].block);
    out += buf;
  }
  return out + "]}\n";
}

const ItemsetModel& ModelOf(const DemonMonitor& demon, size_t id) {
  return *demon.ItemsetModelOf(id).value();
}

/// Correctness gate over the e2e system: unrestricted models equal Apriori
/// from scratch over all blocks and equal each other; a windowed model
/// equals Apriori over the last w blocks; every maintained pattern
/// sequence is compact.
void CheckAgainstScratch(const Workload& w, const DemonMonitor& demon,
                         Checks* checks) {
  demon::ThreadPool pool(kEngineThreads);
  demon::CountingContext context(&pool);
  const std::vector<BlockPtr> all = w.AllBlocks();
  const ItemsetModel scratch = demon::Apriori(all, w.minsup, kNumItems, &context);
  const ItemsetModel* first_unrestricted = nullptr;
  for (size_t id = 0; id < w.specs.size(); ++id) {
    const MonitorSpec& spec = w.specs[id];
    if (spec.kind == MonitorKind::kUnrestrictedItemsets) {
      const ItemsetModel& model = ModelOf(demon, id);
      checks->Add(spec.name + "_equals_apriori", SameModel(model, scratch));
      if (first_unrestricted == nullptr) {
        first_unrestricted = &model;
      } else {
        checks->Add(spec.name + "_equals_" + w.specs[0].name,
                    SameModel(model, *first_unrestricted));
      }
    } else if (spec.kind == MonitorKind::kWindowedItemsets) {
      const std::vector<BlockPtr> last(all.end() - static_cast<long>(spec.window),
                                       all.end());
      checks->Add(spec.name + "_equals_apriori_last_w",
                  SameModel(ModelOf(demon, id),
                            demon::Apriori(last, w.minsup, kNumItems, &context)));
    } else if (spec.kind == MonitorKind::kPatterns) {
      const CompactSequenceMiner& miner = *demon.PatternsOf(id).value();
      bool compact = miner.sequences().size() == all.size();
      for (const auto& sequence : miner.sequences()) {
        compact = compact && miner.IsCompact(sequence);
      }
      checks->Add(spec.name + "_sequences_compact", compact);
    }
  }
}

uint64_t SequencesDigest(const std::vector<std::vector<size_t>>& sequences) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& sequence : sequences) {
    for (const size_t block : sequence) h = (h ^ block) * 1099511628211ULL;
    h = (h ^ 0xFFFF) * 1099511628211ULL;
  }
  return h;
}

/// One digest per monitor (itemset model, or maintained sequences), so
/// systems can be compared after each is destroyed.
std::vector<uint64_t> Digests(const Workload& w, const DemonMonitor& demon) {
  std::vector<uint64_t> out;
  for (size_t id = 0; id < w.specs.size(); ++id) {
    out.push_back(w.specs[id].kind == MonitorKind::kPatterns
                      ? SequencesDigest(demon.PatternsOf(id).value()->sequences())
                      : ModelDigest(ModelOf(demon, id)));
  }
  return out;
}

std::vector<uint64_t> Counters(demon::telemetry::TelemetryRegistry* registry) {
  std::vector<uint64_t> out;
  for (const char* name : kCounterNames) {
    out.push_back(registry->counter(name)->value());
  }
  return out;
}

JsonObject CounterJson(const std::vector<uint64_t>& values) {
  JsonObject out;
  for (size_t i = 0; i < values.size(); ++i) out.Int(kCounterNames[i], values[i]);
  return out;
}

/// The sequential decomposed replay: every layer's public entry point
/// driven directly, one call at a time, on the workload's blocks.
JsonObject DecomposedReplay(const Workload& w, const std::string& spill_root,
                            const std::vector<uint64_t>& e2e_digests,
                            const std::vector<uint64_t>& seq_digests,
                            const std::vector<uint64_t>& seq_counters,
                            Checks* checks) {
  demon::telemetry::TelemetryRegistry registry;
  const std::vector<MonitorSpec> specs = SpecsFor(w, spill_root);
  // Unrestricted BORDERS maintainers by spec id (null for other kinds).
  std::vector<std::unique_ptr<BordersMaintainer>> borders(specs.size());
  std::unique_ptr<GemmT> gemm;
  std::unique_ptr<CompactSequenceMiner> miner;
  for (size_t id = 0; id < specs.size(); ++id) {
    const MonitorSpec& spec = specs[id];
    BordersOptions options;
    options.minsup = spec.minsup;
    options.num_items = kNumItems;
    options.strategy = spec.strategy;
    options.tidlist_budget_bytes = spec.tidlist_budget_bytes;
    options.tidlist_spill_dir = spec.tidlist_spill_dir;
    if (spec.kind == MonitorKind::kUnrestrictedItemsets) {
      borders[id] = std::make_unique<BordersMaintainer>(options);
      borders[id]->set_telemetry(&registry);
    } else if (spec.kind == MonitorKind::kWindowedItemsets) {
      gemm = std::make_unique<GemmT>(spec.bss, spec.window,
                                     [options, &registry] {
                                       BordersMaintainer maintainer(options);
                                       maintainer.set_telemetry(&registry);
                                       return maintainer;
                                     });
      gemm->set_telemetry(&registry);
    } else if (spec.kind == MonitorKind::kPatterns) {
      CompactSequenceMiner::Options miner_options;
      miner_options.focus.minsup = spec.minsup;
      miner_options.focus.num_items = kNumItems;
      miner_options.alpha = spec.alpha;
      miner_options.window_size = spec.window;
      miner = std::make_unique<CompactSequenceMiner>(miner_options);
      miner->set_telemetry(&registry);
    }
  }
  // The first unrestricted ECUT monitor carries the candidate-yield and
  // encoding-census measurements.
  size_t ecut_id = specs.size();
  size_t ecutplus_id = specs.size();
  for (size_t id = 0; id < specs.size(); ++id) {
    if (borders[id] == nullptr) continue;
    if (specs[id].strategy == CountingStrategy::kEcut && ecut_id == specs.size()) {
      ecut_id = id;
    }
    if (specs[id].strategy == CountingStrategy::kEcutPlus) ecutplus_id = id;
  }

  double borders_add = 0.0, detect = 0.0, update = 0.0, build = 0.0;
  double gemm_begin = 0.0, gemm_drain = 0.0, patterns_add = 0.0;
  double apriori_s = 0.0;
  uint64_t new_candidates = 0, update_iterations = 0, newly_frequent = 0;
  const std::vector<BlockPtr> all = w.AllBlocks();
  for (size_t b = 0; b < all.size(); ++b) {
    const bool timed = b >= w.setup_blocks.size();
    const BlockPtr& block = all[b];
    for (size_t id = 0; id < specs.size(); ++id) {
      BordersMaintainer* m = borders[id].get();
      if (m == nullptr) continue;
      if (timed && specs[id].strategy != CountingStrategy::kPtScan) {
        // The TID-list build the maintainer does inside AddBlock, with the
        // ECUT+ pair specification taken from the model before the block.
        demon::PairMaterializationSpec spec;
        const bool pairs = specs[id].strategy == CountingStrategy::kEcutPlus;
        if (pairs) {
          spec.pairs = m->model().Frequent2ItemsetsBySupport();
          spec.budget_slots = static_cast<size_t>(
              m->options().pair_budget_fraction *
              static_cast<double>(block->TotalItemOccurrences()));
        }
        const double t0 = NowSeconds();
        const auto lists =
            BlockTidLists::Build(*block, kNumItems, pairs ? &spec : nullptr);
        build += NowSeconds() - t0;
        DEMON_CHECK(lists->num_transactions() == block->size());
      }
      demon::ItemsetSet tracked_before;
      if (timed && id == ecut_id) {
        for (const auto& [itemset, entry] : m->model().entries()) {
          tracked_before.insert(itemset);
        }
      }
      const double t0 = NowSeconds();
      m->AddBlock(block);
      const double dt = NowSeconds() - t0;
      if (!timed) {
        // The set-up block's detection phase is the Apriori base case.
        if (id == ecut_id) apriori_s = m->last_stats().detection_seconds;
        continue;
      }
      borders_add += dt;
      detect += m->last_stats().detection_seconds;
      update += m->last_stats().update_seconds;
      new_candidates += m->last_stats().new_candidates;
      update_iterations += m->last_stats().update_iterations;
      if (id == ecut_id) {
        for (const auto& [itemset, entry] : m->model().entries()) {
          if (entry.frequent && tracked_before.count(itemset) == 0) {
            ++newly_frequent;
          }
        }
      }
    }
    if (gemm != nullptr) {
      const double t0 = NowSeconds();
      gemm->BeginBlock(block);
      const double t1 = NowSeconds();
      gemm->DrainOffline();
      const double t2 = NowSeconds();
      if (timed) {
        gemm_begin += t1 - t0;
        gemm_drain += t2 - t1;
      }
    }
    if (miner != nullptr) {
      const double t0 = NowSeconds();
      miner->AddBlock(block);
      if (timed) patterns_add += NowSeconds() - t0;
    }
  }

  // Models of the replay must equal the sequential engine's and the
  // 4-thread e2e system's; the exact counters of the two sequential
  // replays (engine-driven and direct) must agree.
  std::vector<uint64_t> replay_digests;
  for (size_t id = 0; id < specs.size(); ++id) {
    if (borders[id] != nullptr) {
      replay_digests.push_back(ModelDigest(borders[id]->model()));
    } else if (specs[id].kind == MonitorKind::kWindowedItemsets) {
      replay_digests.push_back(ModelDigest(gemm->current().model()));
    } else {
      replay_digests.push_back(SequencesDigest(miner->sequences()));
    }
  }
  checks->Add("e2e_models_equal_sequential_replay", replay_digests == e2e_digests);
  checks->Add("e2e_models_equal_engine_num_threads_0", seq_digests == e2e_digests);
  const std::vector<uint64_t> replay_counters = Counters(&registry);
  checks->Add("sequential_replays_counters_identical",
              replay_counters == seq_counters);

  // Tier-level numbers: pager and encoding census after the block replay.
  uint64_t page_ins = 0, evictions = 0, peak_resident = 0;
  for (const auto& m : borders) {
    if (m == nullptr || m->tidlist_store().pager() == nullptr) continue;
    const auto& pager = m->tidlist_store().pager();
    page_ins += pager->page_ins();
    evictions += pager->evictions();
    peak_resident = std::max<uint64_t>(peak_resident, pager->peak_resident_bytes());
  }
  uint64_t payload = 0, raw = 0, delta = 0, bitmap = 0;
  if (ecut_id < specs.size()) {
    const demon::TidListStore& store = borders[ecut_id]->tidlist_store();
    payload = store.TotalPayloadBytes();
    for (size_t i = 0; i < store.NumBlocks(); ++i) {
      raw += store.block(i).EncodingCensus(demon::TidEncoding::kRaw);
      delta += store.block(i).EncodingCensus(demon::TidEncoding::kDelta);
      bitmap += store.block(i).EncodingCensus(demon::TidEncoding::kBitmap);
    }
  }

  // Each counting strategy over the final L ∪ NB- (a fixed stride sample
  // of at most kCountSample itemsets in sorted order): timed, and checked
  // against the maintained counts.
  double count_s[3] = {0.0, 0.0, 0.0};
  if (ecut_id < specs.size() && ecutplus_id < specs.size()) {
    const ItemsetModel& model = borders[ecut_id]->model();
    std::vector<demon::Itemset> tracked;
    for (const auto& [itemset, entry] : model.entries()) tracked.push_back(itemset);
    std::sort(tracked.begin(), tracked.end(), demon::ItemsetLess());
    const size_t stride = (tracked.size() + kCountSample - 1) / kCountSample;
    std::vector<demon::Itemset> itemsets;
    std::vector<uint64_t> expected;
    for (size_t i = 0; i < tracked.size(); i += std::max<size_t>(stride, 1)) {
      itemsets.push_back(tracked[i]);
      expected.push_back(model.CountOf(tracked[i]));
    }
    demon::CountingContext context;
    const struct {
      const char* name;
      CountingStrategy strategy;
      const demon::TidListStore* store;
    } passes[] = {
        {"ptscan", CountingStrategy::kPtScan, &borders[ecut_id]->tidlist_store()},
        {"ecut", CountingStrategy::kEcut, &borders[ecut_id]->tidlist_store()},
        {"ecutplus", CountingStrategy::kEcutPlus,
         &borders[ecutplus_id]->tidlist_store()},
    };
    for (size_t p = 0; p < 3; ++p) {
      const double t0 = NowSeconds();
      const std::vector<uint64_t> counts =
          context.Count(passes[p].strategy, itemsets, all, *passes[p].store);
      count_s[p] = NowSeconds() - t0;
      checks->Add(std::string("count_") + passes[p].name + "_equals_model",
                  counts == expected);
    }
  }

  double replayed_calls = borders_add + gemm_begin + gemm_drain + patterns_add;
  size_t sequences = 0;
  if (miner != nullptr) {
    for (const auto& sequence : miner->sequences()) sequences += sequence.size();
  }
  JsonObject out;
  out.Num("itemsets.borders.add_block_s", borders_add)
      .Num("itemsets.borders.detect_s", detect)
      .Num("itemsets.borders.update_s", update)
      .Int("itemsets.borders.new_candidates", new_candidates)
      .Int("itemsets.borders.update_iterations", update_iterations)
      .Int("itemsets.borders.newly_frequent", newly_frequent)
      .Num("itemsets.apriori_s", apriori_s)
      .Num("itemsets.count.ptscan_s", count_s[0])
      .Num("itemsets.count.ecut_s", count_s[1])
      .Num("itemsets.count.ecutplus_s", count_s[2])
      .Num("core.gemm.begin_block_s", gemm_begin)
      .Num("core.gemm.drain_offline_s", gemm_drain)
      .Num("patterns.add_block_s", patterns_add)
      .Int("patterns.sequences", sequences)
      .Num("tidlist.build_s", build)
      .Int("tidlist.payload_bytes", payload)
      .Int("tidlist.lists_raw", raw)
      .Int("tidlist.lists_delta", delta)
      .Int("tidlist.lists_bitmap", bitmap)
      .Int("tidlist.page_ins", page_ins)
      .Int("tidlist.evictions", evictions)
      .Int("tidlist.peak_resident_bytes", peak_resident)
      .Num("core.engine.replayed_calls_s", replayed_calls)
      .Obj("counters", CounterJson(replay_counters));
  return out;
}

int Main(int argc, char** argv) {
  demon::flags::FlagSet flags("engine_bench",
                              "fleet / shift workloads of the benchmark");
  flags.DefineString("workload", "fleet", "fleet or shift");
  flags.DefineInt("seed", 1, "input seed");
  flags.DefineInt("seconds", 12, "run length the input sizes are scaled to");
  flags.DefineBool("trace", false, "add the traced replays");
  flags.DefineString("work_dir", "", "scratch directory (spill files)");
  flags.DefineString("out", "", "result JSON path");
  const demon::Status parsed = flags.Parse(argc, argv);
  const std::string workload = flags.GetString("workload");
  if (!parsed.ok() || flags.GetString("work_dir").empty() ||
      flags.GetString("out").empty() || flags.GetInt("seconds") < 1 ||
      (workload != "fleet" && workload != "shift")) {
    std::fprintf(stderr, "engine_bench: %s\n%s", parsed.message().c_str(),
                 flags.HelpText().c_str());
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const Shape& shape = workload == "fleet" ? kFleet : kShift;
  const size_t blocks = std::max<size_t>(
      2, static_cast<size_t>(std::lround(static_cast<double>(flags.GetInt("seconds")) *
                                         shape.blocks_per_second /
                                         static_cast<double>(shape.episodes))));
  const std::string work = flags.GetString("work_dir");
  const bool trace = flags.GetBool("trace");
  auto make = [&](size_t episode) {
    return workload == "fleet" ? MakeFleet(seed, episode, blocks)
                               : MakeShift(seed, episode, blocks);
  };

  // Each episode: construct the system, register the monitors and feed the
  // set-up blocks until the last is accepted (set-up), then run the timed
  // blocks closed-loop, then check the models (not timed).
  EngineOptions engine;
  engine.num_threads = kEngineThreads;
  engine.defer_offline = true;
  std::vector<double> setup_s, add_block_s, quiesce_s;
  // Set-up-only repetitions on episode 0's set-up blocks, when the run
  // has fewer episodes than set-ups: half before the episodes and half
  // after, so that the median samples the host across the run. A traced
  // run reports no set-up time and skips them.
  const size_t setup_only = trace ? 0 : shape.setups - shape.episodes;
  auto set_up_only = [&](size_t count) {
    for (size_t k = 0; k < count; ++k) {
      const Workload w = make(0);
      std::vector<TransactionBlock> copies = Copies(w.setup_blocks);
      const double t0 = NowSeconds();
      auto demon =
          NewSystem(w, engine, work + "/setup-" + std::to_string(setup_s.size()));
      for (TransactionBlock& block : copies) demon->AddBlock(std::move(block));
      setup_s.push_back(NowSeconds() - t0);
    }
  };
  set_up_only(setup_only / 2);
  double wall_s = 0.0, final_quiesce_s = 0.0, user_cpu_s = 0.0, system_cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> state_mb;
  bool peak_rss_reset = true;
  size_t timed_blocks = 0, timed_records = 0, spans = 0;
  Checks checks;
  Workload last;
  std::vector<uint64_t> last_digests;
  std::vector<Span> last_spans;
  for (size_t e = 0; e < shape.episodes; ++e) {
    Workload w = make(e);
    // The peak is the system's own: from its construction to the end of
    // its timed blocks, without earlier systems or the correctness gate.
    peak_rss_reset = ResetPeakRss() && peak_rss_reset;
    std::vector<TransactionBlock> copies = Copies(w.setup_blocks);
    const double heap0 = HeapInUseMb();
    const double t0 = NowSeconds();
    auto demon = NewSystem(w, engine, work + "/e2e-" + std::to_string(e));
    for (TransactionBlock& block : copies) demon->AddBlock(std::move(block));
    setup_s.push_back(NowSeconds() - t0);
    LoopResult loop = RunLoop(demon.get(), w);
    peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());
    // What the system's state holds once its last block is done: the
    // heap it allocated since it was built (its set-up block copies
    // included) and has not freed.
    state_mb.push_back(HeapInUseMb() - heap0);
    add_block_s.insert(add_block_s.end(), loop.add_block_s.begin(),
                       loop.add_block_s.end());
    quiesce_s.insert(quiesce_s.end(), loop.quiesce_s.begin(),
                     loop.quiesce_s.end());
    wall_s += loop.wall_s;
    final_quiesce_s += loop.final_quiesce_s;
    user_cpu_s += loop.cpu.user;
    system_cpu_s += loop.cpu.system;
    spans += loop.spans.size();
    timed_blocks += w.timed_blocks.size();
    for (const BlockPtr& b : w.timed_blocks) timed_records += b->size();
    CheckAgainstScratch(w, *demon, &checks);
    last_digests = Digests(w, *demon);
    last_spans = std::move(loop.spans);
    last = std::move(w);
  }
  set_up_only(setup_only - setup_only / 2);

  JsonObject out;
  out.Str("workload", workload)
      .Int("seed", seed)
      .Str("kernel_tier", demon::simd::ActiveKernelName())
      .Int("episodes", shape.episodes)
      .Int("timed_blocks", timed_blocks)
      .Int("timed_records", timed_records)
      .Nums("setup_s", setup_s)
      .Nums("add_block_s", add_block_s)
      .Nums("quiesce_s", quiesce_s)
      .Num("wall_s", wall_s)
      .Num("final_quiesce_s", final_quiesce_s)
      .Num("user_cpu_s", user_cpu_s)
      .Num("system_cpu_s", system_cpu_s)
      .Num("peak_rss_mb", peak_rss_mb)
      .Nums("state_mb", state_mb)
      .Bool("peak_rss_reset", peak_rss_reset);

  if (trace) {
    // The last episode again, sequentially: through the engine at
    // num_threads = 0, then through each layer directly.
    auto seq = NewSystem(last, EngineOptions{}, work + "/seq");
    for (TransactionBlock& block : Copies(last.setup_blocks)) {
      seq->AddBlock(std::move(block));
    }
    const LoopResult seq_loop = RunLoop(seq.get(), last);
    const std::vector<uint64_t> seq_digests = Digests(last, *seq);
    const std::vector<uint64_t> seq_counters = Counters(seq->telemetry());
    seq.reset();
    JsonObject layers = DecomposedReplay(last, work + "/direct", last_digests,
                                         seq_digests, seq_counters, &checks);
    double seq_total = seq_loop.final_quiesce_s;
    for (size_t b = 0; b < seq_loop.add_block_s.size(); ++b) {
      seq_total += seq_loop.add_block_s[b] + seq_loop.quiesce_s[b];
    }
    layers.Num("core.engine.seq_total_s", seq_total);
    JsonObject traced;
    traced.Obj("layers", layers)
        .Obj("engine_seq_counters", CounterJson(seq_counters))
        .Num("span_cost_s", SpanCostSeconds())
        .Int("spans", spans);
    out.Obj("trace", traced);
    if (!WriteFile(work + "/spans.json",
                   SpansChromeJson(last_spans, last_spans.front().start))) {
      std::fprintf(stderr, "engine_bench: cannot write spans\n");
      return 1;
    }
  }
  out.Obj("checks", checks.json()).Bool("correct", checks.all_ok());
  if (!WriteFile(flags.GetString("out"), out.ToString() + "\n")) {
    std::fprintf(stderr, "engine_bench: cannot write %s\n",
                 flags.GetString("out").c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
