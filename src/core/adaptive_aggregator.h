// Adaptive aggregation operator: online strategy selection with mid-query
// switching (ROADMAP open item #1).
//
// The Figure 12 advisor (core/advisor.h) picks a strategy before execution,
// but its decisive inputs — group cardinality, skew, working-set size versus
// the last-level cache — are only reliably known once data flows (the
// hash-vs-sort empirical study arXiv 2411.13245; Graefe's in-stream vs.
// sort-based merge analysis arXiv 2010.00152). This operator instead:
//
//   1. samples the first K morsels with the cheapest strategy (worker-local
//      tables — contention-free and trivially extractable);
//   2. at each chunk barrier feeds EstimateGroupCardinality plus an online
//      skew estimate into per-strategy cost models whose thresholds are
//      keyed to the detected L3 size (util/cpu_cache.h, shared with
//      sim/cache_model.h's detected hierarchy);
//   3. switches among local-partition/central-merge, local-partition/
//      tree-merge, radix-partition, shared-map, and the hash→sort fallback
//      by moving the partially built group state through the
//      MigratableAggregator interface (core/migratable.h) — consumed rows
//      are never reprocessed;
//   4. re-dispatches the remaining morsels of the same deterministic grid to
//      the new strategy (Executor::ParallelForMorsels).
//
// Chunks grow geometrically, so the barrier count is O(log morsels) and the
// decision overhead amortizes to nothing. Switch points, rows migrated, and
// the final strategy are recorded in QueryStats (kStrategySwitches,
// kRowsMigrated, kAdaptiveStrategy); switch_trace() exposes the full
// decision path for benchmark reports. Cost-model details and calibration
// notes live in docs/adaptive.md.

#ifndef MEMAGG_CORE_ADAPTIVE_AGGREGATOR_H_
#define MEMAGG_CORE_ADAPTIVE_AGGREGATOR_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "core/advisor.h"
#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/hash_aggregator.h"
#include "core/local_partition_aggregator.h"
#include "core/migratable.h"
#include "core/operator.h"
#include "core/parallel_aggregator.h"
#include "core/radix_partition_aggregator.h"
#include "core/result.h"
#include "core/sort_aggregator.h"
#include "core/sorters.h"
#include "exec/executor.h"
#include "hash/linear_probing_map.h"
#include "obs/query_stats.h"
#include "util/cpu_cache.h"
#include "util/macros.h"

namespace memagg {

/// The adaptive operator's strategy inventory. kSerialHash is the
/// single-worker degenerate case; the parallel five are the classic
/// parallel-aggregation designs (Cieslewicz & Ross lineage).
enum class AggStrategy : int {
  kSerialHash = 0,  ///< HashVectorAggregator<LinearProbingMap> (1 worker).
  kLocalCentral,    ///< Worker-local tables, serial central merge.
  kLocalTree,       ///< Worker-local tables, parallel pairwise-tree merge.
  kRadix,           ///< Incremental radix partitioning, per-partition tables.
  kSharedMap,       ///< One lock-striped shared table, no merge phase.
  kSort,            ///< Buffer + parallel sort + run scan (high-cardinality
                    ///< fallback: aggregation degenerates, sorting streams).
};
inline constexpr int kNumAggStrategies = 6;

/// Stable lowercase identifier (switch traces, bench JSON).
const char* AggStrategyName(AggStrategy strategy);

/// Tuning knobs; the defaults are the measured configuration. The test
/// hooks (force_strategy, rotate, chunk_morsels) exist so correctness tests
/// can pin or exercise the switching machinery deterministically.
struct AdaptiveOptions {
  size_t sample_morsels = 2;    ///< K: morsels consumed before first decision.
  size_t l3_bytes = 0;          ///< Cost-model LLC size; 0 = detect.
  double switch_margin = 0.8;   ///< Switch only if predicted cost (incl.
                                ///< migration) < margin × staying cost.
  int force_strategy = -1;      ///< >= 0: pin to this AggStrategy, never switch.
  bool rotate = false;          ///< Ignore the cost model; switch to the next
                                ///< applicable strategy at every barrier.
  size_t chunk_morsels = 0;     ///< Fixed chunk size; 0 = geometric doubling.
};

/// Cheap strided sample statistics over the key column (the online skew
/// estimate): fraction of the sample occupied by its most frequent key, the
/// fraction of sampled keys seen once, and the distinct count.
struct KeySampleStats {
  double top_frac = 0.0;
  double singleton_frac = 0.0;
  size_t distinct = 0;
  size_t sampled = 0;
};
KeySampleStats MeasureKeySample(const uint64_t* keys, size_t n);

/// Everything the cost models consume at a decision barrier.
struct StrategyCostInputs {
  double rows_remaining = 0;  ///< Rows not yet consumed.
  double rows_total = 0;      ///< n.
  double est_groups = 1;      ///< Estimated total distinct groups.
  double skew = 0;            ///< KeySampleStats::top_frac.
  int workers = 1;
  double l3_bytes = 0;        ///< Detected LLC size.
  double entry_bytes = 24;    ///< Estimated bytes per resident group entry.
};

/// True if `strategy` can run under `workers` workers at all.
bool StrategyApplicable(AggStrategy strategy, int workers);

/// Predicted cycles to finish the remaining rows with `strategy` (build +
/// its merge/finish obligations; excludes migration). +inf if inapplicable.
double EstimatedStrategyCost(AggStrategy strategy,
                             const StrategyCostInputs& in);

/// Cycles to move the current partial state into `to`. Free for the
/// central-merge ↔ tree-merge pair: they share the structure and differ only
/// in how the finish phase merges it.
double EstimatedMigrationCost(AggStrategy from, AggStrategy to,
                              const ProgressSnapshot& progress);

/// argmin of EstimatedStrategyCost over the applicable strategies.
AggStrategy ChooseAggStrategy(const StrategyCostInputs& in);

/// Next applicable strategy after `current` in enum order (rotation hook).
AggStrategy NextApplicableStrategy(AggStrategy current, int workers);

/// The adaptive operator. Registered in the engine as "Adaptive" and used by
/// the experiment driver's "auto" label for vector queries.
template <MergeableAggregatePolicy Aggregate>
class AdaptiveAggregator final : public VectorAggregator {
 public:
  using State = typename Aggregate::State;
  using Partial = PartialAggState<Aggregate>;

  /// Holistic aggregates buffer every value per group (the FinalizeRun
  /// probe, as in core/hybrid_aggregator.h) — their resident entries are
  /// fat, which the cost models must know.
  static constexpr bool kHolistic =
      requires(uint64_t* v, size_t c) { Aggregate::FinalizeRun(v, c); };

  AdaptiveAggregator(size_t expected_size, ExecutionContext exec,
                     AdaptiveOptions options = {}, Aggregate agg = {})
      : agg_(std::move(agg)),
        exec_(exec),
        opt_(options),
        expected_size_(expected_size) {
    if (opt_.l3_bytes == 0) opt_.l3_bytes = DetectedL3CacheBytes();
    // Calibration aid (docs/adaptive.md): log every barrier decision.
    debug_ = std::getenv("MEMAGG_ADAPTIVE_DEBUG") != nullptr;
  }

  void ReserveGroups(size_t expected_groups) override {
    reserve_hint_ = expected_groups;
  }

  void Build(const uint64_t* keys, const uint64_t* values, size_t n) override {
    Executor executor(exec_);
    const int workers = executor.num_workers();
    rows_total_ = n;

    AggStrategy first = workers > 1 ? AggStrategy::kLocalCentral
                                    : AggStrategy::kSerialHash;
    if (opt_.force_strategy >= 0) {
      first = static_cast<AggStrategy>(opt_.force_strategy);
      MEMAGG_CHECK(StrategyApplicable(first, workers));
    }
    // One-time strided probes over the full (in-memory) column — O(4096)
    // each, independent of n — run *before* the first strategy exists: the
    // group estimate sizes its tables. Reserving for n rows (the fixed
    // operators' safe bound) would zero tens of MB inside the query.
    const KeySampleStats sample = MeasureKeySample(keys, n);
    const size_t estimated =
        n == 0 ? 1
               : (reserve_hint_ != 0 ? reserve_hint_
                                     : EstimateGroupCardinality(keys, n));
    const double est_groups =
        static_cast<double>(std::max<size_t>(1, estimated));
    StartStrategy(first, GroupCapacityFor(first, est_groups, n == 0 ? 1 : n),
                  n == 0 ? 1 : n);
    if (n == 0) return;

    const size_t grain = executor.MorselRows(n);
    const size_t num_morsels = NumMorselsFor(n, grain);

    size_t next_morsel = 0;
    // Geometric mode starts with at least one morsel per worker, so the
    // sampling chunk already runs at full parallelism.
    size_t chunk = std::max<size_t>(
        1, opt_.chunk_morsels != 0
               ? opt_.chunk_morsels
               : std::max(opt_.sample_morsels, static_cast<size_t>(workers)));
    while (next_morsel < num_morsels) {
      const size_t until = std::min(num_morsels, next_morsel + chunk);
      executor.ParallelForMorsels(
          n, next_morsel, until,
          [&](const Morsel& m) { mig_->ConsumeMorsel(keys, values, m); },
          grain);
      next_morsel = until;
      if (next_morsel >= num_morsels) break;
      if (opt_.force_strategy >= 0) {
        chunk = num_morsels;  // Pinned: consume the rest in one go.
        continue;
      }
      DecideAtBarrier(n, est_groups, sample, workers);
      if (opt_.chunk_morsels == 0) chunk *= 2;
    }
  }

  VectorResult Iterate() override {
    if (mig_ == nullptr) StartStrategy(AggStrategy::kSerialHash, 1, 1);
    return mig_->Finish();
  }

  size_t NumGroups() const override {
    return op_ == nullptr ? 0 : op_->NumGroups();
  }

  size_t DataStructureBytes() const override {
    return op_ == nullptr ? 0 : op_->DataStructureBytes();
  }

  void CollectStats(QueryStats* stats) const override {
    stats->Merge(stats_);
    stats->MaxOf(StatCounter::kAdaptiveStrategy,
                 static_cast<uint64_t>(current_) + 1);
    // Only the strategy the query ended on still holds structures; the
    // stats of switched-away strategies died with them (their rows are
    // accounted by kRowsMigrated).
    if (op_ != nullptr) op_->CollectStats(stats);
  }

  /// Decision path, e.g. "local-central@0->radix@262144": strategy names
  /// joined by the row counts at which each switch happened.
  const std::string& switch_trace() const { return trace_; }

  AggStrategy current_strategy() const { return current_; }

  uint64_t strategy_switches() const {
    return stats_.Get(StatCounter::kStrategySwitches);
  }

 private:
  /// Table capacity for a strategy's constructor: twice the group estimate
  /// (headroom for the GEE error band — the maps rehash-grow past it), never
  /// more than the rows it could possibly hold. The worker-local designs
  /// split the capacity across workers but every worker can meet every group
  /// on shuffled data, so their budget scales back up by the worker count.
  size_t GroupCapacityFor(AggStrategy strategy, double est_groups,
                          size_t max_rows) const {
    if (strategy == AggStrategy::kSort) return max_rows;  // Buffers rows.
    double capacity = std::max(64.0, 2.0 * est_groups);
    if (strategy == AggStrategy::kLocalCentral ||
        strategy == AggStrategy::kLocalTree) {
      capacity *= Executor(exec_).num_workers();
    }
    return static_cast<size_t>(
        std::min(static_cast<double>(max_rows), capacity));
  }

  void StartStrategy(AggStrategy strategy, size_t expected_groups,
                     size_t expected_rows) {
    const int workers = Executor(exec_).num_workers();
    switch (strategy) {
      case AggStrategy::kSerialHash: {
        MEMAGG_CHECK(workers == 1);
        auto op = std::make_unique<
            HashVectorAggregator<LinearProbingMap, Aggregate>>(expected_groups,
                                                               agg_);
        mig_ = op.get();
        op_ = std::move(op);
        break;
      }
      case AggStrategy::kLocalCentral:
      case AggStrategy::kLocalTree: {
        auto op = std::make_unique<LocalPartitionAggregator<Aggregate>>(
            expected_groups, exec_,
            strategy == AggStrategy::kLocalTree ? LocalMergeMode::kTree
                                                : LocalMergeMode::kCentral,
            agg_);
        mig_ = op.get();
        op_ = std::move(op);
        break;
      }
      case AggStrategy::kRadix: {
        auto op = std::make_unique<RadixPartitionAggregator<Aggregate>>(
            expected_groups, exec_, agg_);
        mig_ = op.get();
        op_ = std::move(op);
        break;
      }
      case AggStrategy::kSharedMap: {
        auto op = std::make_unique<StripedParallelAggregator<Aggregate>>(
            expected_groups, exec_, agg_);
        mig_ = op.get();
        op_ = std::move(op);
        break;
      }
      case AggStrategy::kSort: {
        BlockIndirectSorter sorter;
        sorter.num_threads = exec_.num_threads;
        auto op = std::make_unique<
            SortVectorAggregator<BlockIndirectSorter, Aggregate>>(sorter,
                                                                  agg_);
        mig_ = op.get();
        op_ = std::move(op);
        break;
      }
    }
    mig_->BeginConsume(workers, expected_rows);
    current_ = strategy;
    if (trace_.empty()) {
      trace_ = std::string(AggStrategyName(strategy)) + "@0";
    }
  }

  void DecideAtBarrier(size_t n, double est_groups_full,
                       const KeySampleStats& sample, int workers) {
    const ProgressSnapshot progress = mig_->Progress();
    const double rows_seen = static_cast<double>(progress.rows);
    const double rows_remaining =
        static_cast<double>(n) - std::min(static_cast<double>(n), rows_seen);
    if (rows_remaining <= 0) return;

    // Group estimate: before any data flowed, the strided column estimate
    // (GEE) is all there is — but its scale-up both overshoots mid-range
    // cardinalities and sits a sqrt(n/sample) band below the truth on
    // all-distinct data. Once rows flowed, the live structures carry a
    // strictly better signal: under a uniform draw from C groups the
    // expected distinct count after r rows is D = C(1 - e^(-r/C)) (coupon
    // collector), so the observed (r, D) pair inverts to C by bisection.
    // Worker-local tables count a global group once per worker that saw it,
    // which is exactly the discovery curve of r/workers draws — hence the
    // basis division. The sort strategy reports groups == 0 and keeps the
    // sample estimate.
    double est_groups = est_groups_full;
    if (progress.groups > 0) {
      const bool local_tables = current_ == AggStrategy::kLocalCentral ||
                                current_ == AggStrategy::kLocalTree;
      const double basis = local_tables ? workers : 1.0;
      const double d = static_cast<double>(progress.groups) / basis;
      const double r = rows_seen / basis;
      double live = static_cast<double>(n);
      if (d < 0.98 * r) {  // Any saturation signal yet?
        double lo = d;
        double hi = static_cast<double>(n);
        for (int it = 0; it < 40; ++it) {
          const double mid = 0.5 * (lo + hi);
          const double predicted = mid * (1.0 - std::exp(-r / mid));
          (predicted < d ? lo : hi) = mid;
        }
        live = 0.5 * (lo + hi);
      }
      est_groups =
          std::min(static_cast<double>(n), std::max(d, live));
    }

    StrategyCostInputs in;
    in.rows_remaining = rows_remaining;
    in.rows_total = static_cast<double>(n);
    in.est_groups = est_groups;
    in.skew = sample.top_frac;
    in.workers = workers;
    in.l3_bytes = static_cast<double>(opt_.l3_bytes);
    in.entry_bytes = static_cast<double>(sizeof(State)) + 16.0 +
                     (kHolistic ? 8.0 * in.rows_total / est_groups : 0.0);

    AggStrategy best = opt_.rotate ? NextApplicableStrategy(current_, workers)
                                   : ChooseAggStrategy(in);
    const double stay = EstimatedStrategyCost(current_, in);
    const double migration = EstimatedMigrationCost(current_, best, progress);
    const double go = EstimatedStrategyCost(best, in) + migration;
    if (debug_) {
      std::fprintf(stderr,
                   "[adaptive] rows=%.0f/%zu est=%.0f (sample %.0f) "
                   "stay=%s %.3gMcy best=%s %.3gMcy(+mig)\n",
                   rows_seen, n, est_groups, est_groups_full,
                   AggStrategyName(current_), stay / 1e6,
                   AggStrategyName(best), go / 1e6);
    }
    if (best == current_) return;
    // The margin hedges against migration that the model got wrong; a free
    // migration has nothing to hedge, so any predicted gain is worth taking.
    const double margin = migration == 0.0 ? 1.0 : opt_.switch_margin;
    if (!opt_.rotate && go >= margin * stay) return;
    SwitchTo(best, rows_remaining, est_groups, progress);
  }

  void SwitchTo(AggStrategy next, double rows_remaining, double est_groups,
                const ProgressSnapshot& progress) {
    const auto is_local = [](AggStrategy s) {
      return s == AggStrategy::kLocalCentral || s == AggStrategy::kLocalTree;
    };
    if (is_local(current_) && is_local(next)) {
      // Same structure, different finish: flip the merge mode in place.
      static_cast<LocalPartitionAggregator<Aggregate>*>(op_.get())
          ->set_merge_mode(next == AggStrategy::kLocalTree
                               ? LocalMergeMode::kTree
                               : LocalMergeMode::kCentral);
      current_ = next;
      stats_.Add(StatCounter::kStrategySwitches, 1);
      trace_ += "->";
      trace_ += AggStrategyName(next);
      trace_ += "@0";
      return;
    }
    Partial partial = mig_->ExtractPartialState();
    const uint64_t moved = partial.rows;
    // Destroy the drained strategy before building its successor so peak
    // memory holds one structure plus the (compact) partial state.
    mig_ = nullptr;
    op_.reset();
    const size_t max_rows = static_cast<size_t>(rows_remaining) +
                            std::max<uint64_t>(moved, progress.groups);
    StartStrategy(next, GroupCapacityFor(next, est_groups, max_rows),
                  max_rows);
    mig_->AbsorbPartialState(std::move(partial));
    stats_.Add(StatCounter::kStrategySwitches, 1);
    stats_.Add(StatCounter::kRowsMigrated, moved);
    trace_ += "->";
    trace_ += AggStrategyName(next);
    trace_ += "@";
    trace_ += std::to_string(moved);
  }

  [[no_unique_address]] Aggregate agg_;
  ExecutionContext exec_;
  AdaptiveOptions opt_;
  size_t expected_size_;
  size_t reserve_hint_ = 0;
  uint64_t rows_total_ = 0;
  std::unique_ptr<VectorAggregator> op_;           ///< Owning handle.
  MigratableAggregator<Aggregate>* mig_ = nullptr; ///< Same object, migratable view.
  AggStrategy current_ = AggStrategy::kSerialHash;
  bool debug_ = false;        ///< MEMAGG_ADAPTIVE_DEBUG decision logging.
  std::string trace_;
  QueryStats stats_;  ///< Switch accounting (merged in CollectStats).
};

}  // namespace memagg

#endif  // MEMAGG_CORE_ADAPTIVE_AGGREGATOR_H_
