// Thread-local partitioned aggregation (extension).
//
// The paper's Section 5.8/7 frames the key design question for parallel
// aggregation: should threads share one concurrent structure, or work
// independently and merge (Cieslewicz & Ross VLDB'07; Ye et al.'s PLAT)?
// The Table 8 operators answer "share"; this operator implements the
// "independent" strategy so the two can be compared: each worker aggregates
// the morsels it claims into a private linear-probing table (no
// synchronization at all during the build), and the iterate phase merges the
// per-worker tables.
//
// The classic trade-off reproduces directly: with few groups the merge is
// negligible and local tables scale perfectly; with many groups the merge
// re-processes every group once per thread. Works for all aggregate
// categories — holistic states merge by buffer concatenation.

#ifndef MEMAGG_CORE_LOCAL_PARTITION_AGGREGATOR_H_
#define MEMAGG_CORE_LOCAL_PARTITION_AGGREGATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/migratable.h"
#include "core/operator.h"
#include "core/result.h"
#include "exec/executor.h"
#include "hash/linear_probing_map.h"
#include "obs/query_stats.h"
#include "util/encoded_key.h"
#include "util/macros.h"

namespace memagg {

/// How LocalPartitionAggregator combines its per-worker tables at iterate
/// time. kCentral merges every table into the first serially (cheap when
/// groups are few); kTree merges disjoint pairs in parallel rounds, halving
/// the table count per round (log2(workers) parallel rounds — wins when the
/// per-table group count is large enough that one thread's merge dominates).
enum class LocalMergeMode { kCentral, kTree };

/// Independent worker-local tables, merged at iterate time — which is why
/// the aggregate must be mergeable.
template <MergeableAggregatePolicy Aggregate>
class LocalPartitionAggregator final : public VectorAggregator,
                                       public MigratableAggregator<Aggregate> {
 public:
  using State = typename Aggregate::State;
  using Partial = PartialAggState<Aggregate>;

  LocalPartitionAggregator(size_t expected_size, ExecutionContext exec,
                           LocalMergeMode merge_mode = LocalMergeMode::kCentral,
                           Aggregate agg = {})
      : agg_(std::move(agg)),
        exec_(exec),
        merge_mode_(merge_mode),
        rows_consumed_(Executor(exec_).num_workers()) {
    const int num_workers = Executor(exec_).num_workers();
    locals_.reserve(static_cast<size_t>(num_workers));
    for (int t = 0; t < num_workers; ++t) {
      locals_.push_back(std::make_unique<LinearProbingMap<State>>(
          expected_size / static_cast<size_t>(num_workers) + 1));
    }
  }

  /// The merge mode only matters at iterate time, so the adaptive operator
  /// can flip it mid-build without touching the tables — a "switch" between
  /// the central-merge and tree-merge strategies migrates no state.
  void set_merge_mode(LocalMergeMode merge_mode) { merge_mode_ = merge_mode; }

  void Build(const uint64_t* keys, const uint64_t* values,
             size_t n) override {
    // Each worker owns locals_[worker]; a worker folds every morsel it
    // claims into its own table, so no synchronization is needed.
    Executor(exec_).ParallelFor(n, [&](const Morsel& m) {
      BuildSlice(m.worker, keys, values, m.begin, m.end);
    });
  }

  VectorResult Iterate() override {
    // Merge the thread-local tables into the first, per the merge mode.
    {
      PhaseTimer merge_timer(&stats_, StatPhase::kMerge);
      if (merge_mode_ == LocalMergeMode::kCentral) {
        MergeCentral();
      } else {
        MergeTree();
      }
    }
    LinearProbingMap<State>& merged = *locals_[0];
    VectorResult result;
    result.reserve(merged.size());
    merged.ForEach([this, &result](EncodedKey key, const State& state) {
      EmitGroup(agg_, result, key, const_cast<State&>(state));
    });
    return result;
  }

  // --- MigratableAggregator (core/migratable.h) -----------------------------

  void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) override {
    BuildSlice(m.worker, keys, values, m.begin, m.end);
    rows_consumed_[m.worker] += m.end - m.begin;
  }

  ProgressSnapshot Progress() const override {
    uint64_t rows = 0;
    for (int w = 0; w < rows_consumed_.size(); ++w) rows += rows_consumed_[w];
    return {rows, NumGroups(), DataStructureBytes()};
  }

  Partial ExtractPartialState() override {
    Partial out;
    for (int w = 0; w < rows_consumed_.size(); ++w) {
      out.rows += rows_consumed_[w];
      rows_consumed_[w] = 0;
    }
    // Keys present in several worker tables appear once per table; the
    // absorber's Merge recombines them, so no pre-merge pass is needed.
    out.partials.reserve(NumGroups());
    for (auto& local : locals_) {
      local->ForEach([&out](EncodedKey key, const State& state) {
        out.partials.emplace_back(key, std::move(const_cast<State&>(state)));
      });
      *local = LinearProbingMap<State>(2);
    }
    return out;
  }

  void AbsorbPartialState(Partial&& partial) override {
    LinearProbingMap<State>& local = *locals_[0];
    for (auto& [key, state] : partial.partials) {
      agg_.Merge(local.GetOrInsert(key), state);
    }
    for (const auto& [key, value] : partial.records) {
      agg_.Update(local.GetOrInsert(key), value);
    }
    rows_consumed_[0] += partial.rows;
  }

  VectorResult Finish() override { return Iterate(); }

  size_t NumGroups() const override {
    // Before the merge this is an upper bound; exact after Iterate().
    size_t total = 0;
    for (const auto& local : locals_) total += local->size();
    return total;
  }

  size_t DataStructureBytes() const override {
    size_t total = 0;
    for (const auto& local : locals_) total += local->MemoryBytes();
    return total;
  }

  void CollectStats(QueryStats* stats) const override {
    stats->Merge(stats_);
    stats->Add(StatCounter::kPartitions, locals_.size());
    for (const auto& local : locals_) {
      stats->Add(StatCounter::kHashEntries, local->size());
      stats->Add(StatCounter::kRehashes, local->rehashes());
      const auto probe = local->ComputeProbeStats();
      stats->Add(StatCounter::kProbeTotal, probe.total_probes);
      stats->MaxOf(StatCounter::kProbeMax, probe.max_probe);
      AddAllocStats(stats, local->AllocatorStats());
    }
  }

 private:
  void BuildSlice(int t, const uint64_t* keys, const uint64_t* values,
                  size_t begin, size_t end) {
    LinearProbingMap<State>& local = *locals_[t];
    if constexpr (Aggregate::kNeedsValues) {
      for (size_t i = begin; i < end; ++i) {
        agg_.Update(local.GetOrInsert(keys[i]), values[i]);
      }
    } else {
      for (size_t i = begin; i < end; ++i) {
        agg_.Update(local.GetOrInsert(keys[i]), 0);
      }
    }
  }

  /// Folds `from` into `into` and frees the merged-away table eagerly.
  /// Move-assignment releases the old table's slots and its arena chunks
  /// wholesale — one deallocation per partition, not one per entry.
  void MergeInto(LinearProbingMap<State>& into,
                 LinearProbingMap<State>& from) const {
    from.ForEach([this, &into](EncodedKey key, const State& state) {
      agg_.Merge(into.GetOrInsert(key), const_cast<State&>(state));
    });
    from = LinearProbingMap<State>(2);
  }

  void MergeCentral() {
    for (size_t t = 1; t < locals_.size(); ++t) {
      if (locals_[t]->size() > 0) {
        stats_.Add(StatCounter::kMergeRounds, 1);
      }
      MergeInto(*locals_[0], *locals_[t]);
    }
  }

  void MergeTree() {
    // Round r merges table t+stride into table t; the pairs of one round are
    // disjoint, so each round runs in parallel (grain 1). log2(workers)
    // rounds total, versus (workers-1) serial table walks for kCentral.
    Executor executor(exec_);
    for (size_t stride = 1; stride < locals_.size(); stride *= 2) {
      std::vector<std::pair<size_t, size_t>> pairs;
      for (size_t t = 0; t + stride < locals_.size(); t += 2 * stride) {
        pairs.emplace_back(t, t + stride);
      }
      if (pairs.empty()) continue;
      stats_.Add(StatCounter::kMergeRounds, 1);
      executor.ParallelFor(
          pairs.size(),
          [&](const Morsel& m) {
            for (size_t i = m.begin; i < m.end; ++i) {
              MergeInto(*locals_[pairs[i].first], *locals_[pairs[i].second]);
            }
          },
          /*grain=*/1);
    }
  }

  [[no_unique_address]] Aggregate agg_;
  ExecutionContext exec_;
  LocalMergeMode merge_mode_;
  WorkerLocal<uint64_t> rows_consumed_;  ///< Morsel-path rows, per worker.
  std::vector<std::unique_ptr<LinearProbingMap<State>>> locals_;
  QueryStats stats_;  // Merge-subphase timing and merge-round counts.
};

}  // namespace memagg

#endif  // MEMAGG_CORE_LOCAL_PARTITION_AGGREGATOR_H_
