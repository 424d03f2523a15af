// Radix-partitioned parallel aggregation (extension).
//
// The third classic parallel strategy from the paper's related work (Ye et
// al.'s PLAT lineage, §7): partition the input by key so that partitions are
// disjoint, then aggregate each partition in a private table with no
// synchronization *and no merge* — unlike LocalPartitionAggregator, whose
// thread-local tables overlap and must be merged. The price is a full
// partitioning pass (histogram + scatter) over the input.
//
// Partitions are assigned by hash bits, so identical keys always land in the
// same partition and skew spreads uniformly. Both input passes run on the
// morsel executor with per-*morsel* histograms/offsets: the morsel grid is
// deterministic (exec/morsel.h), so the scatter offsets line up no matter
// which worker claims which morsel.

#ifndef MEMAGG_CORE_RADIX_PARTITION_AGGREGATOR_H_
#define MEMAGG_CORE_RADIX_PARTITION_AGGREGATOR_H_

#include <algorithm>
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
#include "hash/hash_fn.h"
#include "hash/linear_probing_map.h"
#include "obs/query_stats.h"
#include "util/bits.h"
#include "util/encoded_key.h"
#include "util/macros.h"

namespace memagg {

/// Partition-then-aggregate parallel operator. Radix partitions are
/// disjoint, so no state merging happens and any aggregate policy works
/// (the paper's route to parallel holistic aggregation).
template <AggregatePolicy Aggregate>
class RadixPartitionAggregator final : public VectorAggregator,
                                       public MigratableAggregator<Aggregate> {
 public:
  using State = typename Aggregate::State;
  using Partial = PartialAggState<Aggregate>;

  RadixPartitionAggregator(size_t expected_size, ExecutionContext exec,
                           Aggregate agg = {})
      : agg_(std::move(agg)),
        exec_(exec),
        num_partitions_(NextPowerOfTwo(static_cast<uint64_t>(
            std::max(1, exec.num_threads)))) {
    partitions_.reserve(num_partitions_);
    for (size_t p = 0; p < num_partitions_; ++p) {
      partitions_.push_back(std::make_unique<LinearProbingMap<State>>(
          expected_size / num_partitions_ + 1));
    }
  }

  void Build(const uint64_t* keys, const uint64_t* values,
             size_t n) override {
    Executor executor(exec_);
    // Fix the morsel grain once so phases 1 and 2 see the same grid.
    const size_t grain = executor.MorselRows(n);
    const size_t num_morsels = NumMorselsFor(n, grain);

    // Phase 1: per-morsel partition histograms (parallel). The key hashes
    // are computed a batch at a time through the SIMD lane (hash_fn.h);
    // the histogram update itself stays scalar (scattered increments).
    PhaseTimer partition_timer(&stats_, StatPhase::kPartition);
    std::vector<std::vector<size_t>> counts(
        num_morsels, std::vector<size_t>(num_partitions_, 0));
    executor.ParallelFor(
        n,
        [&](const Morsel& m) {
          auto& morsel_counts = counts[m.index];
          uint64_t hashes[kHashBatch];
          for (size_t i = m.begin; i < m.end; i += kHashBatch) {
            const size_t chunk = std::min(kHashBatch, m.end - i);
            HashKeysBatch(keys + i, chunk, hashes);
            for (size_t j = 0; j < chunk; ++j) {
              ++morsel_counts[PartitionOfHash(hashes[j])];
            }
          }
        },
        grain);

    // Prefix sums -> per-(morsel, partition) scatter offsets.
    std::vector<size_t> partition_starts(num_partitions_ + 1, 0);
    std::vector<std::vector<size_t>> offsets(
        num_morsels, std::vector<size_t>(num_partitions_, 0));
    {
      size_t running = 0;
      for (size_t p = 0; p < num_partitions_; ++p) {
        partition_starts[p] = running;
        for (size_t m = 0; m < num_morsels; ++m) {
          offsets[m][p] = running;
          running += counts[m][p];
        }
      }
      partition_starts[num_partitions_] = running;
    }

    // Phase 2: scatter records into partition-contiguous buffers (parallel).
    std::vector<std::pair<uint64_t, uint64_t>> scattered(n);
    executor.ParallelFor(
        n,
        [&](const Morsel& m) {
          auto morsel_offsets = offsets[m.index];
          uint64_t hashes[kHashBatch];
          for (size_t i = m.begin; i < m.end; i += kHashBatch) {
            const size_t chunk = std::min(kHashBatch, m.end - i);
            HashKeysBatch(keys + i, chunk, hashes);
            for (size_t j = 0; j < chunk; ++j) {
              const uint64_t value = Aggregate::kNeedsValues && values != nullptr
                                         ? values[i + j]
                                         : 0;
              scattered[morsel_offsets[PartitionOfHash(hashes[j])]++] = {
                  keys[i + j], value};
            }
          }
        },
        grain);
    partition_timer.Stop();

    // Phase 3: aggregate each partition privately — disjoint key sets, so
    // no locks and no merge. Partitions are claimed one at a time (grain 1)
    // so skewed partition sizes balance across workers.
    executor.ParallelFor(
        num_partitions_,
        [&](const Morsel& m) {
          for (size_t p = m.begin; p < m.end; ++p) {
            LinearProbingMap<State>& map = *partitions_[p];
            for (size_t i = partition_starts[p]; i < partition_starts[p + 1];
                 ++i) {
              agg_.Update(map.GetOrInsert(scattered[i].first),
                          scattered[i].second);
            }
          }
        },
        /*grain=*/1);
  }

  VectorResult Iterate() override {
    VectorResult result;
    result.reserve(NumGroups());
    for (const auto& partition : partitions_) {
      partition->ForEach([this, &result](EncodedKey key, const State& state) {
        EmitGroup(agg_, result, key, const_cast<State&>(state));
      });
    }
    return result;
  }

  // --- MigratableAggregator (core/migratable.h) -----------------------------
  // The fixed Build above needs the whole input up front (histogram pass).
  // The morsel path instead routes rows *incrementally*: worker w aggregates
  // partition p's keys into a private table incr_[w * P + p] — each table
  // covers 1/P of the key space, so it stays cache-resident; Finish() merges
  // the worker copies of each partition in parallel (disjoint key ranges).

  void BeginConsume(int num_workers, size_t expected_rows) override {
    MEMAGG_CHECK(incr_.empty() && "BeginConsume is once-only");
    incr_workers_ = num_workers;
    incr_rows_ = std::make_unique<WorkerLocal<uint64_t>>(num_workers);
    const size_t tables = static_cast<size_t>(num_workers) * num_partitions_;
    incr_.reserve(tables);
    for (size_t t = 0; t < tables; ++t) {
      incr_.push_back(std::make_unique<LinearProbingMap<State>>(
          expected_rows / tables + 1));
    }
  }

  void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) override {
    const size_t base = static_cast<size_t>(m.worker) * num_partitions_;
    for (size_t i = m.begin; i < m.end; ++i) {
      const uint64_t value =
          Aggregate::kNeedsValues && values != nullptr ? values[i] : 0;
      LinearProbingMap<State>& table = *incr_[base + PartitionOf(keys[i])];
      agg_.Update(table.GetOrInsert(keys[i]), value);
    }
    (*incr_rows_)[m.worker] += m.end - m.begin;
  }

  ProgressSnapshot Progress() const override {
    ProgressSnapshot snapshot;
    if (incr_rows_ != nullptr) {
      for (int w = 0; w < incr_rows_->size(); ++w) {
        snapshot.rows += (*incr_rows_)[w];
      }
    }
    for (const auto& table : incr_) {
      snapshot.groups += table->size();  // Upper bound across worker copies.
      snapshot.bytes += table->MemoryBytes();
    }
    return snapshot;
  }

  Partial ExtractPartialState() override {
    Partial out;
    if (incr_rows_ != nullptr) {
      for (int w = 0; w < incr_rows_->size(); ++w) {
        out.rows += (*incr_rows_)[w];
        (*incr_rows_)[w] = 0;
      }
    }
    for (auto& table : incr_) {
      table->ForEach([&out](EncodedKey key, const State& state) {
        out.partials.emplace_back(key, std::move(const_cast<State&>(state)));
      });
    }
    incr_.clear();
    return out;
  }

  void AbsorbPartialState(Partial&& partial) override {
    MEMAGG_CHECK(!incr_.empty() && "call BeginConsume first");
    for (auto& [key, state] : partial.partials) {
      LinearProbingMap<State>& table = *incr_[PartitionOf(key)];
      if constexpr (MergeableAggregatePolicy<Aggregate>) {
        agg_.Merge(table.GetOrInsert(key), state);
      } else {
        MEMAGG_CHECK(false && "aggregate has no Merge; cannot absorb partials");
      }
    }
    for (const auto& [key, value] : partial.records) {
      LinearProbingMap<State>& table = *incr_[PartitionOf(key)];
      agg_.Update(table.GetOrInsert(key), value);
    }
    (*incr_rows_)[0] += partial.rows;
  }

  VectorResult Finish() override {
    if (incr_.empty()) return Iterate();
    // Fold every worker's copy of partition p into partitions_[p]; the
    // per-partition key ranges are disjoint, so partitions merge in parallel.
    if (incr_workers_ > 1) stats_.Add(StatCounter::kMergeRounds, 1);
    Executor(exec_).ParallelFor(
        num_partitions_,
        [&](const Morsel& m) {
          for (size_t p = m.begin; p < m.end; ++p) {
            LinearProbingMap<State>& into = *partitions_[p];
            for (int w = 0; w < incr_workers_; ++w) {
              LinearProbingMap<State>& from =
                  *incr_[static_cast<size_t>(w) * num_partitions_ + p];
              from.ForEach([this, &into](EncodedKey key, const State& state) {
                if constexpr (MergeableAggregatePolicy<Aggregate>) {
                  agg_.Merge(into.GetOrInsert(key), const_cast<State&>(state));
                } else {
                  MEMAGG_CHECK(false &&
                               "aggregate has no Merge; cannot finish the "
                               "incremental radix path");
                }
              });
              from = LinearProbingMap<State>(2);
            }
          }
        },
        /*grain=*/1);
    incr_.clear();
    return Iterate();
  }

  size_t NumGroups() const override {
    size_t total = 0;
    for (const auto& partition : partitions_) total += partition->size();
    return total;
  }

  size_t DataStructureBytes() const override {
    size_t total = 0;
    for (const auto& partition : partitions_) total += partition->MemoryBytes();
    return total;
  }

  void CollectStats(QueryStats* stats) const override {
    stats->Merge(stats_);
    stats->Add(StatCounter::kPartitions, num_partitions_);
    for (const auto& partition : partitions_) {
      stats->Add(StatCounter::kHashEntries, partition->size());
      stats->Add(StatCounter::kRehashes, partition->rehashes());
      const auto probe = partition->ComputeProbeStats();
      stats->Add(StatCounter::kProbeTotal, probe.total_probes);
      stats->MaxOf(StatCounter::kProbeMax, probe.max_probe);
      // Each partition table owns a private arena, freed wholesale with the
      // table after the merge-free iterate.
      AddAllocStats(stats, partition->AllocatorStats());
    }
  }

 private:
  /// Stack-buffer length for the batched hash passes: big enough to amortize
  /// the dispatch call, small enough to stay in L1 alongside the histogram.
  static constexpr size_t kHashBatch = 256;

  size_t PartitionOfHash(uint64_t hash) const {
    return (hash >> 40) & (num_partitions_ - 1);
  }

  size_t PartitionOf(EncodedKey key) const {
    return PartitionOfHash(HashKey(key));
  }

  [[no_unique_address]] Aggregate agg_;
  ExecutionContext exec_;
  size_t num_partitions_;
  std::vector<std::unique_ptr<LinearProbingMap<State>>> partitions_;
  // Migratable-path tables: worker w, partition p at incr_[w * P + p].
  std::vector<std::unique_ptr<LinearProbingMap<State>>> incr_;
  std::unique_ptr<WorkerLocal<uint64_t>> incr_rows_;
  int incr_workers_ = 0;
  QueryStats stats_;  // Partition-subphase timing (histogram + scatter).
};

}  // namespace memagg

#endif  // MEMAGG_CORE_RADIX_PARTITION_AGGREGATOR_H_
