// Sort-based vector aggregation (paper Section 3.1).
//
// Build phase: copy the input into a scratch array (keys only, or
// (key, value) records when the aggregate reads values) and sort it by key,
// which places each group's records in one contiguous run. Iterate phase:
// scan the runs; distributive/algebraic aggregates fold each run into a
// state, and holistic aggregates evaluate directly over the run — the reason
// sorting wins on holistic queries (paper Sections 5.2 and 6): no per-group
// buffering is ever needed.

#ifndef MEMAGG_CORE_SORT_AGGREGATOR_H_
#define MEMAGG_CORE_SORT_AGGREGATOR_H_

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
#include "obs/query_stats.h"
#include "sort/sort_common.h"
#include "util/encoded_key.h"
#include "util/macros.h"
#include "util/tracer.h"

namespace memagg {

/// Vector aggregation via sorting. `SorterT` is a functor from
/// core/sorters.h modeling the Sorter concept; `Aggregate` is an aggregate
/// policy. `Tracer` reports the operator's scratch-array accesses (the sort
/// kernel itself is traced by wrapping the sorter's KeyOf — see
/// sim/traced_engine.h).
template <Sorter SorterT, AggregatePolicy Aggregate,
          MemoryTracer Tracer = NullTracer>
class SortVectorAggregator final : public VectorAggregator,
                                   public MigratableAggregator<Aggregate> {
 public:
  using Partial = PartialAggState<Aggregate>;

  explicit SortVectorAggregator(SorterT sorter = SorterT{},
                                Aggregate agg = {})
      : sorter_(std::move(sorter)), agg_(std::move(agg)) {}

  void Build(const uint64_t* keys, const uint64_t* values,
             size_t n) override {
    if constexpr (Aggregate::kNeedsValues) {
      records_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        records_[i] = {keys[i], values[i]};
        Tracer::OnAccess(&records_[i], sizeof(records_[i]));
      }
      PhaseTimer sort_timer(&stats_, StatPhase::kSort);
      sorter_(records_.data(), records_.data() + n, PairFirstKey{});
    } else {
      keys_.assign(keys, keys + n);
      if constexpr (Tracer::kEnabled) {
        for (size_t i = 0; i < n; ++i) {
          Tracer::OnAccess(&keys_[i], sizeof(uint64_t));
        }
      }
      PhaseTimer sort_timer(&stats_, StatPhase::kSort);
      sorter_(keys_.data(), keys_.data() + n, IdentityKey{});
    }
    stats_.Add(StatCounter::kRowsSorted, n);
  }

  void BuildOwned(std::vector<uint64_t>&& keys,
                  std::vector<uint64_t>&& values) override {
    if constexpr (Aggregate::kNeedsValues) {
      // (key, value) records must be materialized, but the source columns
      // are released as soon as they are zipped.
      const size_t n = keys.size();
      records_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        records_[i] = {keys[i], values[i]};
      }
      std::vector<uint64_t>().swap(keys);
      std::vector<uint64_t>().swap(values);
      PhaseTimer sort_timer(&stats_, StatPhase::kSort);
      sorter_(records_.data(), records_.data() + n, PairFirstKey{});
      sort_timer.Stop();
      stats_.Add(StatCounter::kRowsSorted, n);
    } else {
      // In-place: adopt the caller's array and sort it directly — no copy,
      // the paper's memory-efficient sort path.
      keys_ = std::move(keys);
      values.clear();
      PhaseTimer sort_timer(&stats_, StatPhase::kSort);
      sorter_(keys_.data(), keys_.data() + keys_.size(), IdentityKey{});
      sort_timer.Stop();
      stats_.Add(StatCounter::kRowsSorted, keys_.size());
    }
  }

  VectorResult Iterate() override { return IterateImpl(0, ~0ULL); }

  // --- MigratableAggregator (core/migratable.h) -----------------------------
  // Morsel-path consumption only buffers (key, value) records per worker —
  // no aggregation work happens until Finish(), which sorts the gathered
  // buffers and merge-joins them with any partial states absorbed from a
  // predecessor hash strategy (the hybrid operator's SortedIterate shape).

  void BeginConsume(int num_workers, size_t expected_rows) override {
    MEMAGG_CHECK(consume_buffers_ == nullptr && "BeginConsume is once-only");
    consume_buffers_ = std::make_unique<WorkerLocal<RecordVec>>(num_workers);
    const size_t per_worker =
        expected_rows / static_cast<size_t>(num_workers) + 1;
    consume_buffers_->ForEach(
        [per_worker](RecordVec& buf) { buf.reserve(per_worker); });
  }

  void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) override {
    RecordVec& buf = (*consume_buffers_)[m.worker];
    for (size_t i = m.begin; i < m.end; ++i) {
      buf.emplace_back(keys[i], values == nullptr ? 0 : values[i]);
    }
  }

  ProgressSnapshot Progress() const override {
    ProgressSnapshot snapshot;
    snapshot.rows = partial_rows_;
    snapshot.bytes =
        absorbed_.capacity() * sizeof(typename AbsorbedVec::value_type);
    if (consume_buffers_ != nullptr) {
      for (int w = 0; w < consume_buffers_->size(); ++w) {
        snapshot.rows += (*consume_buffers_)[w].size();
        snapshot.bytes += (*consume_buffers_)[w].capacity() *
                          sizeof(std::pair<uint64_t, uint64_t>);
      }
    }
    snapshot.groups = 0;  // Unknown until the sort; 0 means "no estimate".
    return snapshot;
  }

  Partial ExtractPartialState() override {
    Partial out;
    if (consume_buffers_ != nullptr) {
      size_t total = 0;
      consume_buffers_->ForEach(
          [&total](RecordVec& buf) { total += buf.size(); });
      out.records.reserve(total);
      consume_buffers_->ForEach([&out](RecordVec& buf) {
        out.records.insert(out.records.end(), buf.begin(), buf.end());
        RecordVec().swap(buf);
      });
    }
    out.partials = std::move(absorbed_);
    absorbed_.clear();
    out.rows = out.records.size() + partial_rows_;
    partial_rows_ = 0;
    return out;
  }

  void AbsorbPartialState(Partial&& partial) override {
    MEMAGG_CHECK(consume_buffers_ != nullptr && "call BeginConsume first");
    RecordVec& buf = (*consume_buffers_)[0];
    buf.insert(buf.end(), partial.records.begin(), partial.records.end());
    partial_rows_ += partial.rows - partial.records.size();
    absorbed_.reserve(absorbed_.size() + partial.partials.size());
    for (auto& entry : partial.partials) {
      absorbed_.push_back(std::move(entry));
    }
  }

  VectorResult Finish() override {
    RecordVec records;
    if (consume_buffers_ != nullptr) {
      size_t total = 0;
      consume_buffers_->ForEach(
          [&total](RecordVec& buf) { total += buf.size(); });
      records.reserve(total);
      consume_buffers_->ForEach([&records](RecordVec& buf) {
        records.insert(records.end(), buf.begin(), buf.end());
        RecordVec().swap(buf);
      });
    }
    {
      PhaseTimer sort_timer(&stats_, StatPhase::kSort);
      sorter_(records.data(), records.data() + records.size(), PairFirstKey{});
    }
    stats_.Add(StatCounter::kRowsSorted, records.size());
    // Partials sort by key so the scan below is a linear merge-join;
    // duplicate keys (one per predecessor worker table) coalesce via Merge.
    std::sort(absorbed_.begin(), absorbed_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    VectorResult result;
    size_t pi = 0;
    auto emit_partials_below = [&](uint64_t bound, bool inclusive) {
      while (pi < absorbed_.size() &&
             (absorbed_[pi].first < bound ||
              (inclusive && absorbed_[pi].first == bound))) {
        const EncodedKey key = absorbed_[pi].first;
        typename Aggregate::State state = std::move(absorbed_[pi].second);
        ++pi;
        MergeSameKeyPartials(key, &state, &pi);
        EmitGroup(agg_, result, key, state);
      }
    };
    const size_t n = records.size();
    size_t run_start = 0;
    while (run_start < n) {
      const EncodedKey key = records[run_start].first;
      size_t run_end = run_start + 1;
      while (run_end < n && records[run_end].first == key) ++run_end;
      emit_partials_below(key, /*inclusive=*/false);
      typename Aggregate::State state{};
      for (size_t i = run_start; i < run_end; ++i) {
        agg_.Update(state, records[i].second);
      }
      MergeSameKeyPartials(key, &state, &pi);
      EmitGroup(agg_, result, key, state);
      run_start = run_end;
    }
    emit_partials_below(~0ULL, /*inclusive=*/true);
    return result;
  }

  /// Sorted data admits range filtering by scanning the bounded subrange;
  /// exposed for completeness (the paper's Q7 focuses on trees).
  bool SupportsRange() const override { return true; }

  VectorResult IterateRange(uint64_t lo, uint64_t hi) override {
    return IterateImpl(lo, hi);
  }

  size_t NumGroups() const override {
    size_t groups = 0;
    if constexpr (Aggregate::kNeedsValues) {
      for (size_t i = 0; i < records_.size(); ++i) {
        if (i == 0 || records_[i].first != records_[i - 1].first) ++groups;
      }
    } else {
      for (size_t i = 0; i < keys_.size(); ++i) {
        if (i == 0 || keys_[i] != keys_[i - 1]) ++groups;
      }
    }
    return groups;
  }

  size_t DataStructureBytes() const override {
    return keys_.capacity() * sizeof(uint64_t) +
           records_.capacity() * sizeof(std::pair<uint64_t, uint64_t>);
  }

  void CollectStats(QueryStats* stats) const override {
    stats->Merge(stats_);
  }

 private:
  VectorResult IterateImpl(uint64_t lo, uint64_t hi) {
    VectorResult result;
    if constexpr (Aggregate::kNeedsValues) {
      const size_t n = records_.size();
      size_t run_start = 0;
      while (run_start < n) {
        const EncodedKey key = records_[run_start].first;
        size_t run_end = run_start + 1;
        Tracer::OnAccess(&records_[run_start], sizeof(records_[run_start]));
        while (run_end < n && records_[run_end].first == key) {
          Tracer::OnAccess(&records_[run_end], sizeof(records_[run_end]));
          ++run_end;
        }
        if (key >= lo && key <= hi) {
          EmitRun(result, key, run_start, run_end);
        }
        run_start = run_end;
      }
    } else {
      const size_t n = keys_.size();
      size_t run_start = 0;
      while (run_start < n) {
        const EncodedKey key = keys_[run_start];
        size_t run_end = run_start + 1;
        Tracer::OnAccess(&keys_[run_start], sizeof(uint64_t));
        while (run_end < n && keys_[run_end] == key) {
          Tracer::OnAccess(&keys_[run_end], sizeof(uint64_t));
          ++run_end;
        }
        if (key >= lo && key <= hi) {
          typename Aggregate::State state{};
          for (size_t i = run_start; i < run_end; ++i) {
            agg_.Update(state, 0);
          }
          EmitGroup(agg_, result, key, state);
        }
        run_start = run_end;
      }
    }
    return result;
  }

  /// Aggregates one group's run of records. Holistic aggregates with a
  /// FinalizeRun fast path operate on the run's values in place; others fold
  /// through their state.
  void EmitRun(VectorResult& result, EncodedKey key, size_t run_start,
               size_t run_end) {
    const size_t count = run_end - run_start;
    if constexpr (requires(uint64_t* v, size_t c) {
                    Aggregate::FinalizeRun(v, c);
                  }) {
      run_values_.resize(count);
      for (size_t i = 0; i < count; ++i) {
        run_values_[i] = records_[run_start + i].second;
      }
      result.push_back(
          {key, Aggregate::FinalizeRun(run_values_.data(), count)});
    } else {
      typename Aggregate::State state{};
      for (size_t i = run_start; i < run_end; ++i) {
        agg_.Update(state, records_[i].second);
      }
      EmitGroup(agg_, result, key, state);
    }
  }

  using RecordVec = std::vector<std::pair<uint64_t, uint64_t>>;
  using AbsorbedVec =
      std::vector<std::pair<uint64_t, typename Aggregate::State>>;

  /// Folds every absorbed partial whose key equals `key` into `state`,
  /// advancing `*pi` past them. Requires absorbed_ sorted by key.
  void MergeSameKeyPartials(EncodedKey key, typename Aggregate::State* state,
                            size_t* pi) {
    while (*pi < absorbed_.size() && absorbed_[*pi].first == key) {
      if constexpr (MergeableAggregatePolicy<Aggregate>) {
        agg_.Merge(*state, absorbed_[*pi].second);
      } else {
        MEMAGG_CHECK(false && "aggregate has no Merge; cannot absorb partials");
      }
      ++*pi;
    }
  }

  SorterT sorter_;
  [[no_unique_address]] Aggregate agg_;
  std::vector<uint64_t> keys_;
  std::vector<std::pair<uint64_t, uint64_t>> records_;
  std::vector<uint64_t> run_values_;  // Scratch for holistic runs.
  // Migratable-path state: per-worker record buffers and partial states
  // absorbed from a predecessor strategy (merged at Finish).
  std::unique_ptr<WorkerLocal<RecordVec>> consume_buffers_;
  AbsorbedVec absorbed_;
  uint64_t partial_rows_ = 0;  ///< Rows represented by absorbed_ partials.
  QueryStats stats_;           // Sort-kernel subphase + row counts.
};

}  // namespace memagg

#endif  // MEMAGG_CORE_SORT_AGGREGATOR_H_
