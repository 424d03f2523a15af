// Adaptive hybrid sort/hash aggregation — the extension the paper's Section
// 5.5 calls for ("it may be worth revisiting hybrid sort-hash aggregation
// algorithms"), modelled on the switching idea of Müller et al. (SIGMOD'15,
// "Cache-efficient aggregation: hashing is sorting").
//
// The operator starts in hashing mode with a cache-resident linear-probing
// table — the paper's best distributive performer at low cardinality. While
// consuming input it watches the number of groups discovered; once the table
// would outgrow the cache (high group-by cardinality — the regime where the
// paper shows sorting winning), it flushes the accumulated state into a
// record buffer and continues in sort mode, finishing with the sort-based
// run aggregation. Low-cardinality inputs therefore never pay for sorting,
// and high-cardinality inputs never thrash the cache with a giant table.
//
// Works for every aggregate policy: distributive/algebraic states are
// flushed as pre-aggregated (key, state) partials and merged after the final
// sort; holistic states are flushed back as raw (key, value) records, so the
// result is exactly what a pure sort-based operator produces.

#ifndef MEMAGG_CORE_HYBRID_AGGREGATOR_H_
#define MEMAGG_CORE_HYBRID_AGGREGATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/operator.h"
#include "core/result.h"
#include "exec/executor.h"
#include "hash/linear_probing_map.h"
#include "obs/query_stats.h"
#include "sort/block_indirect_sort.h"
#include "sort/sort_common.h"
#include "sort/spreadsort.h"
#include "util/encoded_key.h"

namespace memagg {

/// Adaptive hybrid aggregation operator. The flush-to-sort path combines
/// partial states, so the aggregate must be mergeable.
template <MergeableAggregatePolicy Aggregate>
class HybridVectorAggregator final : public VectorAggregator {
 public:
  using State = typename Aggregate::State;

  /// Default switch threshold: keeps the table inside a ~1 MB L2 cache
  /// (16-byte slots at 70% load).
  static constexpr size_t kMaxHashGroups = 44000;

  /// `max_hash_groups` is the switch threshold: once the hash table holds
  /// this many groups the operator flushes to sort mode.
  explicit HybridVectorAggregator(size_t expected_size = 0,
                                  size_t max_hash_groups = kMaxHashGroups)
      : HybridVectorAggregator(expected_size, ExecutionContext{},
                               max_hash_groups) {}

  /// With `exec.num_threads > 1` the sort-mode final sort runs on the
  /// morsel executor (Sort_BI); the hash phase stays serial.
  HybridVectorAggregator(size_t /*expected_size*/, ExecutionContext exec,
                         size_t max_hash_groups = kMaxHashGroups,
                         Aggregate agg = {})
      : agg_(std::move(agg)),
        exec_(exec),
        max_hash_groups_(max_hash_groups),
        map_(2 * max_hash_groups) {}

  void Build(const uint64_t* keys, const uint64_t* values,
             size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t value =
          Aggregate::kNeedsValues && values != nullptr ? values[i] : 0;
      if (!sort_mode_) {
        agg_.Update(map_.GetOrInsert(keys[i]), value);
        if (MEMAGG_UNLIKELY(map_.size() > max_hash_groups_)) {
          SwitchToSortMode();
        }
      } else {
        records_.push_back({keys[i], value});
      }
    }
  }

  VectorResult Iterate() override {
    if (!sort_mode_) {
      // Pure hashing: the low-cardinality fast path.
      VectorResult result;
      result.reserve(map_.size());
      map_.ForEach([this, &result](EncodedKey key, const State& state) {
        EmitGroup(agg_, result, key, const_cast<State&>(state));
      });
      return result;
    }
    return SortedIterate();
  }

  size_t NumGroups() const override {
    if (!sort_mode_) return map_.size();
    // Sort-mode group count = distinct keys across the spilled records and
    // the hash-phase partials. Counted over a key *copy* so `records_` is
    // never reordered under a const method (safe to poll concurrently with
    // other const calls, and Iterate() still sees its own input order).
    std::vector<uint64_t> keys;
    keys.reserve(records_.size() + partials_.size());
    for (const auto& record : records_) keys.push_back(record.first);
    for (const Partial& partial : partials_) keys.push_back(partial.key);
    std::sort(keys.begin(), keys.end());
    size_t groups = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i == 0 || keys[i] != keys[i - 1]) ++groups;
    }
    return groups;
  }

  size_t DataStructureBytes() const override {
    return map_.MemoryBytes() +
           records_.capacity() * sizeof(std::pair<uint64_t, uint64_t>) +
           partials_.capacity() * sizeof(Partial);
  }

  /// True once the operator has flushed to sort mode (for tests/benches).
  bool in_sort_mode() const { return sort_mode_; }

  void CollectStats(QueryStats* stats) const override {
    stats->Merge(stats_);
    stats->Add(StatCounter::kHashEntries,
               sort_mode_ ? partials_.size() : map_.size());
    stats->Add(StatCounter::kHybridSpills, sort_mode_ ? 1 : 0);
    if (sort_mode_) stats->Add(StatCounter::kRowsSorted, records_.size());
    if (!sort_mode_) {
      const auto probe = map_.ComputeProbeStats();
      stats->Add(StatCounter::kProbeTotal, probe.total_probes);
      stats->MaxOf(StatCounter::kProbeMax, probe.max_probe);
    }
  }

 private:
  struct Partial {
    EncodedKey key;
    State state;
  };

  static constexpr bool kHolistic =
      requires(uint64_t* v, size_t c) { Aggregate::FinalizeRun(v, c); };

  void SwitchToSortMode() {
    sort_mode_ = true;
    if constexpr (kHolistic) {
      // Holistic states are raw value buffers: spill them back as records so
      // the final sort sees exactly the original input.
      map_.ForEach([this](EncodedKey key, const State& state) {
        for (uint64_t value : state) {
          records_.push_back({key, value});
        }
      });
    } else {
      // Distributive/algebraic states are flushed as mergeable partials.
      map_.ForEach([this](EncodedKey key, const State& state) {
        partials_.push_back({key, state});
      });
    }
    // Release the table; a fresh (empty) small map keeps the class invariant
    // simple and the memory bounded.
    map_ = LinearProbingMap<State>(2);
  }

  VectorResult SortedIterate() {
    {
      PhaseTimer sort_timer(&stats_, StatPhase::kSort);
      if (exec_.num_threads > 1) {
        BlockIndirectSort(records_.data(), records_.data() + records_.size(),
                          KeyLess<PairFirstKey>{}, exec_.num_threads);
      } else {
        SpreadSort(records_.data(), records_.data() + records_.size(),
                   PairFirstKey{});
      }
    }
    VectorResult result;
    if constexpr (kHolistic) {
      // Pure run aggregation (partials_ is unused for holistic policies).
      const size_t n = records_.size();
      size_t run_start = 0;
      std::vector<uint64_t> run_values;
      while (run_start < n) {
        const EncodedKey key = records_[run_start].first;
        size_t run_end = run_start + 1;
        while (run_end < n && records_[run_end].first == key) ++run_end;
        run_values.resize(run_end - run_start);
        for (size_t i = run_start; i < run_end; ++i) {
          run_values[i - run_start] = records_[i].second;
        }
        result.push_back(
            {key, Aggregate::FinalizeRun(run_values.data(),
                                         run_values.size())});
        run_start = run_end;
      }
    } else {
      // Fold sorted records into per-run states, then merge-join with the
      // hash-phase partials (both sides sorted by key).
      std::sort(partials_.begin(), partials_.end(),
                [](const Partial& a, const Partial& b) {
                  return a.key < b.key;
                });
      const size_t n = records_.size();
      size_t run_start = 0;
      size_t partial_at = 0;
      auto emit_partials_below = [&](uint64_t bound) {
        while (partial_at < partials_.size() &&
               partials_[partial_at].key < bound) {
          EmitGroup(agg_, result, partials_[partial_at].key,
                    partials_[partial_at].state);
          ++partial_at;
        }
      };
      while (run_start < n) {
        const EncodedKey key = records_[run_start].first;
        size_t run_end = run_start + 1;
        while (run_end < n && records_[run_end].first == key) ++run_end;
        emit_partials_below(key);
        State state{};
        for (size_t i = run_start; i < run_end; ++i) {
          agg_.Update(state, records_[i].second);
        }
        if (partial_at < partials_.size() &&
            partials_[partial_at].key == key) {
          agg_.Merge(state, partials_[partial_at].state);
          ++partial_at;
        }
        EmitGroup(agg_, result, key, state);
        run_start = run_end;
      }
      emit_partials_below(~0ULL);
      // ~0ULL itself may be a partial key (datasets avoid it, but stay
      // correct for arbitrary callers).
      while (partial_at < partials_.size()) {
        EmitGroup(agg_, result, partials_[partial_at].key,
                  partials_[partial_at].state);
        ++partial_at;
      }
    }
    return result;
  }

  [[no_unique_address]] Aggregate agg_;
  ExecutionContext exec_;
  size_t max_hash_groups_;
  LinearProbingMap<State> map_;
  std::vector<std::pair<uint64_t, uint64_t>> records_;
  std::vector<Partial> partials_;
  bool sort_mode_ = false;
  QueryStats stats_;  // Sort-subphase timing (spill/probe stats on demand).
};

}  // namespace memagg

#endif  // MEMAGG_CORE_HYBRID_AGGREGATOR_H_
