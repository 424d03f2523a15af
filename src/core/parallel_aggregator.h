// Multithreaded vector aggregation (paper Section 5.8).
//
// The paper's three concurrency requirements for a shared data structure:
// thread-safe insert AND update (not just put/get), scaling with threads,
// and full iteration. Two operator families qualify:
//
//   * concurrent hash tables — all threads build one shared table.
//     Hash_TBBSC updates group state with atomics / per-group locks (the
//     analogue of the paper storing a tbb::concurrent_vector per group,
//     including its synchronization overhead on Q3); Hash_LC applies updates
//     through the upsert callback, which runs under the table's own bucket
//     locks (libcuckoo's user-defined upsert, which the paper calls out as
//     the feature that avoids TBB's Q3 overhead).
//
//   * parallel sorts — SortVectorAggregator already handles these: pass a
//     parallel sorter (BlockIndirectSorter / ParallelQuicksortSorter) from
//     core/sorters.h. The iterate scan is sequential; sorting dominates.

#ifndef MEMAGG_CORE_PARALLEL_AGGREGATOR_H_
#define MEMAGG_CORE_PARALLEL_AGGREGATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/migratable.h"
#include "core/operator.h"
#include "core/result.h"
#include "exec/executor.h"
#include "hash/concurrent_chaining_map.h"
#include "hash/cuckoo_map.h"
#include "hash/linear_probing_map.h"
#include "hash/striped_map.h"
#include "mem/worker_arenas.h"
#include "obs/query_stats.h"
#include "util/encoded_key.h"
#include "util/macros.h"
#include "util/spinlock.h"
#include "util/thread_annotations.h"

namespace memagg {

// --- Concurrent aggregate states for Hash_TBBSC ----------------------------

/// COUNT state updated with a relaxed atomic increment.
struct ConcurrentCountAggregate {
  struct State {
    std::atomic<uint64_t> count{0};
  };
  static constexpr bool kNeedsValues = false;
  static void Update(State& state, uint64_t /*value*/) {
    state.count.fetch_add(1, std::memory_order_relaxed);
  }
  static double Finalize(const State& state) {
    return static_cast<double>(state.count.load(std::memory_order_relaxed));
  }
};

/// AVG state updated with relaxed atomic adds.
struct ConcurrentAverageAggregate {
  struct State {
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> count{0};
  };
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) {
    state.sum.fetch_add(value, std::memory_order_relaxed);
    state.count.fetch_add(1, std::memory_order_relaxed);
  }
  static double Finalize(const State& state) {
    const uint64_t count = state.count.load(std::memory_order_relaxed);
    if (count == 0) return 0.0;
    return static_cast<double>(state.sum.load(std::memory_order_relaxed)) /
           static_cast<double>(count);
  }
};

/// SUM state updated with a relaxed atomic add.
struct ConcurrentSumAggregate {
  struct State {
    std::atomic<uint64_t> sum{0};
  };
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) {
    state.sum.fetch_add(value, std::memory_order_relaxed);
  }
  static double Finalize(const State& state) {
    return static_cast<double>(state.sum.load(std::memory_order_relaxed));
  }
};

/// MIN state maintained with a compare-exchange loop.
struct ConcurrentMinAggregate {
  struct State {
    std::atomic<uint64_t> min{~0ULL};
  };
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) {
    uint64_t current = state.min.load(std::memory_order_relaxed);
    while (value < current &&
           !state.min.compare_exchange_weak(current, value,
                                            std::memory_order_relaxed)) {
    }
  }
  static double Finalize(const State& state) {
    return static_cast<double>(state.min.load(std::memory_order_relaxed));
  }
};

/// MAX state maintained with a compare-exchange loop.
struct ConcurrentMaxAggregate {
  struct State {
    std::atomic<uint64_t> max{0};
  };
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) {
    uint64_t current = state.max.load(std::memory_order_relaxed);
    while (value > current &&
           !state.max.compare_exchange_weak(current, value,
                                            std::memory_order_relaxed)) {
    }
  }
  static double Finalize(const State& state) {
    return static_cast<double>(state.max.load(std::memory_order_relaxed));
  }
};

/// MEDIAN state: a lock-guarded per-group buffer — the analogue of the
/// paper's tbb::concurrent_vector value type, including the synchronization
/// and fragmentation overhead it attributes to Hash_TBBSC on Q3.
struct ConcurrentMedianAggregate {
  struct State {
    SpinLock lock{LockRank::kAggregateState};
    std::vector<uint64_t> values GUARDED_BY(lock);
  };
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) {
    SpinLockGuard guard(state.lock);
    state.values.push_back(value);
  }
  static double Finalize(State& state) {
    // Finalize runs after the parallel build; the uncontended guard keeps
    // the buffer's locking protocol uniform for the analysis.
    SpinLockGuard guard(state.lock);
    return MedianOfRun(state.values.data(), state.values.size());
  }
};

/// MODE state: a lock-guarded per-group buffer, finalized like ModeAggregate.
struct ConcurrentModeAggregate {
  struct State {
    SpinLock lock{LockRank::kAggregateState};
    std::vector<uint64_t> values GUARDED_BY(lock);
  };
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) {
    SpinLockGuard guard(state.lock);
    state.values.push_back(value);
  }
  static double Finalize(State& state) {
    SpinLockGuard guard(state.lock);
    return ModeAggregate::FinalizeRun(state.values.data(),
                                      state.values.size());
  }
};

/// Row policy twin (core/aggregate.h RowAggregate): count and SUM slots
/// take relaxed atomic adds, MAX/MIN slots a compare-exchange max, and a
/// holistic row's row-number buffer a per-group lock — the same schemes as
/// the single-function policies above, applied slot by slot.
template <size_t kSlots, bool kHolistic>
class ConcurrentRowAggregate {
 public:
  using Serial = RowAggregate<kSlots, kHolistic>;
  struct SlotState {
    std::atomic<uint64_t> slots[kSlots] = {};
  };
  struct BufferState {
    std::atomic<uint64_t> slots[kSlots] = {};
    SpinLock lock{LockRank::kAggregateState};
    std::vector<uint64_t> rows GUARDED_BY(lock);
  };
  using State = std::conditional_t<kHolistic, BufferState, SlotState>;
  static constexpr bool kNeedsValues = true;

  ConcurrentRowAggregate() = default;
  explicit ConcurrentRowAggregate(const Serial& serial) : serial_(serial) {}

  void Update(State& state, uint64_t row) const {
    const AggregateRow& layout = serial_.row();
    // Fold into a one-row scratch row, then publish slot by slot.
    uint64_t delta[kSlots] = {};
    layout.Update(delta, row);
    const size_t additive = 1 + layout.num_sums();
    for (size_t i = 0; i < additive; ++i) {
      state.slots[i].fetch_add(delta[i], std::memory_order_relaxed);
    }
    for (size_t i = additive; i < layout.num_slots(); ++i) {
      uint64_t current = state.slots[i].load(std::memory_order_relaxed);
      while (delta[i] > current &&
             !state.slots[i].compare_exchange_weak(current, delta[i],
                                                   std::memory_order_relaxed)) {
      }
    }
    if constexpr (kHolistic) {
      SpinLockGuard guard(state.lock);
      state.rows.push_back(row);
    }
  }

  void Emit(VectorResult& out, EncodedKey key, State& state) const {
    // Emit runs after the parallel build; the uncontended guard keeps the
    // buffer's locking protocol uniform for the analysis.
    typename Serial::State snapshot;
    for (size_t i = 0; i < kSlots; ++i) {
      snapshot.slots[i] = state.slots[i].load(std::memory_order_relaxed);
    }
    if constexpr (kHolistic) {
      SpinLockGuard guard(state.lock);
      snapshot.rows = std::move(state.rows);
    }
    serial_.Emit(out, key, snapshot);
  }

 private:
  Serial serial_;
};

/// Maps a serial aggregate policy to its Hash_TBBSC concurrent counterpart.
template <AggregatePolicy Aggregate>
struct ConcurrentAggregateFor;
template <size_t kSlots, bool kHolistic>
struct ConcurrentAggregateFor<RowAggregate<kSlots, kHolistic>> {
  using type = ConcurrentRowAggregate<kSlots, kHolistic>;
};
template <>
struct ConcurrentAggregateFor<CountAggregate> {
  using type = ConcurrentCountAggregate;
};
template <>
struct ConcurrentAggregateFor<SumAggregate> {
  using type = ConcurrentSumAggregate;
};
template <>
struct ConcurrentAggregateFor<MinAggregate> {
  using type = ConcurrentMinAggregate;
};
template <>
struct ConcurrentAggregateFor<MaxAggregate> {
  using type = ConcurrentMaxAggregate;
};
template <>
struct ConcurrentAggregateFor<AverageAggregate> {
  using type = ConcurrentAverageAggregate;
};
template <>
struct ConcurrentAggregateFor<MedianAggregate> {
  using type = ConcurrentMedianAggregate;
};
template <>
struct ConcurrentAggregateFor<ModeAggregate> {
  using type = ConcurrentModeAggregate;
};

/// Hash_TBBSC-style parallel aggregation: all threads share one
/// ConcurrentChainingMap; group states synchronize themselves. Nodes are
/// allocated from the claiming worker's arena (one pool handle per worker
/// slot), so the parallel build never touches the global heap: workers that
/// lose an insert race recycle the node through their own freelist.
template <AggregatePolicy ConcurrentAggregate>
class TbbStyleParallelAggregator final : public VectorAggregator {
 public:
  using State = typename ConcurrentAggregate::State;
  using NodeAlloc = typename ConcurrentChainingMap<State>::Alloc;
  static_assert(ConcurrentGroupMap<ConcurrentChainingMap<State>, State>);

  /// Borrows the context's per-worker arenas when they cover the thread
  /// budget; otherwise owns a private pool so direct construction (tests,
  /// benches) works without an engine.
  TbbStyleParallelAggregator(size_t expected_size, ExecutionContext exec,
                             ConcurrentAggregate agg = {})
      : agg_(std::move(agg)),
        exec_(exec),
        owned_arenas_(exec.arenas != nullptr &&
                              exec.arenas->num_workers() >= exec.num_threads
                          ? nullptr
                          : std::make_unique<WorkerArenas>(exec.num_threads)),
        arenas_(owned_arenas_ != nullptr ? owned_arenas_.get() : exec.arenas),
        lease_(arenas_->Acquire()),
        pools_(exec.num_threads),
        map_(expected_size) {
    for (int w = 0; w < pools_.size(); ++w) {
      pools_[w].Attach(&arenas_->ForWorker(w));
    }
  }

  void Build(const uint64_t* keys, const uint64_t* values,
             size_t n) override {
    Executor(exec_).ParallelFor(n, [&](const Morsel& m) {
      NodeAlloc& pool = pools_[m.worker];
      for (size_t i = m.begin; i < m.end; ++i) {
        agg_.Update(map_.GetOrInsert(keys[i], pool),
                    ConcurrentAggregate::kNeedsValues ? values[i] : 0);
      }
    });
  }

  VectorResult Iterate() override {
    VectorResult result;
    result.reserve(map_.size());
    map_.ForEach([this, &result](EncodedKey key, const State& state) {
      EmitGroup(agg_, result, key, const_cast<State&>(state));
    });
    return result;
  }

  size_t NumGroups() const override { return map_.size(); }

  size_t DataStructureBytes() const override { return map_.MemoryBytes(); }

  void CollectStats(QueryStats* stats) const override {
    stats->Add(StatCounter::kHashEntries, map_.size());
    // Pool handles report their freelist traffic; arena backing is counted
    // here only when this operator owns it (borrowed pools belong to the
    // context, which reports them once for the whole query).
    for (int w = 0; w < pools_.size(); ++w) {
      AddAllocStats(stats, pools_[w].Stats());
    }
    if (owned_arenas_ != nullptr) AddAllocStats(stats, owned_arenas_->Stats());
  }

 private:
  [[no_unique_address]] ConcurrentAggregate agg_;
  ExecutionContext exec_;
  std::unique_ptr<WorkerArenas> owned_arenas_;
  WorkerArenas* arenas_;
  // Declared between arenas_ and the node-holding members: reverse
  // destruction releases the lease only after map_ and pools_ have torn
  // down, so a context pool cannot be ResetAll()'d out from under them.
  WorkerArenas::Lease lease_;
  WorkerLocal<NodeAlloc> pools_;
  // Declared last: the map's destructor runs node destructors while the
  // arenas holding those nodes are still alive.
  ConcurrentChainingMap<State> map_;
};

/// Hash_LC-style parallel aggregation: updates run inside CuckooMap::Upsert
/// under the table's bucket locks, so plain (non-atomic) aggregate policies
/// from core/aggregate.h are used directly.
template <AggregatePolicy Aggregate>
class CuckooParallelAggregator final : public VectorAggregator {
 public:
  using State = typename Aggregate::State;
  static_assert(ConcurrentGroupMap<CuckooMap<State>, State>);

  CuckooParallelAggregator(size_t expected_size, ExecutionContext exec,
                           Aggregate agg = {})
      : agg_(std::move(agg)), map_(expected_size), exec_(exec) {}

  void Build(const uint64_t* keys, const uint64_t* values,
             size_t n) override {
    Executor(exec_).ParallelFor(n, [&](const Morsel& m) {
      for (size_t i = m.begin; i < m.end; ++i) {
        const uint64_t value = Aggregate::kNeedsValues ? values[i] : 0;
        map_.Upsert(keys[i],
                    [this, value](State& state) { agg_.Update(state, value); });
      }
    });
  }

  VectorResult Iterate() override {
    VectorResult result;
    result.reserve(map_.size());
    map_.ForEach([this, &result](EncodedKey key, const State& state) {
      EmitGroup(agg_, result, key, const_cast<State&>(state));
    });
    return result;
  }

  size_t NumGroups() const override { return map_.size(); }

  size_t DataStructureBytes() const override { return map_.MemoryBytes(); }

  void CollectStats(QueryStats* stats) const override {
    stats->Add(StatCounter::kHashEntries, map_.size());
    stats->Add(StatCounter::kCuckooKicks, map_.kicks());
  }

 private:
  [[no_unique_address]] Aggregate agg_;
  CuckooMap<State> map_;
  ExecutionContext exec_;
};

/// Hash_Striped-style parallel aggregation: lock-striped serial
/// linear-probing maps (see hash/striped_map.h). Updates run under the
/// stripe lock, so plain aggregate policies work unchanged.
template <AggregatePolicy Aggregate>
class StripedParallelAggregator final : public VectorAggregator,
                                        public MigratableAggregator<Aggregate> {
 public:
  using State = typename Aggregate::State;
  using Partial = PartialAggState<Aggregate>;
  static_assert(
      ConcurrentGroupMap<StripedMap<LinearProbingMap<State>>, State>);

  StripedParallelAggregator(size_t expected_size, ExecutionContext exec,
                            Aggregate agg = {})
      : agg_(std::move(agg)),
        map_(expected_size),
        exec_(exec),
        rows_consumed_(Executor(exec).num_workers()) {}

  void Build(const uint64_t* keys, const uint64_t* values,
             size_t n) override {
    Executor(exec_).ParallelFor(n, [&](const Morsel& m) {
      for (size_t i = m.begin; i < m.end; ++i) {
        const uint64_t value = Aggregate::kNeedsValues ? values[i] : 0;
        map_.Upsert(keys[i],
                    [this, value](State& state) { agg_.Update(state, value); });
      }
    });
  }

  VectorResult Iterate() override {
    VectorResult result;
    result.reserve(map_.size());
    map_.ForEach([this, &result](EncodedKey key, const State& state) {
      EmitGroup(agg_, result, key, const_cast<State&>(state));
    });
    return result;
  }

  // --- MigratableAggregator (core/migratable.h) -----------------------------
  // The shared-map strategy: every worker upserts into the one striped table,
  // so there is no merge phase at all — ConsumeMorsel is just the Build body,
  // and Finish() is a plain iterate.

  void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) override {
    for (size_t i = m.begin; i < m.end; ++i) {
      const uint64_t value =
          Aggregate::kNeedsValues && values != nullptr ? values[i] : 0;
      map_.Upsert(keys[i],
                  [this, value](State& state) { agg_.Update(state, value); });
    }
    rows_consumed_[m.worker] += m.end - m.begin;
  }

  ProgressSnapshot Progress() const override {
    uint64_t rows = 0;
    for (int w = 0; w < rows_consumed_.size(); ++w) rows += rows_consumed_[w];
    return {rows, map_.size(), map_.MemoryBytes()};
  }

  Partial ExtractPartialState() override {
    Partial out;
    out.partials.reserve(map_.size());
    map_.ForEach([&out](EncodedKey key, const State& state) {
      out.partials.emplace_back(key, std::move(const_cast<State&>(state)));
    });
    for (int w = 0; w < rows_consumed_.size(); ++w) {
      out.rows += rows_consumed_[w];
      rows_consumed_[w] = 0;
    }
    return out;
  }

  void AbsorbPartialState(Partial&& partial) override {
    for (auto& [key, state] : partial.partials) {
      if constexpr (MergeableAggregatePolicy<Aggregate>) {
        State& from = state;
        map_.Upsert(key,
                    [this, &from](State& into) { agg_.Merge(into, from); });
      } else {
        MEMAGG_CHECK(false && "aggregate has no Merge; cannot absorb partials");
      }
    }
    for (const auto& [key, value] : partial.records) {
      map_.Upsert(key,
                  [this, value](State& state) { agg_.Update(state, value); });
    }
    rows_consumed_[0] += partial.rows;
  }

  VectorResult Finish() override { return Iterate(); }

  size_t NumGroups() const override { return map_.size(); }

  size_t DataStructureBytes() const override { return map_.MemoryBytes(); }

  void CollectStats(QueryStats* stats) const override {
    stats->Add(StatCounter::kHashEntries, map_.size());
    stats->Add(StatCounter::kPartitions, map_.num_stripes());
    map_.ForEachStripe([stats](const LinearProbingMap<State>& stripe) {
      stats->Add(StatCounter::kRehashes, stripe.rehashes());
      const auto probe = stripe.ComputeProbeStats();
      stats->Add(StatCounter::kProbeTotal, probe.total_probes);
      stats->MaxOf(StatCounter::kProbeMax, probe.max_probe);
      AddAllocStats(stats, stripe.AllocatorStats());
    });
  }

 private:
  [[no_unique_address]] Aggregate agg_;
  StripedMap<LinearProbingMap<State>> map_;
  ExecutionContext exec_;
  WorkerLocal<uint64_t> rows_consumed_;  ///< Morsel-path rows, per worker.
};

}  // namespace memagg

#endif  // MEMAGG_CORE_PARALLEL_AGGREGATOR_H_
