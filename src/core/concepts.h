// Concept vocabulary for every pluggable role in the engine.
//
// The paper's six-dimensional sweep is only trustworthy because all 7 hash
// tables, 4 trees, 10 sorts, and the operator templates over them are
// interchangeable behind a common interface. Before this header that
// interface was duck-typed: a container missing a member surfaced as a
// cryptic instantiation error three templates deep, or worse, silently
// skipped an `if constexpr (requires ...)` feature probe. These concepts
// make the contract explicit and checkable:
//
//   role                         concept                 modeled by
//   ---------------------------  ----------------------  -------------------
//   serial group hash table      GroupMap                LinearProbingMap,
//                                                        ChainingMap,
//                                                        SparseMap, DenseMap,
//                                                        CuckooMap
//   ordered group index          OrderedGroupStore       ArtTree, JudyArray,
//                                                        BTree, TTree
//   concurrent group table       ConcurrentGroupMap      CuckooMap,
//                                                        StripedMap,
//                                                        ConcurrentChainingMap
//   aggregate function policy    AggregatePolicy         core/aggregate.h +
//                                  (+ Mergeable...)      the Concurrent*
//                                                        policies
//   sort kernel functor          Sorter / ParallelSorter core/sorters.h
//   allocation strategy          AllocatorPolicy         mem/allocator.h
//   memory-access tracing        MemoryTracer            util/tracer.h
//   aggregation operator         AggregationOperator /   all operator
//                                  ScalarOperator        families
//   adaptive-switchable strategy MigratableOperator      the five vector
//                                                        families + striped
//   columnar input table         ColumnarTable           Table (data/table.h)
//   composite key codec          TableKeyCodec           PackedKeyCodec,
//                                                        DictKeyCodec
//
// Placement note: AllocatorPolicy and MemoryTracer are defined in their own
// layers (mem/, util/) because the container headers below core/ constrain
// their template parameters with them; this header re-exports them by
// inclusion. The container/operator concepts live here because only core/
// (and tests) name them — keeping the include DAG acyclic
// (tools/check_layering.py enforces it).
//
// tests/static_checks/ pins every concrete type to its row in the table
// above with static_asserts; tests/compile_fail/ proves each concept
// rejects ill-formed instantiations with the concept's name in the
// diagnostic.

#ifndef MEMAGG_CORE_CONCEPTS_H_
#define MEMAGG_CORE_CONCEPTS_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "core/operator.h"
#include "data/key_codec.h"
#include "data/table.h"
#include "exec/morsel.h"
#include "mem/allocator.h"
#include "sort/sort_common.h"
#include "util/encoded_key.h"
#include "util/tracer.h"

namespace memagg {

namespace concept_internal {

/// Probe functors used inside requires-expressions; declarations only —
/// they are never evaluated.
template <typename V>
struct GroupVisitor {
  void operator()(EncodedKey key, const V& value) const;
};

template <typename V>
struct MutatingGroupVisitor {
  void operator()(V& value) const;
};

}  // namespace concept_internal

// --- Group containers -------------------------------------------------------

/// The observable surface shared by every serial group container, hash or
/// tree: keyed upsert slots, const-correct lookup, size and footprint
/// introspection, and whole-structure iteration.
template <typename M, typename V>
concept GroupStoreBase =
    requires(M map, const M& cmap, EncodedKey key) {
      { map.GetOrInsert(key) } -> std::same_as<V&>;
      { cmap.Find(key) } -> std::same_as<const V*>;
      { map.Find(key) } -> std::same_as<V*>;
      { cmap.size() } -> std::convertible_to<size_t>;
      { cmap.MemoryBytes() } -> std::convertible_to<size_t>;
      cmap.ForEach(concept_internal::GroupVisitor<V>{});
    };

/// Serial hash-table role (paper Section 3.2): pre-sized from an expected
/// record count, growable, and reservable ahead of the build phase so
/// ReserveGroups() can pre-size every backend uniformly.
template <typename M, typename V>
concept GroupMap =
    GroupStoreBase<M, V> && std::constructible_from<M, size_t> &&
    requires(M map, size_t expected_entries) { map.Reserve(expected_entries); };

/// Ordered index role (paper Section 3.3): grows with the data (no
/// pre-sizing), iterates in key order, and supports native range-filtered
/// iteration (Q7).
template <typename T, typename V>
concept OrderedGroupStore =
    GroupStoreBase<T, V> && std::default_initializable<T> &&
    requires(const T& ctree, uint64_t lo, uint64_t hi) {
      ctree.ForEachInRange(lo, hi, concept_internal::GroupVisitor<V>{});
    };

/// Thread-safe mutation via a callback run under the structure's own locks
/// (libcuckoo-style upsert; paper Section 5.8).
template <typename M, typename V>
concept UpsertGroupMap = requires(M map, EncodedKey key) {
  map.Upsert(key, concept_internal::MutatingGroupVisitor<V>{});
};

/// Thread-safe insertion with caller-supplied (per-worker) allocation: the
/// structure is shared, the memory behind it is thread-local.
template <typename M, typename V>
concept SharedAllocGroupMap =
    requires(M map, EncodedKey key, typename M::Alloc& alloc) {
      { map.GetOrInsert(key, alloc) } -> std::same_as<V&>;
    };

/// Concurrent group-table role (paper Section 5.8): thread-safe insert AND
/// update — via either locked upsert or shared insertion with per-worker
/// allocators — plus quiescent iteration and introspection.
template <typename M, typename V>
concept ConcurrentGroupMap =
    std::constructible_from<M, size_t> &&
    requires(const M& cmap) {
      { cmap.size() } -> std::convertible_to<size_t>;
      { cmap.MemoryBytes() } -> std::convertible_to<size_t>;
      cmap.ForEach(concept_internal::GroupVisitor<V>{});
    } &&
    (UpsertGroupMap<M, V> || SharedAllocGroupMap<M, V>);

// --- Aggregate function policies --------------------------------------------

/// Aggregate-function policy role (core/aggregate.h): a copyable policy
/// object (operators hold one and call through it, so a policy may carry
/// query state such as RowAggregate's layout), a default-initializable
/// per-group State, an Update step folding one record into it, and either a
/// Finalize step producing one output value or an Emit step appending a
/// group's output entries (EmitGroup). kNeedsValues lets COUNT(*) skip the
/// value column entirely.
///
/// Note: the *runtime* identifier for an aggregate is the AggregateFunction
/// enum (core/aggregate.h); this concept is the compile-time policy those
/// enum values dispatch to.
template <typename A>
concept AggregatePolicy =
    std::copy_constructible<A> &&
    std::default_initializable<typename A::State> &&
    requires(const A& agg, typename A::State& state, uint64_t value) {
      { A::kNeedsValues } -> std::convertible_to<bool>;
      agg.Update(state, value);
    } &&
    (requires(const A& agg, typename A::State& state) {
      { agg.Finalize(state) } -> std::convertible_to<double>;
    } ||
     requires(const A& agg, typename A::State& state, VectorResult& out,
              EncodedKey key) { agg.Emit(out, key, state); });

/// Aggregates usable by partitioned operators, which must combine partial
/// per-partition/per-thread states (Gray et al.'s distributive/algebraic
/// requirement, plus buffering holistic states).
template <typename A>
concept MergeableAggregatePolicy =
    AggregatePolicy<A> &&
    requires(const A& agg, typename A::State& into, typename A::State& from) {
      agg.Merge(into, from);
    };

// --- Sort kernels -----------------------------------------------------------

/// Record types the sort substrate may permute: plain values moved with
/// memcpy-equivalent stores. Spelled as trivially copy-constructible +
/// trivially destructible (not is_trivially_copyable) because std::pair of
/// scalars — the operators' (key, value) record type — has a formally
/// non-trivial assignment operator.
template <typename T>
concept SortableRecord = std::copyable<T> &&
                         std::is_trivially_copy_constructible_v<T> &&
                         std::is_trivially_destructible_v<T>;

/// Key extractor over a record type: IdentityKey for key columns,
/// PairFirstKey for (key, value) records (sort/sort_common.h).
template <typename F, typename T>
concept KeyExtractor = requires(const F& key_of, const T& record) {
  { key_of(record) } -> std::convertible_to<uint64_t>;
};

/// Sort-kernel functor role (core/sorters.h): sorts both plain key arrays
/// and (key, value) record arrays by the extracted key.
template <typename S>
concept Sorter =
    std::move_constructible<S> &&
    requires(const S& sorter, uint64_t* keys,
             std::pair<uint64_t, uint64_t>* records) {
      sorter(keys, keys, IdentityKey{});
      sorter(records, records, PairFirstKey{});
    };

/// Parallel sort-kernel role: a Sorter with a configurable thread budget
/// (set from ExecutionContext::num_threads by the engine factories).
template <typename S>
concept ParallelSorter = Sorter<S> && requires(S sorter, int num_threads) {
  sorter.num_threads = num_threads;
};

// --- Columnar tables and key codecs -----------------------------------------

/// Columnar input-table role (data/table.h): equal-length typed columns
/// addressable by name or index, with footprint introspection. The typed
/// execution front-end (core/table_exec.h) is written against this surface.
template <typename T>
concept ColumnarTable =
    requires(const T& table, const std::string& name, size_t index) {
      { table.num_rows() } -> std::convertible_to<size_t>;
      { table.num_columns() } -> std::convertible_to<size_t>;
      { table.HasColumn(name) } -> std::convertible_to<bool>;
      { table.ColumnIndex(name) } -> std::convertible_to<size_t>;
      { table.ColumnAt(index) } -> std::same_as<const Column&>;
      { table.MemoryBytes() } -> std::convertible_to<size_t>;
    };

/// Composite-key codec role (data/key_codec.h): maps multi-column group
/// keys to the engine's fixed-width EncodedKey and back. Operators never
/// see this interface — they keep running over raw EncodedKey columns; the
/// execution front-end uses it to build the key column, decide whether
/// encoded order is natural order (order_preserving), feed the advisor's
/// cost model (width_bits), and decode result keys into column values.
template <typename C>
concept TableKeyCodec = requires(const C& codec, EncodedKey key) {
  { codec.num_fields() } -> std::convertible_to<size_t>;
  { codec.width_bits() } -> std::convertible_to<int>;
  { codec.order_preserving() } -> std::convertible_to<bool>;
  { codec.Decode(key) } -> std::same_as<DecodedKey>;
};

// --- Operators --------------------------------------------------------------

/// Concrete vector (GROUP BY) aggregation operator: instantiable and
/// pluggable wherever the engine registry hands out operators.
template <typename Op>
concept AggregationOperator =
    std::derived_from<Op, VectorAggregator> && !std::is_abstract_v<Op>;

/// Concrete scalar aggregation operator (Q4-Q6).
template <typename Op>
concept ScalarOperator =
    std::derived_from<Op, ScalarAggregator> && !std::is_abstract_v<Op>;

/// Strategy usable by the adaptive operator (core/adaptive_aggregator.h):
/// consumes individual morsels, reports cheap progress, and can move its
/// partially built group state to another strategy mid-query. Structural
/// twin of the MigratableAggregator interface (core/migratable.h) — spelled
/// as a requires-expression so the compile-fail harness can name the exact
/// missing operation, and so non-virtual implementations also qualify.
template <typename Op>
concept MigratableOperator =
    AggregationOperator<Op> &&
    requires(Op op, const Op& cop, const uint64_t* keys, const Morsel& m,
             typename Op::Partial partial, int num_workers,
             size_t expected_rows) {
      typename Op::Partial;
      op.BeginConsume(num_workers, expected_rows);
      op.ConsumeMorsel(keys, keys, m);
      { cop.Progress() } -> std::same_as<ProgressSnapshot>;
      { op.ExtractPartialState() } -> std::same_as<typename Op::Partial>;
      op.AbsorbPartialState(std::move(partial));
      { op.Finish() } -> std::same_as<VectorResult>;
    };

}  // namespace memagg

#endif  // MEMAGG_CORE_CONCEPTS_H_
