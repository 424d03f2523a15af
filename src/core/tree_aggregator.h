// Tree-based vector aggregation (paper Section 3.3).
//
// Identical two-phase structure to the hash operators, with two extras the
// paper studies: the iterate phase emits groups in sorted key order, and the
// operator supports native range-filtered iteration (Q7) because radix and
// comparison trees order their keys.

#ifndef MEMAGG_CORE_TREE_AGGREGATOR_H_
#define MEMAGG_CORE_TREE_AGGREGATOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/migratable.h"
#include "core/operator.h"
#include "core/result.h"
#include "obs/query_stats.h"
#include "util/encoded_key.h"
#include "util/macros.h"

namespace memagg {

/// Vector aggregation over any memagg tree index. `TreeT` is the tree
/// template (ArtTree, JudyArray, BTree, TTree); `Aggregate` is an aggregate
/// policy from core/aggregate.h. The tree instantiated at the aggregate's
/// State type must model OrderedGroupStore (core/concepts.h).
template <template <typename> class TreeT, AggregatePolicy Aggregate>
  requires OrderedGroupStore<TreeT<typename Aggregate::State>,
                             typename Aggregate::State>
class TreeVectorAggregator final : public VectorAggregator,
                                   public MigratableAggregator<Aggregate> {
 public:
  using State = typename Aggregate::State;
  using Partial = PartialAggState<Aggregate>;

  /// Trees grow dynamically with the data (paper Section 3.3); no
  /// pre-sizing is needed or possible.
  explicit TreeVectorAggregator(Aggregate agg = {}) : agg_(std::move(agg)) {}

  void Build(const uint64_t* keys, const uint64_t* values,
             size_t n) override {
    if constexpr (Aggregate::kNeedsValues) {
      for (size_t i = 0; i < n; ++i) {
        agg_.Update(tree_.GetOrInsert(keys[i]), values[i]);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        agg_.Update(tree_.GetOrInsert(keys[i]), 0);
      }
    }
  }

  VectorResult Iterate() override {
    VectorResult result;
    result.reserve(tree_.size());
    tree_.ForEach([this, &result](EncodedKey key, const State& state) {
      EmitGroup(agg_, result, key, const_cast<State&>(state));
    });
    return result;
  }

  bool SupportsRange() const override { return true; }

  VectorResult IterateRange(uint64_t lo, uint64_t hi) override {
    VectorResult result;
    tree_.ForEachInRange(lo, hi,
                         [this, &result](EncodedKey key, const State& state) {
                           EmitGroup(agg_, result, key,
                                     const_cast<State&>(state));
                         });
    return result;
  }

  // --- MigratableAggregator (core/migratable.h) -----------------------------
  // Single-worker strategy, like the hash operator: ConsumeMorsel never runs
  // concurrently with itself.

  void ConsumeMorsel(const uint64_t* keys, const uint64_t* values,
                     const Morsel& m) override {
    Build(keys + m.begin, values == nullptr ? nullptr : values + m.begin,
          m.end - m.begin);
    rows_consumed_ += m.end - m.begin;
  }

  ProgressSnapshot Progress() const override {
    return {rows_consumed_, tree_.size(), tree_.MemoryBytes()};
  }

  Partial ExtractPartialState() override {
    // Trees are not movable, so extraction moves the States out and leaves
    // the (drained) node skeleton behind — only destruction is valid
    // afterwards, per the interface contract.
    Partial out;
    out.partials.reserve(tree_.size());
    tree_.ForEach([&out](EncodedKey key, const State& state) {
      out.partials.emplace_back(key, std::move(const_cast<State&>(state)));
    });
    out.rows = rows_consumed_;
    rows_consumed_ = 0;
    return out;
  }

  void AbsorbPartialState(Partial&& partial) override {
    for (auto& [key, state] : partial.partials) {
      if constexpr (MergeableAggregatePolicy<Aggregate>) {
        agg_.Merge(tree_.GetOrInsert(key), state);
      } else {
        MEMAGG_CHECK(false && "aggregate has no Merge; cannot absorb partials");
      }
    }
    for (const auto& [key, value] : partial.records) {
      agg_.Update(tree_.GetOrInsert(key), value);
    }
    rows_consumed_ += partial.rows;
  }

  VectorResult Finish() override { return Iterate(); }

  size_t NumGroups() const override { return tree_.size(); }

  size_t DataStructureBytes() const override { return tree_.MemoryBytes(); }

  void CollectStats(QueryStats* stats) const override {
    // Map whichever diagnostic struct this tree family exposes (ART/Judy
    // node censuses, B-tree/T-tree shape stats) onto the uniform counters.
    if constexpr (requires { tree_.ComputeNodeStats(); }) {
      const auto node_stats = tree_.ComputeNodeStats();
      if constexpr (requires { node_stats.inner_nodes(); }) {  // ART
        stats->Add(StatCounter::kTreeNodes,
                   node_stats.inner_nodes() + node_stats.leaves);
        stats->MaxOf(StatCounter::kTreeHeight, node_stats.max_depth);
      } else {  // Judy
        stats->Add(StatCounter::kTreeNodes, node_stats.linear_branches +
                                                node_stats.bitmap_branches +
                                                node_stats.bitmap_leaves);
      }
    } else if constexpr (requires { tree_.ComputeTreeStats(); }) {
      const auto tree_stats = tree_.ComputeTreeStats();
      if constexpr (requires { tree_stats.inner_nodes; }) {  // B-tree
        stats->Add(StatCounter::kTreeNodes,
                   tree_stats.inner_nodes + tree_stats.leaves);
      } else {  // T-tree
        stats->Add(StatCounter::kTreeNodes, tree_stats.nodes);
      }
      stats->MaxOf(StatCounter::kTreeHeight, tree_stats.height);
    }
    if constexpr (requires { tree_.AllocatorStats(); }) {
      AddAllocStats(stats, tree_.AllocatorStats());
    }
  }

  /// Direct access for tests.
  TreeT<State>& tree() { return tree_; }

 private:
  [[no_unique_address]] Aggregate agg_;
  TreeT<State> tree_;
  uint64_t rows_consumed_ = 0;  ///< Morsel-path rows (Progress reporting).
};

}  // namespace memagg

#endif  // MEMAGG_CORE_TREE_AGGREGATOR_H_
