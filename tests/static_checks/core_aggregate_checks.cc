// Pins every aggregate policy — the serial ones from core/aggregate.h, the
// row policy that folds a whole query's aggregates into one state row, and
// the Hash_TBBSC concurrent counterparts from core/parallel_aggregator.h —
// to AggregatePolicy / MergeableAggregatePolicy (core/concepts.h).
// Compiling this TU is the test; it has no runtime code.

#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/parallel_aggregator.h"

namespace memagg {

// Serial policies: all mergeable (the partitioned operators need Merge).
static_assert(MergeableAggregatePolicy<CountAggregate>);
static_assert(MergeableAggregatePolicy<SumAggregate>);
static_assert(MergeableAggregatePolicy<MinAggregate>);
static_assert(MergeableAggregatePolicy<MaxAggregate>);
static_assert(MergeableAggregatePolicy<AverageAggregate>);
static_assert(MergeableAggregatePolicy<MedianAggregate>);
static_assert(MergeableAggregatePolicy<ModeAggregate>);

// The row policy at both instantiations the engine makes (core/engine.cc
// MakeRowAggregator): Hash_PLocal, Adaptive's migratable state and Hybrid
// merge partial rows, so it must be mergeable like the policies above.
static_assert(MergeableAggregatePolicy<RowAggregate<kMaxRowSlots, false>>);
static_assert(MergeableAggregatePolicy<RowAggregate<kMaxRowSlots, true>>);

// Concurrent policies synchronize in place and are never partition-merged,
// so they model the base concept but not the mergeable refinement.
static_assert(AggregatePolicy<ConcurrentCountAggregate>);
static_assert(AggregatePolicy<ConcurrentSumAggregate>);
static_assert(AggregatePolicy<ConcurrentMinAggregate>);
static_assert(AggregatePolicy<ConcurrentMaxAggregate>);
static_assert(AggregatePolicy<ConcurrentAverageAggregate>);
static_assert(AggregatePolicy<ConcurrentMedianAggregate>);
static_assert(AggregatePolicy<ConcurrentModeAggregate>);
static_assert(AggregatePolicy<ConcurrentRowAggregate<kMaxRowSlots, false>>);
static_assert(AggregatePolicy<ConcurrentRowAggregate<kMaxRowSlots, true>>);
static_assert(!MergeableAggregatePolicy<ConcurrentSumAggregate>);
static_assert(!MergeableAggregatePolicy<ConcurrentMedianAggregate>);
static_assert(
    !MergeableAggregatePolicy<ConcurrentRowAggregate<kMaxRowSlots, false>>);

}  // namespace memagg
