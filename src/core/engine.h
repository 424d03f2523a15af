// The memagg engine: a registry mapping the paper's algorithm labels
// (Table 3 and Table 8) to aggregation operators.
//
// Serial labels (Table 3): ART, Judy, Btree, Ttree, Hash_SC, Hash_LP,
// Hash_Sparse, Hash_Dense, Hash_LC, Introsort, Spreadsort, plus the extra
// sort algorithms evaluated in the microbenchmarks (Quicksort,
// Sort_MSBRadix, Sort_LSBRadix).
//
// Concurrent labels (Table 8): Hash_TBBSC, Hash_LC, Sort_BI, Sort_QSLB,
// plus Sort_SS and Sort_TBB from the parallel sort microbenchmark.

#ifndef MEMAGG_CORE_ENGINE_H_
#define MEMAGG_CORE_ENGINE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/operator.h"
#include "exec/executor.h"
#include "obs/query_stats.h"

namespace memagg {

/// Which family a label belongs to (paper Dimension 1).
enum class AlgorithmCategory { kHash, kTree, kSort };

/// Category of a known label; aborts on unknown labels.
AlgorithmCategory CategoryOfLabel(const std::string& label);

/// The ten Table 3 labels, in paper order.
const std::vector<std::string>& SerialLabels();

/// The four Table 8 concurrent labels, in paper order.
const std::vector<std::string>& ConcurrentLabels();

/// The tree labels (Q7 / range-search capable).
const std::vector<std::string>& TreeLabels();

/// Labels usable for scalar median (Q6): trees and sorts.
const std::vector<std::string>& ScalarCapableLabels();

/// Creates a vector-aggregation operator for `label` computing `function`.
/// `expected_size` pre-sizes hash tables (pass the record count, per the
/// paper's assumption). `exec` carries the thread budget (an int converts
/// implicitly): num_threads > 1 selects the concurrent variant for
/// concurrent-capable labels (Hash_TBBSC, Hash_LC, Hybrid, Sort_BI,
/// Sort_QSLB, Sort_SS, Sort_TBB and the Hash_P*/Hash_Striped extensions);
/// serial-only labels require num_threads == 1. All parallel operators run
/// on the shared morsel-driven scheduler (src/exec/) — no operator spawns
/// threads of its own.
std::unique_ptr<VectorAggregator> MakeVectorAggregator(
    const std::string& label, AggregateFunction function, size_t expected_size,
    const ExecutionContext& exec = {});

/// Creates a scalar-median (Q6) operator for a tree or sort label.
std::unique_ptr<ScalarAggregator> MakeScalarMedianAggregator(
    const std::string& label, const ExecutionContext& exec = {});

/// A query result paired with the execution statistics of the run that
/// produced it (phase timings, operator counters, morsel accounting — see
/// obs/query_stats.h).
struct VectorQueryExecution {
  VectorResult result;
  QueryStats stats;
};

/// Runs one vector aggregation end to end through the engine registry and
/// returns the result rows next to a QueryStats snapshot: build/iterate
/// phase timings measured here, the operator's own phase splits and
/// structure counters (CollectStats), and — for parallel labels — the
/// morsel/worker accounting recorded by the executor. If `exec.stats` is
/// null a private StatsRegistry sized to `exec.num_threads` is used.
/// `values` may be nullptr for value-less aggregates (COUNT).
VectorQueryExecution ExecuteVectorQuery(const std::string& label,
                                        AggregateFunction function,
                                        const uint64_t* keys,
                                        const uint64_t* values, size_t n,
                                        size_t expected_size,
                                        ExecutionContext exec = {});

/// Runs every aggregate of `row` over `n` keys in one build (one pass over
/// the keys, kRowsBuilt == n): the family for `label` instantiated at the
/// row policy (RowAggregate, core/aggregate.h), fed one row number per
/// record as its value column. `row` must have at most kMaxRowSlots state
/// slots. Record i's measures are read at row number
/// rows[i] (rows == nullptr: row i), in place — no measure column is copied
/// except for a one-output row: that one runs the single-function policy,
/// which reads its values contiguously. The result holds
/// row.num_outputs() consecutive entries per group, in the row's Add
/// order. Growable structures are constructed at the sampled group estimate
/// (EstimateGroupCardinality); structures that cannot grow (Hash_TBBSC's
/// bucket array) at `n`.
VectorQueryExecution ExecuteRowQuery(const std::string& label,
                                     const AggregateRow& row,
                                     const uint64_t* keys,
                                     const uint64_t* rows, size_t n,
                                     ExecutionContext exec = {});

}  // namespace memagg

#endif  // MEMAGG_CORE_ENGINE_H_
