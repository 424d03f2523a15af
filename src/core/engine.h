// The memagg engine: a registry mapping the paper's algorithm labels
// (Table 3 and Table 8) to aggregation operators.
//
// Every fact about a label lives in one table (Labels(), core/engine.cc):
// its family, whether it runs at any thread count, its paper table, and
// whether it serves range search or scalar median. The label lists below
// are derived from that table.
//
// Serial labels (Table 3): ART, Judy, Btree, Hash_SC, Hash_LP, Hash_Sparse,
// Hash_Dense, Hash_LC, Introsort, Spreadsort. Concurrent labels (Table 8):
// Hash_TBBSC, Hash_LC, Sort_BI, Sort_QSLB. The registry adds the extra
// sorts of the paper's sort microbenchmarks (Quicksort, Sort_MSBRadix,
// Sort_LSBRadix, Sort_SS, Sort_TBB) and the repo's extensions (Ttree,
// Hash_MPH, the Hash_P*/Hash_Striped partitioned tables, Hybrid, Adaptive,
// and the allocator-ablation twins Hash_SC_Global and ART_Global).

#ifndef MEMAGG_CORE_ENGINE_H_
#define MEMAGG_CORE_ENGINE_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/aggregate.h"
#include "core/operator.h"
#include "exec/executor.h"
#include "obs/query_stats.h"

namespace memagg {

/// Which family a label belongs to (paper Dimension 1).
enum class AlgorithmCategory { kHash, kTree, kSort };

/// Everything the engine knows about one algorithm label.
struct LabelInfo {
  std::string_view name;
  AlgorithmCategory category = AlgorithmCategory::kHash;
  /// Runs only with num_threads == 1. ExecuteRowQuery runs such a label on
  /// one worker whatever the context asks; MakeVectorAggregator aborts.
  bool serial_only = false;
  bool table3 = false;  ///< In paper Table 3 (serial algorithms).
  bool table8 = false;  ///< In paper Table 8 (concurrent algorithms).
  /// A tree the Q7 range search runs on (native ordered IterateRange).
  bool range_search = false;
  /// Accepted by MakeScalarMedianAggregator (Q6).
  bool scalar_median = false;
};

/// Every label MakeVectorAggregator accepts. Table 3 and Table 8 labels
/// come first, each table in paper order.
std::span<const LabelInfo> Labels();

/// The registry entry for `label`; aborts on unknown labels.
const LabelInfo& LookupLabel(std::string_view label);

/// Category of a known label; aborts on unknown labels.
AlgorithmCategory CategoryOfLabel(const std::string& label);

/// The ten Table 3 labels, in paper order.
const std::vector<std::string>& SerialLabels();

/// The four Table 8 concurrent labels, in paper order.
const std::vector<std::string>& ConcurrentLabels();

/// The Table 3 trees usable for range search (Q7).
const std::vector<std::string>& TreeLabels();

/// The Table 3 labels usable for scalar median (Q6): trees and sorts.
const std::vector<std::string>& ScalarCapableLabels();

/// Creates a vector-aggregation operator for `label` computing `function`.
/// `expected_size` pre-sizes hash tables (pass the record count, per the
/// paper's assumption). `exec` carries the thread budget (an int converts
/// implicitly): num_threads > 1 selects the concurrent variant of a label
/// that runs at any thread count; a serial-only label
/// (LabelInfo::serial_only) aborts on num_threads > 1. All parallel
/// operators run on the shared morsel-driven scheduler (src/exec/) — no
/// operator spawns threads of its own.
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
/// bucket array) at `n`. A serial-only label runs on one worker whatever
/// `exec.num_threads` asks.
VectorQueryExecution ExecuteRowQuery(const std::string& label,
                                     const AggregateRow& row,
                                     const uint64_t* keys,
                                     const uint64_t* rows, size_t n,
                                     ExecutionContext exec = {});

}  // namespace memagg

#endif  // MEMAGG_CORE_ENGINE_H_
