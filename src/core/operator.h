// Abstract aggregation-operator interfaces (paper Section 3).
//
// Every operator runs in two phases: a build phase that consumes the key
// column (and, for value-aggregating functions, the value column), and an
// iterate phase that emits the result rows. The phases are separate virtual
// calls so benchmarks can time them independently, as the paper's Figure 3
// and Figure 8 do.

#ifndef MEMAGG_CORE_OPERATOR_H_
#define MEMAGG_CORE_OPERATOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/result.h"
#include "util/macros.h"

namespace memagg {

struct QueryStats;  // obs/query_stats.h

/// Cheap point-in-time progress report from an aggregation operator, used by
/// the adaptive operator's cost models (core/adaptive_aggregator.h). All
/// three fields must be O(workers) to compute — never O(rows) or O(groups):
/// the adaptive operator polls this at every morsel-chunk barrier.
struct ProgressSnapshot {
  uint64_t rows = 0;    ///< Input rows consumed so far.
  uint64_t groups = 0;  ///< Distinct groups materialized so far (upper bound
                        ///< for per-worker structures before their merge).
  uint64_t bytes = 0;   ///< Bytes held by the operator's data structures
                        ///< (arena-backed containers report reserved bytes).
};

/// Operator for vector (GROUP BY) aggregation queries.
class VectorAggregator {
 public:
  virtual ~VectorAggregator() = default;

  /// Build phase: consumes `n` records. `values` may be nullptr when the
  /// aggregate ignores the value column (COUNT(*)).
  virtual void Build(const uint64_t* keys, const uint64_t* values,
                     size_t n) = 0;

  /// Ownership-transferring build: the operator may consume the columns
  /// in place instead of copying them. Sort-based operators override this to
  /// sort the caller's key array directly — the paper's in-place sorting,
  /// which is what makes sorting the most memory-efficient approach in its
  /// Tables 6-7. The default implementation builds from the columns and then
  /// discards them. `values` may be empty for COUNT(*). May be called only
  /// once, on an empty operator.
  virtual void BuildOwned(std::vector<uint64_t>&& keys,
                          std::vector<uint64_t>&& values) {
    Build(keys.data(), values.empty() ? nullptr : values.data(), keys.size());
  }

  /// Hint: the query will produce roughly `expected_groups` distinct groups.
  /// Operators backed by growable tables pre-size themselves to avoid rehash
  /// churn; others ignore it. Call before Build(), at most once.
  virtual void ReserveGroups(size_t expected_groups) { (void)expected_groups; }

  /// Iterate phase: emits one row per group. Row order is
  /// implementation-defined (sorted for trees/sorts, arbitrary for hashes).
  /// An operator at the row policy (RowAggregate, core/aggregate.h) emits
  /// one entry per output of the row for each group, consecutively.
  virtual VectorResult Iterate() = 0;

  /// True if the operator supports a native range-filtered iterate (Q7).
  /// Hash tables do not (paper Section 5.6).
  virtual bool SupportsRange() const { return false; }

  /// Iterate restricted to group keys in [lo, hi]. Only valid when
  /// SupportsRange().
  virtual VectorResult IterateRange(uint64_t lo, uint64_t hi) {
    (void)lo;
    (void)hi;
    MEMAGG_CHECK(false && "operator has no native range search");
    return {};
  }

  /// Number of groups currently held.
  virtual size_t NumGroups() const = 0;

  /// Approximate bytes held by the operator's data structure.
  virtual size_t DataStructureBytes() const = 0;

  /// Folds the operator's execution statistics (internal phase timings and
  /// structure-specific counters — see obs/query_stats.h) into `stats`.
  /// Called after the phases being reported have completed; walking the
  /// finished structure here is allowed (the cost is paid on demand, never
  /// on the build/iterate hot path).
  virtual void CollectStats(QueryStats* stats) const { (void)stats; }
};

/// Operator for scalar aggregation queries.
class ScalarAggregator {
 public:
  virtual ~ScalarAggregator() = default;

  /// Build phase (e.g. sorting the column or building an index).
  virtual void Build(const uint64_t* keys, const uint64_t* values,
                     size_t n) = 0;

  /// Iterate phase: produces the single scalar result.
  virtual double Finalize() = 0;
};

}  // namespace memagg

#endif  // MEMAGG_CORE_OPERATOR_H_
