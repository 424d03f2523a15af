// The paper's Figure 12 decision flow chart as an executable planner.
//
// Given a workload profile (output format, write-once-read-once vs
// write-once-read-many, aggregate category, range condition, prebuilt index,
// thread count) the advisor returns the algorithm label the paper's
// experiments found fastest for that situation. One leaf departs from the
// paper: multithreaded distributive/algebraic vector queries go to
// Hash_PLocal (thread-local tables, then a merge) instead of Hash_TBBSC,
// because this repo's end-to-end measurements found the shared table's
// contended updates slowest (EXPERIMENTS.md, Figure 12).

#ifndef MEMAGG_CORE_ADVISOR_H_
#define MEMAGG_CORE_ADVISOR_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/aggregate.h"
#include "core/query.h"

namespace memagg {

/// Inputs to the Figure 12 decision flow.
struct WorkloadProfile {
  /// Vector (GROUP BY) or scalar output.
  OutputFormat output = OutputFormat::kVector;
  /// Aggregate category (only consulted for vector queries).
  FunctionCategory category = FunctionCategory::kDistributive;
  /// Write-once-read-many: the structure will serve multiple queries.
  bool worm = false;
  /// The query carries a range condition on the group key (Q7-style).
  bool has_range_condition = false;
  /// A suitable index over the keys already exists.
  bool prebuilt_index = false;
  /// Threads available for this query.
  int num_threads = 1;
  /// Effective width of the group key in bits — the KeyCodec's packed width
  /// for composite keys (core/table_exec.h sets this from the codec), or
  /// the key domain's bit width for raw columns. The hash-vs-sort empirical
  /// study (arXiv 2411.13245) shows byte-oriented radix sorts lose their
  /// edge as keys widen: each extra byte is another full distribution pass.
  /// Defaults to 32, the paper's synthetic key domain (cardinality <= 10^7).
  int key_width_bits = 32;
};

/// Returns the recommended algorithm label (as used by MakeVectorAggregator
/// / MakeScalarMedianAggregator) for `profile`, following Figure 12.
std::string RecommendAlgorithm(const WorkloadProfile& profile);

/// Convenience: derives a profile from a Table 1 query descriptor.
WorkloadProfile ProfileForQuery(const Query& query, bool worm = false,
                                bool prebuilt_index = false,
                                int num_threads = 1);

/// Human-readable explanation of the decision path taken for `profile`.
std::string ExplainRecommendation(const WorkloadProfile& profile);

/// Estimates the number of distinct group keys in `keys[0..n)` from a
/// deterministic sample (at most a few thousand probes, so the cost is
/// negligible next to any build). Returns 0 for n == 0; for n > 0 the
/// estimate is clamped to [1, n] (in fact to [distinct-in-sample, n]) and
/// is exact when the input fits in the sample (n <= 4096). The GEE
/// scale-up bounds the ratio error by sqrt(n / sample_size) in either
/// direction — ~16x at n = 10^6 — which is the documented error band.
/// Intended for pre-sizing growable structures
/// (VectorAggregator::ReserveGroups) and the adaptive operator's cost
/// models: an overestimate wastes some table space, an underestimate merely
/// re-enables growth, so a rough scale-up of the sample's distinct count is
/// sufficient.
size_t EstimateGroupCardinality(const uint64_t* keys, size_t n);

}  // namespace memagg

#endif  // MEMAGG_CORE_ADVISOR_H_
