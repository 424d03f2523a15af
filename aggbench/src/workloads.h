// The benchmark's three workloads and seven plans.
//
// Each workload is one Table plus one TableQuery, generated deterministically
// from the run's seed. Each has 2^20 rows and keeps the property it was picked
// for (see aggbench/README.md):
//
//   tpch_q1         lineitem, Q1: 2-column key, shipdate filter, 3 SUMs and
//                   a COUNT, 4 groups (group state fits in L1).
//   highcard_count  one shuffled u64 key column, COUNT(*), 2^18 groups of
//                   4 rows: 4 MiB of group state (16 B per group), beyond a
//                   core's 2 MiB L2.
//   skew_median     heavy-hitter keys (one key holds 50% of rows), 10k
//                   groups, MEDIAN(v): holistic state grows with rows.

#ifndef AGGBENCH_WORKLOADS_H_
#define AGGBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/table_exec.h"
#include "data/table.h"

namespace aggbench {

/// One plan: a report name, the engine label it runs, and its thread count.
struct Plan {
  std::string name;   ///< Metric prefix, e.g. "hash_lp_t1".
  std::string label;  ///< ExecuteTableQuery label ("auto" = advisor's pick).
  int threads = 1;
  /// False for a plan whose latency is timed, printed and traced but is not
  /// an end-to-end metric: on a shared host it followed the host's CPU
  /// steal or speed too closely to hold any bound (see aggbench/README.md).
  bool end_to_end = true;
};

/// The seven plans, in round-robin order.
const std::vector<Plan>& Plans();

/// Names of the three workloads.
const std::vector<std::string>& WorkloadNames();

/// True if `name` is one of WorkloadNames().
bool IsWorkload(const std::string& name);

/// The query a workload runs.
memagg::TableQuery WorkloadQuery(const std::string& name);

/// Generates the workload's table from `seed` (deterministic in the seed).
memagg::Table GenerateWorkloadTable(const std::string& name, uint64_t seed);

}  // namespace aggbench

#endif  // AGGBENCH_WORKLOADS_H_
