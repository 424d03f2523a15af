// Independent result oracle for TableQuery over a Table.
//
// The oracle never goes through a key codec or an operator family: it reads
// the table's columns directly, groups rows in an ordered map over decoded
// key tuples, keeps exact integer sums and counts, and computes medians with
// nth_element by MedianAggregate's definition (the mean of the two middle
// values for even counts). Every query the benchmark times is compared with
// it row by row, bit for bit.

#ifndef AGGBENCH_ORACLE_H_
#define AGGBENCH_ORACLE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/table_exec.h"
#include "data/key_codec.h"
#include "data/table.h"

namespace aggbench {

/// A query's expected answer in canonical group order.
struct OracleResult {
  std::vector<memagg::DecodedKey> group_keys;
  /// columns[a][g]: exact value of aggregate a for group g.
  std::vector<std::vector<double>> columns;
};

/// Computes `query` over `table`. Supports COUNT, SUM, MIN, MAX and MEDIAN
/// over u64 measures, u64/i64/string group-by columns and the u64 row
/// filter; aborts on anything else. Aborts when a SUM exceeds 2^53, where
/// the engine's double result surface stops being exact.
OracleResult ComputeOracle(const memagg::Table& table,
                           const memagg::TableQuery& query);

/// Number of result rows that differ from the oracle (a missing or extra
/// row counts once). 0 means an exact match. `first_error`, when non-null,
/// receives a description of the first difference.
size_t CountMismatches(const OracleResult& expected,
                       const memagg::TableQueryResult& actual,
                       std::string* first_error = nullptr);

}  // namespace aggbench

#endif  // AGGBENCH_ORACLE_H_
