// Tests of the benchmark's own arithmetic: the percentile rule, quartiles,
// the oracle's rejection of wrong rows, and the outside_ms residual.
//
//   cmake --build <build-dir> --target aggbench_test
//   <build-dir>/aggbench_test
//
// Plain checks with no test framework, so the benchmark's build needs
// nothing beyond the compiler. Exits non-zero if any check fails.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "core/table_exec.h"
#include "data/table.h"
#include "oracle.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (condition) return;
  std::fprintf(stderr, "FAILED: %s\n", what);
  ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileRule() {
  using aggbench::Percentile;
  using aggbench::PercentileSupported;
  Expect(!PercentileSupported(99, 90), "99 samples do not support p90");
  Expect(PercentileSupported(100, 90), "100 samples support p90");
  Expect(!PercentileSupported(19, 50), "19 samples do not support p50");
  Expect(PercentileSupported(20, 50), "20 samples support p50");
  Expect(!PercentileSupported(999, 99), "999 samples do not support p99");
  Expect(!Percentile(Iota(99), 90).has_value(), "no p90 label below 100");
  Expect(!Percentile({}, 50).has_value(), "no p50 of nothing");

  // Nearest rank over 1..100: p90 is the 90th value, with 10 beyond it.
  const auto p90 = Percentile(Iota(100), 90);
  Expect(p90.has_value() && *p90 == 90, "p90 of 1..100 is 90");
  const auto p50 = Percentile(Iota(100), 50);
  Expect(p50.has_value() && *p50 == 50, "p50 of 1..100 is 50");
  // Order of the input does not matter.
  std::vector<double> reversed = Iota(200);
  std::reverse(reversed.begin(), reversed.end());
  const auto p90r = Percentile(reversed, 90);
  Expect(p90r.has_value() && *p90r == 180, "p90 of shuffled 1..200 is 180");
}

void TestQuartiles() {
  using aggbench::Quartiles;
  // Reference values from Python: statistics.quantiles(data, n=4).
  const auto q1 = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  Expect(q1.has_value() && Near((*q1)[0], 2.75) && Near((*q1)[1], 5.5) &&
             Near((*q1)[2], 8.25),
         "quartiles of 1..10 are 2.75, 5.5, 8.25");
  const auto q2 = Quartiles({4, 1, 3, 2});
  Expect(q2.has_value() && Near((*q2)[0], 1.25) && Near((*q2)[1], 2.5) &&
             Near((*q2)[2], 3.75),
         "quartiles of 1..4 are 1.25, 2.5, 3.75");
  // With few samples the exclusive method extrapolates past the data.
  const auto q3 = Quartiles({10, 20});
  Expect(q3.has_value() && Near((*q3)[0], 7.5) && Near((*q3)[1], 15) &&
             Near((*q3)[2], 22.5),
         "quartiles of 10, 20 are 7.5, 15, 22.5");
  Expect(!Quartiles({1}).has_value(), "one sample has no quartiles");
  Expect(Near(aggbench::Median({3, 1, 2}), 2), "median of three");
  Expect(Near(aggbench::Median({4, 1, 3, 2}), 2.5), "median of four");
}

memagg::Table SmallTable() {
  memagg::Table table;
  table.AddColumn("k", memagg::Column::U64({7, 3, 7, 5, 3, 7, 9}));
  table.AddColumn("v", memagg::Column::U64({10, 4, 30, 8, 6, 20, 1}));
  return table;
}

void TestOracle() {
  const memagg::Table table = SmallTable();
  memagg::TableQuery query;
  query.group_by = {"k"};
  query.aggregates = {{memagg::AggregateFunction::kSum, "v", "s"},
                      {memagg::AggregateFunction::kCount, "", "c"},
                      {memagg::AggregateFunction::kMedian, "v", "m"}};
  const aggbench::OracleResult oracle = aggbench::ComputeOracle(table, query);
  Expect(oracle.group_keys.size() == 4, "oracle finds four groups");
  Expect(oracle.group_keys[0][0].u64 == 3 && oracle.group_keys[3][0].u64 == 9,
         "oracle orders groups by key");
  Expect(oracle.columns[0][2] == 60 && oracle.columns[1][2] == 3 &&
             oracle.columns[2][2] == 20,
         "oracle sum, count and median of key 7");
  Expect(oracle.columns[2][0] == 5, "even-count median is the middle mean");

  for (const char* label : {"Hash_LP", "Spreadsort", "ART"}) {
    const memagg::TableQueryResult result =
        memagg::ExecuteTableQuery(table, query, label);
    std::string error;
    Expect(aggbench::CountMismatches(oracle, result, &error) == 0,
           "engine result matches the oracle");

    memagg::TableQueryResult wrong_value = result;
    wrong_value.aggregate_columns[0][1] += 1;
    Expect(aggbench::CountMismatches(oracle, wrong_value, &error) == 1,
           "a planted wrong value is one mismatch");

    memagg::TableQueryResult wrong_key = result;
    wrong_key.group_keys[2][0].u64 = 8;
    Expect(aggbench::CountMismatches(oracle, wrong_key, &error) == 1,
           "a planted wrong key is one mismatch");

    memagg::TableQueryResult missing_row = result;
    missing_row.group_keys.pop_back();
    for (auto& column : missing_row.aggregate_columns) column.pop_back();
    Expect(aggbench::CountMismatches(oracle, missing_row, &error) == 1,
           "a missing row is one mismatch");
    Expect(!error.empty(), "a mismatch is described");
  }
}

void TestOutsideResidual() {
  memagg::QueryStats stats;
  stats.AddPhase(memagg::StatPhase::kBuild, 0, 4.0);
  stats.AddPhase(memagg::StatPhase::kIterate, 0, 1.5);
  // Subphases lie inside build/iterate and must not be subtracted again.
  stats.AddPhase(memagg::StatPhase::kSort, 0, 3.0);
  stats.AddPhase(memagg::StatPhase::kMerge, 0, 0.5);
  Expect(Near(aggbench::OutsideMillis(10.0, stats), 4.5),
         "outside = wall - build - iterate");
  // Several aggregates merge their phases; the residual uses the sums.
  memagg::QueryStats second;
  second.AddPhase(memagg::StatPhase::kBuild, 0, 2.0);
  stats.Merge(second);
  Expect(Near(aggbench::OutsideMillis(10.0, stats), 2.5),
         "outside subtracts phases summed over aggregates");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestQuartiles();
  TestOracle();
  TestOutsideResidual();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("aggbench_test: all checks passed\n");
  return 0;
}
