// Figure 5: vector aggregation Q3 (MEDIAN GROUP BY) over all Table 4
// distributions, group-by cardinality swept 10^2..10^7 at fixed dataset
// size. The holistic counterpart of bench_vector_q1: hash/tree operators
// must buffer every group's values, sorts aggregate over runs.
//
// Paper scale: 100M records. Container default: 4M (override with
// --records=...).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "data/dataset.h"

namespace memagg {
namespace {

int Run(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const uint64_t records =
      static_cast<uint64_t>(flags.GetInt("records", 4000000));
  const auto cardinalities = CardinalitySweep(flags, records);
  const auto labels = flags.GetList("algorithms", SerialLabels());
  const auto dataset_names =
      flags.GetList("datasets", {"Rseq", "Rseq-Shf", "Hhit", "Hhit-Shf",
                                 "Zipf", "MovC"});
  const auto values = GenerateValues(records, 1000000, 78);

  PrintBanner("Figure 5: Vector Aggregation Q3 (MEDIAN) - " +
                  std::to_string(records) + " records",
              "query execution cycles vs group-by cardinality");
  std::printf("dataset,cardinality,algorithm,total_cycles,build_ms,iterate_ms\n");

  // One aggregate; ExecuteRowQuery sizes the structure from the sampled
  // group estimate.
  AggregateRow row;
  row.Add(AggregateFunction::kMedian, values.data());

  BenchReport report("vector_q3");
  report.SetParam("records", records);

  for (const std::string& dataset_name : dataset_names) {
    const Distribution distribution = DistributionFromName(dataset_name);
    for (uint64_t cardinality : cardinalities) {
      if (cardinality > records) continue;
      DatasetSpec spec{distribution, records, cardinality, 79};
      if (!IsValidSpec(spec)) continue;
      const auto keys = GenerateKeys(spec);
      for (const std::string& label : labels) {
        const VectorQueryExecution execution =
            ExecuteRowQuery(label, row, keys.data(), nullptr, keys.size());
        const QueryStats& stats = execution.stats;
        std::printf("%s,%llu,%s,%llu,%.1f,%.1f\n", dataset_name.c_str(),
                    static_cast<unsigned long long>(cardinality),
                    label.c_str(),
                    static_cast<unsigned long long>(stats.TotalCycles()),
                    stats.PhaseMillis(StatPhase::kBuild),
                    stats.PhaseMillis(StatPhase::kIterate));
        report.AddRow(dataset_name + "/" + label, cardinality,
                      stats.TotalCycles(), stats.TotalMillis(), &stats);
        std::fflush(stdout);
      }
    }
  }
  report.WriteFile();
  return 0;
}

}  // namespace
}  // namespace memagg

int main(int argc, char** argv) { return memagg::Run(argc, argv); }
