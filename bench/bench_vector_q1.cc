// Figure 4: vector aggregation Q1 (COUNT GROUP BY) over all Table 4
// distributions, group-by cardinality swept 10^2..10^7 at fixed dataset
// size.
//
// Paper scale: 100M records. Container default: 4M (override with
// --records=100M --cardinalities=...). Output: one row per
// (distribution, cardinality, algorithm) with query execution cycles —
// the Figure 4 line charts.

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

  PrintBanner("Figure 4: Vector Aggregation Q1 (COUNT) - " +
                  std::to_string(records) + " records",
              "query execution cycles vs group-by cardinality");
  std::printf("dataset,cardinality,algorithm,total_cycles,build_ms,iterate_ms\n");

  // One aggregate; ExecuteRowQuery sizes the structure from the sampled
  // group estimate.
  AggregateRow row;
  row.Add(AggregateFunction::kCount, nullptr);

  BenchReport report("vector_q1");
  report.SetParam("records", records);

  for (const std::string& dataset_name : dataset_names) {
    const Distribution distribution = DistributionFromName(dataset_name);
    for (uint64_t cardinality : cardinalities) {
      if (cardinality > records) continue;
      DatasetSpec spec{distribution, records, cardinality, 77};
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
