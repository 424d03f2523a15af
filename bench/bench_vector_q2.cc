// Vector aggregation Q2 (AVG GROUP BY): the algebraic query the paper
// describes in Table 1 but omits from its result figures "due to space
// constraints and the similarity between Algebraic and Distributive
// functions" (Section 5.2). Included here for completeness so all seven
// Table 1 queries have a harness; expect Figure 4-like shapes.

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
  const auto values = GenerateValues(records, 1000000, 90);

  PrintBanner("Q2 (vector AVG, algebraic) - " + std::to_string(records) +
                  " records",
              "completeness companion to Figure 4; not plotted in the paper");
  std::printf("dataset,cardinality,algorithm,total_cycles,build_ms,iterate_ms\n");

  // One aggregate; ExecuteRowQuery sizes the structure from the sampled
  // group estimate.
  AggregateRow row;
  row.Add(AggregateFunction::kAverage, values.data());

  BenchReport report("vector_q2");
  report.SetParam("records", records);

  for (const std::string& dataset_name : dataset_names) {
    const Distribution distribution = DistributionFromName(dataset_name);
    for (uint64_t cardinality : cardinalities) {
      DatasetSpec spec{distribution, records, cardinality, 91};
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
