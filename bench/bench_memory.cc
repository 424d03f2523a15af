// Tables 6 and 7: peak memory usage for Q1 and Q3 on Rseq with 10^3 groups,
// dataset size swept 10^5..10^8.
//
// The paper used `/usr/bin/time -v` per run; this bench forks a child
// process per configuration and reads its VmHWM, giving each run an isolated
// peak-RSS watermark. It also reports each operator's own data-structure
// byte estimate for cross-checking.
//
// Paper sweep: 1e5..1e8 records. Container default caps at 1e7 (override
// with --sizes=100k,1M,10M,100M).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "data/dataset.h"
#include "util/memory_tracker.h"

namespace memagg {
namespace {

int Run(int argc, char** argv) {
  CliFlags flags(argc, argv);
  std::vector<uint64_t> sizes;
  for (const std::string& text :
       flags.GetList("sizes", {"100k", "1M", "10M"})) {
    sizes.push_back(static_cast<uint64_t>(ParseHumanInt(text)));
  }
  const uint64_t cardinality =
      static_cast<uint64_t>(flags.GetInt("cardinality", 1000));
  const auto labels = flags.GetList("algorithms", SerialLabels());

  PrintBanner("Tables 6-7: Peak Memory Usage - Q1/Q3 on Rseq, " +
                  std::to_string(cardinality) + " groups",
              "peak RSS (MB) measured in a forked child per configuration");
  std::printf("query,records,algorithm,peak_rss_mb,ds_bytes_mb\n");

  for (const char* query : {"Q1", "Q3"}) {
    const bool holistic = std::string(query) == "Q3";
    for (uint64_t records : sizes) {
      if (!IsValidSpec({Distribution::kRseq, records, cardinality, 82})) {
        continue;
      }
      for (const std::string& label : labels) {
        // Both the peak RSS and the operator's own byte estimate are
        // measured in the forked child, so the parent process never holds
        // large allocations that would contaminate later children.
        uint64_t ds_bytes = 0;
        const uint64_t peak = MeasurePeakRssInChild(
            [&]() -> uint64_t {
              DatasetSpec spec{Distribution::kRseq, records, cardinality, 82};
              auto keys = GenerateKeys(spec);
              std::vector<uint64_t> values;
              if (holistic) values = GenerateValues(records, 1000000, 83);
              auto aggregator = MakeVectorAggregator(
                  label,
                  holistic ? AggregateFunction::kMedian
                           : AggregateFunction::kCount,
                  records);
              if (CategoryOfLabel(label) == AlgorithmCategory::kSort) {
                // The paper's sort operators consume the preloaded dataset
                // in place; hand the columns over instead of copying.
                aggregator->BuildOwned(std::move(keys), std::move(values));
              } else {
                aggregator->Build(keys.data(),
                                  holistic ? values.data() : nullptr,
                                  keys.size());
              }
              VectorResult result = aggregator->Iterate();
              if (result.empty()) std::abort();
              return aggregator->DataStructureBytes();
            },
            &ds_bytes);
        const double ds_mb =
            static_cast<double>(ds_bytes) / (1024.0 * 1024.0);
        std::printf("%s,%llu,%s,%.2f,%.2f\n", query,
                    static_cast<unsigned long long>(records), label.c_str(),
                    static_cast<double>(peak) / (1024.0 * 1024.0), ds_mb);
        std::fflush(stdout);
      }
    }
  }

  // Allocator ablation (paper Section 6): the paper swept five malloc
  // libraries; this repo isolates the same dimension as arena-backed vs
  // global-new twins of the chaining-map and ART build paths. Runs
  // in-process through ExecuteRowQuery so the QueryStats rows carry the
  // allocator counters (arena_chunks, arena_bytes_*, freelist_reuses) into
  // BENCH_memory.json.
  BenchReport report("memory");
  report.SetParam("cardinality", cardinality);
  report.SetParam("query", "Q1");
  const auto alloc_labels = flags.GetList(
      "alloc_algorithms", {"Hash_SC", "Hash_SC_Global", "ART", "ART_Global"});
  std::printf("\n# Allocator ablation: arena vs global new (Q1 count)\n");
  std::printf(
      "records,algorithm,millis,arena_chunks,arena_bytes_reserved,"
      "arena_bytes_used\n");
  AggregateRow count;
  count.Add(AggregateFunction::kCount, nullptr);
  for (uint64_t records : sizes) {
    const DatasetSpec spec{Distribution::kRseq, records, cardinality, 82};
    if (!IsValidSpec(spec)) continue;
    const auto keys = GenerateKeys(spec);
    for (const std::string& label : alloc_labels) {
      const VectorQueryExecution execution =
          ExecuteRowQuery(label, count, keys.data(), nullptr, keys.size());
      if (execution.result.empty()) std::abort();
      const QueryStats& stats = execution.stats;
      report.AddRow(label, records, stats.TotalCycles(), stats.TotalMillis(),
                    &stats);
      std::printf("%llu,%s,%.3f,%llu,%llu,%llu\n",
                  static_cast<unsigned long long>(records), label.c_str(),
                  stats.TotalMillis(),
                  static_cast<unsigned long long>(
                      stats.Get(StatCounter::kArenaChunks)),
                  static_cast<unsigned long long>(
                      stats.Get(StatCounter::kArenaBytesReserved)),
                  static_cast<unsigned long long>(
                      stats.Get(StatCounter::kArenaBytesUsed)));
      std::fflush(stdout);
    }
  }
  report.WriteFile();
  return 0;
}

}  // namespace
}  // namespace memagg

int main(int argc, char** argv) { return memagg::Run(argc, argv); }
