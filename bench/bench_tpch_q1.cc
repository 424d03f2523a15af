// TPC-H Q1-shaped aggregation over the columnar Table layer (DESIGN.md,
// docs/data_model.md): lineitem with a 2-column composite key
// (l_returnflag, l_linestatus), a shipdate filter, and four aggregates
// (sum_qty, sum_base_price, sum_disc_price, count_order).
//
// Two jobs in one binary:
//
//   Validation. All measure columns are u64 fixed-point, so every operator
//   family must produce BYTE-IDENTICAL results regardless of partitioning,
//   threading, or adaptive mid-query switching. `--write-golden=PATH`
//   renders the canonical result text; `--check-golden=PATH` re-runs every
//   family (serial, parallel, Adaptive at 1 and N threads) and fails unless
//   each run matches the committed golden byte for byte. CI runs the check
//   under ASan (tools/make_golden.py drives both modes).
//
//   Benchmark. Default mode times each family over --reps repetitions,
//   prints CSV, and writes BENCH_tpch.json for tools/bench_compare.py: one
//   row per family at its median rep, with the min/max reps and the
//   rows_built/rows_scanned one-pass counts as row meta.
//
// Paper scale: 100M+ records. Container default: 600k (golden: 200k).

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "core/table_exec.h"
#include "data/lineitem.h"
#include "util/macros.h"

namespace memagg {
namespace {

TableQuery Q1Query() {
  TableQuery query;
  query.group_by = {"l_returnflag", "l_linestatus"};
  query.aggregates = {
      {AggregateFunction::kSum, "l_quantity", "sum_qty"},
      {AggregateFunction::kSum, "l_extendedprice", "sum_base_price"},
      {AggregateFunction::kSum, "disc_price", "sum_disc_price"},
      {AggregateFunction::kCount, "", "count_order"},
  };
  query.has_filter = true;
  query.filter_column = "l_shipdate";
  query.filter_max = kLineitemQ1ShipdateCutoff;
  return query;
}

/// One result row as `returnflag|linestatus|sum_qty|...|count_order`.
/// Aggregates are computed in doubles but must hold exact integers below
/// 2^53 (data/lineitem.h bounds the generator so they do) — rendered as
/// u64 so the golden text is bit-stable across platforms.
std::string CanonicalText(const TableQueryResult& result) {
  std::string text;
  for (size_t g = 0; g < result.group_keys.size(); ++g) {
    const DecodedKey& key = result.group_keys[g];
    MEMAGG_CHECK(key.size() == 2 && "Q1 keys have exactly two columns");
    text += key[0].ToString();
    text += '|';
    text += key[1].ToString();
    for (const std::vector<double>& column : result.aggregate_columns) {
      const double value = column[g];
      MEMAGG_CHECK(value >= 0 && value < 9007199254740992.0 &&
                   std::floor(value) == value &&
                   "aggregate exceeded the 2^53 fixed-point exactness bound");
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "|%" PRIu64,
                    static_cast<uint64_t>(value));
      text += buffer;
    }
    text += '\n';
  }
  return text;
}

struct RunSpec {
  std::string label;
  int threads = 1;
  std::string series() const {
    return label + "@" + std::to_string(threads);
  }
};

/// `threads` for a label that runs at any thread count ("auto" included,
/// the advisor plans for the thread count), 1 for a serial-only label.
int ThreadsFor(const std::string& label, int threads) {
  return label == "auto" || !LookupLabel(label).serial_only ? threads : 1;
}

/// Every family the result must be byte-stable across: the Table 3 labels
/// at one thread, every label that runs at any thread count at `threads`,
/// and the adaptive operator at one thread too (mid-query switching must
/// not perturb the sums).
std::vector<RunSpec> ValidationRuns(int threads) {
  std::vector<RunSpec> runs;
  for (const std::string& label : SerialLabels()) runs.push_back({label, 1});
  for (const LabelInfo& info : Labels()) {
    if (!info.serial_only) runs.push_back({std::string(info.name), threads});
  }
  runs.push_back({"Adaptive", 1});
  return runs;
}

std::string FormatMillis(const BenchTiming& timing) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", timing.millis);
  return buffer;
}

std::string ReadFileOrDie(const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open golden file %s\n", path.c_str());
    std::exit(1);
  }
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);
  return text;
}

std::string GoldenHeader(uint64_t records, uint64_t seed) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "# tpch_q1 golden: records=%" PRIu64 " seed=%" PRIu64
                " (tools/make_golden.py regenerates)\n"
                "# returnflag|linestatus|sum_qty|sum_base_price|"
                "sum_disc_price|count_order\n",
                records, seed);
  return buffer;
}

int Run(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const uint64_t records =
      static_cast<uint64_t>(flags.GetInt("records", 600000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 0x11e171));
  const int reps = static_cast<int>(flags.GetInt("reps", 3));
  MEMAGG_CHECK(reps >= 1 && "--reps must be at least 1");
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const std::string write_golden = flags.GetString("write-golden", "");
  const std::string check_golden = flags.GetString("check-golden", "");

  const Table table = GenerateLineitem(records, seed);
  const TableQuery query = Q1Query();

  if (!write_golden.empty()) {
    const TableQueryResult result =
        ExecuteTableQuery(table, query, "Hash_LP");
    const std::string golden = GoldenHeader(records, seed) +
                               CanonicalText(result);
    FILE* file = std::fopen(write_golden.c_str(), "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", write_golden.c_str());
      return 1;
    }
    std::fwrite(golden.data(), 1, golden.size(), file);
    std::fclose(file);
    std::printf("wrote %s (%zu groups, %" PRIu64 " records)\n",
                write_golden.c_str(), result.group_keys.size(), records);
    return 0;
  }

  if (!check_golden.empty()) {
    const std::string golden = ReadFileOrDie(check_golden);
    int failures = 0;
    for (const RunSpec& run : ValidationRuns(threads)) {
      const TableQueryResult result =
          ExecuteTableQuery(table, query, run.label, run.threads);
      const std::string text =
          GoldenHeader(records, seed) + CanonicalText(result);
      if (text == golden) {
        std::printf("OK   %-16s (%zu groups)\n", run.series().c_str(),
                    result.group_keys.size());
      } else {
        ++failures;
        std::printf("FAIL %-16s\n--- golden ---\n%s--- got ---\n%s",
                    run.series().c_str(), golden.c_str(), text.c_str());
      }
    }
    if (failures > 0) {
      std::fprintf(stderr, "%d famil%s diverged from %s\n", failures,
                   failures == 1 ? "y" : "ies", check_golden.c_str());
      return 1;
    }
    std::printf("all families byte-identical to %s\n", check_golden.c_str());
    return 0;
  }

  // Benchmark mode.
  std::vector<RunSpec> runs;
  if (flags.Has("labels")) {
    for (const std::string& label : flags.GetList("labels", {})) {
      runs.push_back({label, ThreadsFor(label, threads)});
    }
  } else {
    runs = ValidationRuns(threads);
  }

  PrintBanner("TPC-H Q1 (columnar table, composite key) - " +
                  std::to_string(records) + " records",
              "four fixed-point aggregates over (l_returnflag, l_linestatus) "
              "with the shipdate filter; see docs/data_model.md");
  std::printf("algorithm,threads,rep,key_bits,groups,rows_scanned,cycles,"
              "millis\n");

  BenchReport report("tpch");
  report.SetParam("records", records);
  report.SetParam("seed", seed);
  report.SetParam("threads", static_cast<uint64_t>(threads));

  for (const RunSpec& run : runs) {
    std::vector<BenchTiming> timings;
    std::vector<TableQueryResult> results;
    for (int rep = 0; rep < reps; ++rep) {
      TableQueryResult result;
      const BenchTiming timing = TimeOnce([&] {
        result = ExecuteTableQuery(table, query, run.label, run.threads);
      });
      std::printf("%s,%d,%d,%d,%zu,%zu,%" PRIu64 ",%.3f\n", run.label.c_str(),
                  run.threads, rep, result.key_width_bits,
                  result.group_keys.size(), result.rows_scanned, timing.cycles,
                  timing.millis);
      std::fflush(stdout);
      timings.push_back(timing);
      results.push_back(std::move(result));
    }
    // The report row is the median rep (the lower middle one for an even
    // count), with the fastest and slowest reps alongside as its spread.
    std::vector<size_t> by_time(timings.size());
    std::iota(by_time.begin(), by_time.end(), size_t{0});
    std::sort(by_time.begin(), by_time.end(), [&](size_t a, size_t b) {
      return timings[a].millis < timings[b].millis;
    });
    const size_t median = by_time[(by_time.size() - 1) / 2];
    const TableQueryResult& result = results[median];
    report.AddRow(run.series(), records, timings[median].cycles,
                  timings[median].millis, &result.stats);
    report.SetRowMeta("resolved_label", result.label);
    report.SetRowMeta("key_width_bits", std::to_string(result.key_width_bits));
    report.SetRowMeta("reps", std::to_string(reps));
    report.SetRowMeta("millis_min", FormatMillis(timings[by_time.front()]));
    report.SetRowMeta("millis_max", FormatMillis(timings[by_time.back()]));
    // One-pass property: every scanned row is built exactly once
    // (tools/bench_compare.py --one-pass-gate).
    report.SetRowMeta("rows_built", std::to_string(result.stats.Get(
                                        StatCounter::kRowsBuilt)));
    report.SetRowMeta("rows_scanned", std::to_string(result.rows_scanned));
  }
  report.WriteFile();
  return 0;
}

}  // namespace
}  // namespace memagg

int main(int argc, char** argv) { return memagg::Run(argc, argv); }
