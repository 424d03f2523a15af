#include "workloads.h"

#include <utility>

#include "data/dataset.h"
#include "data/lineitem.h"
#include "util/macros.h"

namespace aggbench {
namespace {

using memagg::AggregateFunction;
using memagg::Column;
using memagg::DatasetSpec;
using memagg::Distribution;
using memagg::Table;
using memagg::TableQuery;

// 2^20 rows each, so that highcard_count holds 2^18 groups (4 MiB of
// 16-byte group state). One round of all seven plans then takes 0.8-1.4 s on
// a 4-core Xeon, and a 45 s run gives every plan 25-55 queries.
constexpr uint64_t kTpchRows = 1 << 20;
constexpr uint64_t kHighcardRows = 1 << 20;
constexpr uint64_t kHighcardGroups = kHighcardRows / 4;
constexpr uint64_t kSkewRows = 1 << 20;
constexpr uint64_t kSkewGroups = 10000;

// Independent streams for the key and value generators of one seed.
constexpr uint64_t kKeyStream = 0x6b6579ULL;
constexpr uint64_t kValueStream = 0x76616cULL;

Table KeyValueTable(std::vector<uint64_t> keys,
                    std::vector<uint64_t> values) {
  Table table;
  table.AddColumn("k", Column::U64(std::move(keys)));
  if (!values.empty()) table.AddColumn("v", Column::U64(std::move(values)));
  return table;
}

}  // namespace

const std::vector<Plan>& Plans() {
  static const std::vector<Plan> plans = {
      {"hash_lp_t1", "Hash_LP", 1, /*end_to_end=*/false},
      {"spreadsort_t1", "Spreadsort", 1},
      {"art_t1", "ART", 1},
      {"hash_plocal_t4", "Hash_PLocal", 4, /*end_to_end=*/false},
      {"sort_bi_t4", "Sort_BI", 4, /*end_to_end=*/false},
      {"adaptive_t4", "Adaptive", 4, /*end_to_end=*/false},
      {"auto_t4", "auto", 4},
  };
  return plans;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tpch_q1", "highcard_count",
                                                 "skew_median"};
  return names;
}

bool IsWorkload(const std::string& name) {
  for (const std::string& w : WorkloadNames()) {
    if (w == name) return true;
  }
  return false;
}

TableQuery WorkloadQuery(const std::string& name) {
  TableQuery query;
  if (name == "tpch_q1") {
    // The Q1 query of bench/bench_tpch_q1.cc.
    query.group_by = {"l_returnflag", "l_linestatus"};
    query.aggregates = {
        {AggregateFunction::kSum, "l_quantity", "sum_qty"},
        {AggregateFunction::kSum, "l_extendedprice", "sum_base_price"},
        {AggregateFunction::kSum, "disc_price", "sum_disc_price"},
        {AggregateFunction::kCount, "", "count_order"},
    };
    query.has_filter = true;
    query.filter_column = "l_shipdate";
    query.filter_max = memagg::kLineitemQ1ShipdateCutoff;
  } else if (name == "highcard_count") {
    query.group_by = {"k"};
    query.aggregates = {{AggregateFunction::kCount, "", "count"}};
  } else {
    MEMAGG_CHECK(name == "skew_median");
    query.group_by = {"k"};
    query.aggregates = {{AggregateFunction::kMedian, "v", "median_v"}};
  }
  return query;
}

Table GenerateWorkloadTable(const std::string& name, uint64_t seed) {
  if (name == "tpch_q1") return memagg::GenerateLineitem(kTpchRows, seed);
  DatasetSpec spec;
  spec.seed = seed ^ kKeyStream;
  if (name == "highcard_count") {
    spec.distribution = Distribution::kRseqShuffled;
    spec.num_records = kHighcardRows;
    spec.cardinality = kHighcardGroups;
    return KeyValueTable(memagg::GenerateKeys(spec), {});
  }
  MEMAGG_CHECK(name == "skew_median");
  spec.distribution = Distribution::kHhitShuffled;
  spec.num_records = kSkewRows;
  spec.cardinality = kSkewGroups;
  return KeyValueTable(
      memagg::GenerateKeys(spec),
      memagg::GenerateValues(kSkewRows, 1000000, seed ^ kValueStream));
}

}  // namespace aggbench
