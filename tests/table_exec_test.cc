// Tests for the typed execution front-end (core/table_exec.h): composite
// group-bys over every operator family, filters, key ranges, advisor
// routing, and the adaptive operator on composite keys.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/concepts.h"
#include "core/engine.h"
#include "core/table_exec.h"
#include "data/key_codec.h"
#include "data/lineitem.h"
#include "data/table.h"
#include "obs/query_stats.h"

namespace memagg {
namespace {

// The concept pins for the data layer live next to the code they gate.
static_assert(ColumnarTable<Table>);
static_assert(TableKeyCodec<PackedKeyCodec>);
static_assert(TableKeyCodec<DictKeyCodec>);

/// Every registered label that accepts `threads` workers.
std::vector<std::string> LabelsFor(int threads) {
  std::vector<std::string> labels;
  for (const LabelInfo& info : Labels()) {
    if (threads == 1 || !info.serial_only) labels.emplace_back(info.name);
  }
  return labels;
}

/// The TPC-H Q1 query shape over the lineitem generator's columns.
TableQuery Q1Query() {
  TableQuery query;
  query.group_by = {"l_returnflag", "l_linestatus"};
  query.aggregates = {{AggregateFunction::kSum, "l_quantity", "sum_qty"},
                      {AggregateFunction::kSum, "l_extendedprice",
                       "sum_base_price"},
                      {AggregateFunction::kSum, "disc_price",
                       "sum_disc_price"},
                      {AggregateFunction::kCount, "", "count_order"}};
  query.has_filter = true;
  query.filter_column = "l_shipdate";
  query.filter_max = kLineitemQ1ShipdateCutoff;
  return query;
}

/// Engine-free Q1 reference straight off the columns.
std::map<std::tuple<std::string, std::string>, std::vector<uint64_t>>
ReferenceQ1(const Table& table) {
  std::map<std::tuple<std::string, std::string>, std::vector<uint64_t>> ref;
  const Column& flag = table.ColumnNamed("l_returnflag");
  const Column& status = table.ColumnNamed("l_linestatus");
  const auto& quantity = table.ColumnNamed("l_quantity").u64();
  const auto& extendedprice = table.ColumnNamed("l_extendedprice").u64();
  const auto& disc_price = table.ColumnNamed("disc_price").u64();
  const auto& shipdate = table.ColumnNamed("l_shipdate").u64();
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (shipdate[i] > kLineitemQ1ShipdateCutoff) continue;
    auto& sums = ref[{flag.dict().String(flag.codes()[i]),
                      status.dict().String(status.codes()[i])}];
    if (sums.empty()) sums.resize(4);
    sums[0] += quantity[i];
    sums[1] += extendedprice[i];
    sums[2] += disc_price[i];
    sums[3] += 1;
  }
  return ref;
}

void ExpectMatchesReference(const Table& table, const TableQueryResult& result,
                            const std::string& context) {
  const auto ref = ReferenceQ1(table);
  ASSERT_EQ(result.group_keys.size(), ref.size()) << context;
  size_t g = 0;
  // std::map iterates in lexicographic key order == canonical result order.
  for (const auto& [key, sums] : ref) {
    EXPECT_EQ(std::string(result.group_keys[g][0].text), std::get<0>(key))
        << context;
    EXPECT_EQ(std::string(result.group_keys[g][1].text), std::get<1>(key))
        << context;
    for (size_t a = 0; a < 4; ++a) {
      EXPECT_EQ(result.aggregate_columns[a][g], static_cast<double>(sums[a]))
          << context << " aggregate " << a << " group " << g;
    }
    ++g;
  }
}

TEST(TableExecTest, Q1MatchesReferenceAcrossAllSerialFamilies) {
  const Table table = GenerateLineitem(20000, 1);
  for (const std::string& label : SerialLabels()) {
    const TableQueryResult result = ExecuteTableQuery(table, Q1Query(), label);
    EXPECT_EQ(result.label, label);
    EXPECT_TRUE(result.order_preserving);
    ExpectMatchesReference(table, result, label);
  }
}

TEST(TableExecTest, Q1MatchesReferenceAcrossParallelFamilies) {
  const Table table = GenerateLineitem(20000, 2);
  for (const std::string& label : LabelsFor(4)) {
    const TableQueryResult result =
        ExecuteTableQuery(table, Q1Query(), label, /*num_threads=*/4);
    ExpectMatchesReference(table, result, label);
  }
}

TEST(TableExecTest, Q1ThroughAdaptiveOperatorSerialAndParallel) {
  const Table table = GenerateLineitem(20000, 3);
  for (const int threads : {1, 4}) {
    const TableQueryResult result =
        ExecuteTableQuery(table, Q1Query(), "Adaptive", threads);
    ExpectMatchesReference(table, result,
                           "Adaptive/" + std::to_string(threads));
    // The adaptive operator really ran (it reports its final strategy).
    EXPECT_GT(result.stats.Get(StatCounter::kAdaptiveStrategy), 0u);
  }
}

TEST(TableExecTest, WideCompositeKeyTakesDictFallback) {
  Table table;
  table.AddColumn("wide", Column::U64({~0ULL, 5, ~0ULL, 9}));
  table.AddColumn("more", Column::U64({1, 2, 1, 3}));
  table.AddColumn("v", Column::U64({10, 20, 30, 40}));
  TableQuery query;
  query.group_by = {"wide", "more"};
  query.aggregates = {{AggregateFunction::kSum, "v", "sum_v"},
                      {AggregateFunction::kCount, "", "n"}};
  const TableQueryResult result = ExecuteTableQuery(table, query, "Hash_LP");
  EXPECT_FALSE(result.order_preserving);
  ASSERT_EQ(result.group_keys.size(), 3u);
  // Canonical order sorts by decoded tuple: (5,2) < (9,3) < (~0,1).
  EXPECT_EQ(result.group_keys[0][0].u64, 5u);
  EXPECT_EQ(result.group_keys[1][0].u64, 9u);
  EXPECT_EQ(result.group_keys[2][0].u64, ~0ULL);
  EXPECT_EQ(result.aggregate_columns[0][2], 40.0);  // 10 + 30.
  EXPECT_EQ(result.aggregate_columns[1][2], 2.0);
}

TEST(TableExecTest, KeyRangeNarrowsLeadingColumn) {
  const Table table = GenerateLineitem(5000, 4);
  TableQuery query = Q1Query();
  query.has_filter = false;  // Range only, to isolate the effect.
  query.has_key_range = true;
  query.key_range_lo = {ColumnType::kString, 0, 0, "N"};
  query.key_range_hi = {ColumnType::kString, 0, 0, "R"};
  const TableQueryResult result = ExecuteTableQuery(table, query, "Btree");
  // Only N and R return flags survive; A is cut.
  ASSERT_GE(result.group_keys.size(), 1u);
  for (const DecodedKey& key : result.group_keys) {
    EXPECT_NE(std::string(key[0].text), "A");
  }
  // Count matches a straight scan.
  const Column& flag = table.ColumnNamed("l_returnflag");
  uint64_t expected_rows = 0;
  for (const uint32_t code : flag.codes()) {
    if (flag.dict().String(code) != "A") ++expected_rows;
  }
  EXPECT_EQ(result.rows_scanned, expected_rows);
}

TEST(TableExecTest, EmptyKeyRangeYieldsEmptyResult) {
  const Table table = GenerateLineitem(100, 5);
  TableQuery query = Q1Query();
  query.has_filter = false;
  query.has_key_range = true;
  query.key_range_lo = {ColumnType::kString, 0, 0, "X"};
  query.key_range_hi = {ColumnType::kString, 0, 0, "Z"};
  const TableQueryResult result = ExecuteTableQuery(table, query, "Hash_LP");
  EXPECT_EQ(result.group_keys.size(), 0u);
  EXPECT_EQ(result.rows_scanned, 0u);
}

TEST(TableExecTest, AutoLabelRoutesThroughAdvisor) {
  const Table table = GenerateLineitem(2000, 6);
  TableQuery query = Q1Query();
  const TableQueryResult serial = ExecuteTableQuery(table, query, "auto");
  // Distributive vector query, narrow packed key -> the hash pick.
  EXPECT_EQ(serial.label, "Hash_LP");
  ExpectMatchesReference(table, serial, "auto/serial");

  // At more than one thread: per-worker tables merged once (Hash_PLocal),
  // not the shared concurrent table of the paper's Figure 12.
  const TableQueryResult parallel =
      ExecuteTableQuery(table, query, "auto", /*num_threads=*/4);
  EXPECT_EQ(parallel.label, "Hash_PLocal");
  ExpectMatchesReference(table, parallel, "auto/parallel");
}

TEST(TableExecTest, AutoKeyRangeRunsSerialTreeAtAnyThreadCount) {
  // A range query routes to ART, which is serial-only: at 4 threads the
  // query runs it on one worker instead of aborting.
  const Table table = GenerateLineitem(5000, 4);
  TableQuery query = Q1Query();
  query.has_key_range = true;
  query.key_range_lo = {ColumnType::kString, 0, 0, "N"};
  query.key_range_hi = {ColumnType::kString, 0, 0, "R"};
  const TableQueryResult serial = ExecuteTableQuery(table, query, "auto");
  EXPECT_EQ(serial.label, "ART");
  EXPECT_EQ(serial.group_keys.size(), 3u);  // N|F, N|O, R|F.
  const TableQueryResult parallel =
      ExecuteTableQuery(table, query, "auto", /*num_threads=*/4);
  EXPECT_EQ(parallel.label, "ART");
  EXPECT_EQ(parallel.group_keys, serial.group_keys);
  EXPECT_EQ(parallel.aggregate_columns, serial.aggregate_columns);
}

TEST(TableExecTest, AutoLabelSeesKeyWidth) {
  // Holistic aggregate over a narrow key: byte-radix sort. Over a wide key:
  // the advisor flips to the comparison sort.
  Table narrow;
  narrow.AddColumn("k", Column::U64({1, 2, 3, 1}));
  narrow.AddColumn("v", Column::U64({5, 6, 7, 8}));
  TableQuery query;
  query.group_by = {"k"};
  query.aggregates = {{AggregateFunction::kMedian, "v", "med"}};
  EXPECT_EQ(ExecuteTableQuery(narrow, query, "auto").label, "Spreadsort");

  Table wide;
  wide.AddColumn("k", Column::U64({1ULL << 40, 2, 3, 1}));
  wide.AddColumn("v", Column::U64({5, 6, 7, 8}));
  EXPECT_EQ(ExecuteTableQuery(wide, query, "auto").label, "Introsort");

  // At 4 threads the holistic pick is the parallel sort, at any width.
  const TableQueryResult parallel =
      ExecuteTableQuery(narrow, query, "auto", /*num_threads=*/4);
  EXPECT_EQ(parallel.label, "Sort_BI");
  EXPECT_EQ(parallel.aggregate_columns[0],
            (std::vector<double>{6.5, 6.0, 7.0}));
}

TEST(TableExecTest, EveryLabelBuildsOncePerQuery) {
  // One build folds all four Q1 aggregates: each scanned row is built
  // exactly once, whatever the family or thread count.
  const Table table = GenerateLineitem(3000, 8);
  for (const int threads : {1, 4}) {
    for (const std::string& label : LabelsFor(threads)) {
      const std::string context = label + "@" + std::to_string(threads);
      const TableQueryResult result =
          ExecuteTableQuery(table, Q1Query(), label, threads);
      EXPECT_EQ(result.stats.Get(StatCounter::kRowsBuilt),
                result.rows_scanned)
          << context;
      EXPECT_EQ(result.stats.Get(StatCounter::kGroupsOut),
                result.group_keys.size())
          << context;
      // The result carries the engine's timed build/iterate phases.
      EXPECT_GT(result.stats.TotalCycles(), 0u) << context;
      // Canonical order is strictly increasing: no group emitted twice.
      EXPECT_TRUE(std::adjacent_find(result.group_keys.begin(),
                                     result.group_keys.end(),
                                     [](const DecodedKey& a,
                                        const DecodedKey& b) {
                                       return !(a < b);
                                     }) == result.group_keys.end())
          << context;
      ExpectMatchesReference(table, result, context);
    }
  }
}

TEST(TableExecTest, MixedAggregatesMatchOracleAcrossLabels) {
  // Every function in one row, the measure "v" read by five of them, no
  // filter (measures read in place). Values repeat so MODE has ties.
  const size_t rows = 4000;
  std::vector<uint64_t> keys(rows), v(rows), w(rows);
  for (size_t i = 0; i < rows; ++i) {
    keys[i] = (i * 7919) % 37;
    v[i] = (i * 104729) % 23;
    w[i] = (i * 31) % 1000 + 1;
  }
  Table table;
  table.AddColumn("k", Column::U64(keys));
  table.AddColumn("v", Column::U64(v));
  table.AddColumn("w", Column::U64(w));
  TableQuery query;
  query.group_by = {"k"};
  query.aggregates = {{AggregateFunction::kCount, "", "n"},
                      {AggregateFunction::kSum, "v", "sum_v"},
                      {AggregateFunction::kMin, "v", "min_v"},
                      {AggregateFunction::kMax, "w", "max_w"},
                      {AggregateFunction::kAverage, "v", "avg_v"},
                      {AggregateFunction::kMedian, "w", "median_w"},
                      {AggregateFunction::kMode, "v", "mode_v"}};

  std::map<uint64_t, std::pair<std::vector<uint64_t>, std::vector<uint64_t>>>
      groups;
  for (size_t i = 0; i < rows; ++i) {
    groups[keys[i]].first.push_back(v[i]);
    groups[keys[i]].second.push_back(w[i]);
  }
  std::vector<std::vector<double>> oracle(query.aggregates.size());
  for (auto& [key, measures] : groups) {
    std::vector<uint64_t>& vs = measures.first;
    std::vector<uint64_t>& ws = measures.second;
    std::sort(vs.begin(), vs.end());
    std::sort(ws.begin(), ws.end());
    uint64_t sum = 0;
    for (const uint64_t x : vs) sum += x;
    const size_t mid = ws.size() / 2;
    const double median =
        ws.size() % 2 == 1 ? static_cast<double>(ws[mid])
                           : (static_cast<double>(ws[mid - 1]) +
                              static_cast<double>(ws[mid])) / 2.0;
    std::map<uint64_t, size_t> freq;
    for (const uint64_t x : vs) ++freq[x];
    uint64_t mode = vs[0];
    for (const auto& [value, count] : freq) {
      if (count > freq[mode]) mode = value;
    }
    oracle[0].push_back(static_cast<double>(vs.size()));
    oracle[1].push_back(static_cast<double>(sum));
    oracle[2].push_back(static_cast<double>(vs.front()));
    oracle[3].push_back(static_cast<double>(ws.back()));
    oracle[4].push_back(static_cast<double>(sum) /
                        static_cast<double>(vs.size()));
    oracle[5].push_back(median);
    oracle[6].push_back(static_cast<double>(mode));
  }

  for (const int threads : {1, 4}) {
    for (const std::string& label : LabelsFor(threads)) {
      const std::string context = label + "@" + std::to_string(threads);
      const TableQueryResult result =
          ExecuteTableQuery(table, query, label, threads);
      ASSERT_EQ(result.group_keys.size(), groups.size()) << context;
      ASSERT_EQ(result.aggregate_columns.size(), oracle.size()) << context;
      size_t g = 0;
      for (const auto& entry : groups) {
        EXPECT_EQ(result.group_keys[g][0].u64, entry.first) << context;
        ++g;
      }
      for (size_t a = 0; a < oracle.size(); ++a) {
        EXPECT_EQ(result.aggregate_columns[a], oracle[a])
            << context << " " << result.aggregate_names[a];
      }
      EXPECT_EQ(result.stats.Get(StatCounter::kRowsBuilt), rows) << context;
    }
  }
}

TEST(TableExecTest, FilterKeepingNoRowsYieldsEmptyResult) {
  const Table table = GenerateLineitem(500, 9);
  TableQuery query = Q1Query();
  query.filter_column = "l_quantity";
  query.filter_max = 0;  // Quantities start at 1.
  for (const int threads : {1, 4}) {
    for (const std::string& label : LabelsFor(threads)) {
      const std::string context = label + "@" + std::to_string(threads);
      const TableQueryResult result =
          ExecuteTableQuery(table, query, label, threads);
      EXPECT_EQ(result.rows_scanned, 0u) << context;
      EXPECT_TRUE(result.group_keys.empty()) << context;
      ASSERT_EQ(result.aggregate_columns.size(), 4u) << context;
      for (const std::vector<double>& column : result.aggregate_columns) {
        EXPECT_TRUE(column.empty()) << context;
      }
    }
  }
}

TEST(TableExecTest, ZeroRowTablesYieldEmptyResults) {
  Table one_column;
  one_column.AddColumn("k", Column::U64({}));
  TableQuery count;
  count.group_by = {"k"};
  count.aggregates = {{AggregateFunction::kCount, "", "n"}};

  // A zero-row table with the lineitem schema and dictionaries.
  const Table lineitem = GenerateLineitem(1, 10);
  Table q1;
  for (size_t c = 0; c < lineitem.num_columns(); ++c) {
    const Column& column = lineitem.ColumnAt(c);
    ASSERT_TRUE(column.type() == ColumnType::kString ||
                column.type() == ColumnType::kU64);
    q1.AddColumn(lineitem.ColumnNameAt(c),
                 column.type() == ColumnType::kString
                     ? Column::String(column.dict(), {})
                     : Column::U64({}));
  }

  for (const int threads : {1, 4}) {
    for (const std::string label :
         {"Hash_LP", "ART", "Spreadsort", "auto", "Hash_PLocal"}) {
      const std::string context = label + "@" + std::to_string(threads);
      const TableQueryResult empty_count =
          ExecuteTableQuery(one_column, count, label, threads);
      EXPECT_EQ(empty_count.rows_scanned, 0u) << context;
      EXPECT_TRUE(empty_count.group_keys.empty()) << context;
      ASSERT_EQ(empty_count.aggregate_columns.size(), 1u) << context;
      EXPECT_TRUE(empty_count.aggregate_columns[0].empty()) << context;

      const TableQueryResult empty_q1 =
          ExecuteTableQuery(q1, Q1Query(), label, threads);
      EXPECT_EQ(empty_q1.rows_scanned, 0u) << context;
      EXPECT_TRUE(empty_q1.group_keys.empty()) << context;
      ASSERT_EQ(empty_q1.aggregate_columns.size(), 4u) << context;
      for (const std::vector<double>& column : empty_q1.aggregate_columns) {
        EXPECT_TRUE(column.empty()) << context;
      }
    }
  }
}

TEST(TableExecTest, ParallelPrologueMatchesSerial) {
  // Tiny morsels make the 4-thread prologue (count pass, per-morsel slices,
  // parallel key-range scan, parallel decode) split every phase many ways;
  // its output must equal the one-worker single pass byte for byte.
  const Table lineitem = GenerateLineitem(6000, 11);
  TableQuery q1_range = Q1Query();
  q1_range.has_key_range = true;
  q1_range.key_range_lo = {ColumnType::kString, 0, 0, "N"};
  q1_range.key_range_hi = {ColumnType::kString, 0, 0, "R"};

  // Wide composite (DictKeyCodec) with a filter, and a plain u64 key with
  // thousands of groups over a wide value range.
  const size_t rows = 6000;
  std::vector<uint64_t> wide(rows), more(rows), key(rows), v(rows);
  for (size_t i = 0; i < rows; ++i) {
    wide[i] = i % 3 == 0 ? ~0ULL - i % 7 : i % 5;
    more[i] = (i * 31) % 11;
    key[i] = ((i * 7919) % 2003) * 1000003 + 17;
    v[i] = (i * 104729) % 997;
  }
  Table numeric;
  numeric.AddColumn("wide", Column::U64(wide));
  numeric.AddColumn("more", Column::U64(more));
  numeric.AddColumn("k", Column::U64(key));
  numeric.AddColumn("v", Column::U64(v));
  TableQuery dict;
  dict.group_by = {"wide", "more"};
  dict.aggregates = {{AggregateFunction::kSum, "v", "sum_v"},
                     {AggregateFunction::kCount, "", "n"}};
  dict.has_filter = true;
  dict.filter_column = "v";
  dict.filter_max = 800;
  TableQuery u64_key;
  u64_key.group_by = {"k"};
  u64_key.aggregates = {{AggregateFunction::kSum, "v", "sum_v"},
                        {AggregateFunction::kMin, "v", "min_v"},
                        {AggregateFunction::kMax, "v", "max_v"}};

  const std::vector<std::pair<const Table*, TableQuery>> cases = {
      {&lineitem, Q1Query()},
      {&lineitem, q1_range},
      {&numeric, dict},
      {&numeric, u64_key}};
  for (size_t c = 0; c < cases.size(); ++c) {
    const auto& [table, query] = cases[c];
    for (const std::string label : {"Hash_LP", "Hash_PLocal", "Sort_BI"}) {
      const std::string context = "case " + std::to_string(c) + " " + label;
      ExecutionContext serial(1);
      serial.morsel_rows = 64;
      ExecutionContext parallel(4);
      parallel.morsel_rows = 64;
      const TableQueryResult one =
          ExecuteTableQuery(*table, query, label, serial);
      const TableQueryResult four =
          ExecuteTableQuery(*table, query, label, parallel);
      EXPECT_GT(one.rows_scanned, 0u) << context;
      EXPECT_EQ(one.rows_scanned, four.rows_scanned) << context;
      EXPECT_EQ(one.group_keys, four.group_keys) << context;
      EXPECT_EQ(one.aggregate_columns, four.aggregate_columns) << context;
    }
  }
  // The first two cases are also right, not only consistent.
  ExpectMatchesReference(lineitem,
                         ExecuteTableQuery(lineitem, Q1Query(), "Hash_PLocal",
                                           ExecutionContext(4)),
                         "Q1@4");
}

TEST(TableExecTest, OutOfOrderEmitterComesOutSorted) {
  // 20000 shuffled groups: a hash table emits them in slot order, and the
  // table layer must sort them (BlockIndirectSorter past 16K records at 4
  // threads, SpreadsortSorter at one).
  const size_t groups = 20000;
  const size_t rows = 3 * groups;
  std::vector<uint64_t> keys(rows), v(rows);
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> oracle;  // sum, count.
  for (size_t i = 0; i < rows; ++i) {
    keys[i] = ((i * 7919) % groups) * 977 + 5;
    v[i] = (i * 31) % 1009;
    oracle[keys[i]].first += v[i];
    oracle[keys[i]].second += 1;
  }
  Table table;
  table.AddColumn("k", Column::U64(keys));
  table.AddColumn("v", Column::U64(v));
  TableQuery query;
  query.group_by = {"k"};
  query.aggregates = {{AggregateFunction::kSum, "v", "sum_v"},
                      {AggregateFunction::kCount, "", "n"}};

  for (const auto& [label, threads] :
       std::vector<std::pair<std::string, int>>{{"Hash_LP", 1},
                                                {"Hash_LP", 4},
                                                {"Hash_PLocal", 4}}) {
    const std::string context = label + "@" + std::to_string(threads);
    // The operator itself emits out of order.
    AggregateRow row;
    row.Add(AggregateFunction::kCount, nullptr);
    const VectorQueryExecution raw =
        ExecuteRowQuery(label, row, keys.data(), nullptr, rows, threads);
    EXPECT_FALSE(std::is_sorted(raw.result.begin(), raw.result.end(),
                                [](const GroupResult& a,
                                   const GroupResult& b) {
                                  return a.key < b.key;
                                }))
        << context;

    const TableQueryResult result =
        ExecuteTableQuery(table, query, label, threads);
    ASSERT_EQ(result.group_keys.size(), oracle.size()) << context;
    size_t g = 0;
    for (const auto& [key, sums] : oracle) {
      ASSERT_EQ(result.group_keys[g][0].u64, key) << context << " row " << g;
      EXPECT_EQ(result.aggregate_columns[0][g],
                static_cast<double>(sums.first))
          << context;
      EXPECT_EQ(result.aggregate_columns[1][g],
                static_cast<double>(sums.second))
          << context;
      ++g;
    }
    EXPECT_TRUE(std::adjacent_find(result.group_keys.begin(),
                                   result.group_keys.end(),
                                   [](const DecodedKey& a,
                                      const DecodedKey& b) {
                                     return !(a[0].u64 < b[0].u64);
                                   }) == result.group_keys.end())
        << context;
  }
}

TEST(TableExecTest, TableLayerPhasesAreRecorded) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  const Table table = GenerateLineitem(50000, 12);
  for (const int threads : {1, 4}) {
    const TableQueryResult result =
        ExecuteTableQuery(table, Q1Query(), "Hash_PLocal", threads);
    const std::string context = "@" + std::to_string(threads);
    EXPECT_GT(result.stats.PhaseCycles(StatPhase::kEncode), 0u) << context;
    EXPECT_GT(result.stats.PhaseCycles(StatPhase::kOrder), 0u) << context;
    // Only a split prologue has a separate count pass.
    if (threads == 1) {
      EXPECT_EQ(result.stats.PhaseCycles(StatPhase::kFilter), 0u) << context;
    } else {
      EXPECT_GT(result.stats.PhaseCycles(StatPhase::kFilter), 0u) << context;
    }
    // The table phases sit outside the operator's: the total is unchanged.
    EXPECT_EQ(result.stats.TotalCycles(),
              result.stats.PhaseCycles(StatPhase::kBuild) +
                  result.stats.PhaseCycles(StatPhase::kIterate))
        << context;
  }
}

TEST(TableExecDeathTest, RangeOverDictCodecAborts) {
  Table table;
  table.AddColumn("wide", Column::U64({~0ULL, 5}));
  table.AddColumn("more", Column::U64({1, 2}));
  table.AddColumn("v", Column::U64({1, 1}));
  TableQuery query;
  query.group_by = {"wide", "more"};
  query.aggregates = {{AggregateFunction::kCount, "", "n"}};
  query.has_key_range = true;
  query.key_range_lo = {ColumnType::kU64, 0, 0, {}};
  query.key_range_hi = {ColumnType::kU64, 5, 0, {}};
  EXPECT_DEATH(ExecuteTableQuery(table, query, "Hash_LP"),
               "order-preserving");
}

TEST(TableExecDeathTest, NonU64MeasureAborts) {
  Table table;
  table.AddColumn("k", Column::U64({1, 2}));
  table.AddColumn("v", Column::F64({1.0, 2.0}));
  TableQuery query;
  query.group_by = {"k"};
  query.aggregates = {{AggregateFunction::kSum, "v", "s"}};
  EXPECT_DEATH(ExecuteTableQuery(table, query, "Hash_LP"),
               "must be u64 fixed-point");
}

TEST(TableExecDeathTest, EmptyGroupByAborts) {
  Table table;
  table.AddColumn("k", Column::U64({1}));
  TableQuery query;
  query.aggregates = {{AggregateFunction::kCount, "", "n"}};
  EXPECT_DEATH(ExecuteTableQuery(table, query, "Hash_LP"),
               "at least one group-by column");
}

}  // namespace
}  // namespace memagg
