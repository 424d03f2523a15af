// Tests for range-filtered aggregation (Q7, paper Section 5.6).

#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "core/query.h"
#include "core/table_exec.h"
#include "data/dataset.h"
#include "data/table.h"
#include "test_util.h"

namespace memagg {
namespace {

class RangeAggregation : public ::testing::TestWithParam<std::string> {};

TEST_P(RangeAggregation, PaperQ7Between500And1000) {
  DatasetSpec spec{Distribution::kRseqShuffled, 50000, 2000, 41};
  const auto keys = GenerateKeys(spec);
  auto aggregator =
      MakeVectorAggregator(GetParam(), AggregateFunction::kCount, keys.size());
  ASSERT_TRUE(aggregator->SupportsRange());
  aggregator->Build(keys.data(), nullptr, keys.size());
  const Query q7 = MakeQ7();
  auto result = aggregator->IterateRange(q7.range_lo, q7.range_hi);
  SortByKey(result);
  EXPECT_EQ(result, ReferenceVectorAggregate(keys, {},
                                             AggregateFunction::kCount,
                                             q7.range_lo, q7.range_hi));
}

TEST_P(RangeAggregation, VariousRangeWidths) {
  DatasetSpec spec{Distribution::kZipf, 30000, 1000, 42};
  const auto keys = GenerateKeys(spec);
  auto aggregator =
      MakeVectorAggregator(GetParam(), AggregateFunction::kCount, keys.size());
  aggregator->Build(keys.data(), nullptr, keys.size());
  const struct {
    uint64_t lo, hi;
  } ranges[] = {{0, ~0ULL}, {0, 0}, {250, 750}, {999, 999}, {2000, 3000}};
  for (const auto& range : ranges) {
    auto result = aggregator->IterateRange(range.lo, range.hi);
    SortByKey(result);
    EXPECT_EQ(result,
              ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount,
                                       range.lo, range.hi))
        << "range [" << range.lo << ", " << range.hi << "]";
  }
}

TEST_P(RangeAggregation, RangeOfHolisticAggregate) {
  // Q7 in the paper is COUNT, but the operators compose: range + MEDIAN.
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 500, 43};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 44);
  auto aggregator = MakeVectorAggregator(GetParam(),
                                         AggregateFunction::kMedian,
                                         keys.size());
  aggregator->Build(keys.data(), values.data(), keys.size());
  auto result = aggregator->IterateRange(100, 200);
  SortByKey(result);
  EXPECT_EQ(result, ReferenceVectorAggregate(
                        keys, values, AggregateFunction::kMedian, 100, 200));
}

INSTANTIATE_TEST_SUITE_P(Trees, RangeAggregation,
                         ::testing::ValuesIn(TreeLabels()));

TEST(RangeSupportTest, SortOperatorsSupportRangeToo) {
  const std::vector<uint64_t> keys = {5, 1, 7, 5, 9, 1};
  auto aggregator =
      MakeVectorAggregator("Spreadsort", AggregateFunction::kCount,
                           keys.size());
  EXPECT_TRUE(aggregator->SupportsRange());
  aggregator->Build(keys.data(), nullptr, keys.size());
  auto result = aggregator->IterateRange(2, 8);
  SortByKey(result);
  const VectorResult expected = {{5, 2.0}, {7, 1.0}};
  EXPECT_EQ(result, expected);
}

TEST(RangeSupportTest, HashOperatorsDeclineRange) {
  auto aggregator =
      MakeVectorAggregator("Hash_LP", AggregateFunction::kCount, 16);
  EXPECT_FALSE(aggregator->SupportsRange());
}

TEST(RangeQueryTest, Q7KeyRangeOverOneColumnTableRestrictsGroups) {
  // Q7 as a table query: a key range on a one-column table routes to a tree
  // (ART: no prebuilt index) and keeps only the groups inside the range.
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 256, 401};
  const auto keys = GenerateKeys(spec);
  Table table;
  table.AddColumn("k", Column::U64(keys));
  TableQuery query;
  query.group_by = {"k"};
  query.aggregates = {{AggregateFunction::kCount, "", "n"}};
  query.has_key_range = true;
  query.key_range_lo = {ColumnType::kU64, 10, 0, {}};
  query.key_range_hi = {ColumnType::kU64, 19, 0, {}};
  const VectorResult expected =
      ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount, 10, 19);
  ASSERT_EQ(expected.size(), 10u);
  for (const int threads : {1, 4}) {
    const TableQueryResult result =
        ExecuteTableQuery(table, query, "auto", threads);
    EXPECT_EQ(result.label, "ART") << threads;
    ASSERT_EQ(result.group_keys.size(), expected.size()) << threads;
    for (size_t g = 0; g < expected.size(); ++g) {
      EXPECT_EQ(result.group_keys[g][0].u64, expected[g].key) << threads;
      EXPECT_EQ(result.aggregate_columns[0][g], expected[g].value) << threads;
    }
  }
}

}  // namespace
}  // namespace memagg
