// Tests for the adaptive aggregation operator and the MigratableAggregator
// interface it is built on (core/adaptive_aggregator.h, core/migratable.h).
//
//   * Migration correctness: partial state extracted from any strategy and
//     absorbed into any other must yield exactly the fixed-strategy result.
//   * Switching correctness: with the rotation hook forcing a switch at
//     every morsel boundary, the result must stay bit-identical to a
//     single-strategy run across the property-test sweep.
//   * Decision plumbing: QueryStats must record switches, migrated rows, and
//     the final strategy; the trace string must reflect the decision path.

#include "core/adaptive_aggregator.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/migratable.h"
#include "core/tree_aggregator.h"
#include "data/dataset.h"
#include "test_util.h"
#include "tree/art.h"

namespace memagg {
namespace {

// --- MigratableAggregator pair-wise migration (direct interface use). ---

struct MigratableFactory {
  const char* name;
  std::unique_ptr<VectorAggregator> op;
  MigratableAggregator<SumAggregate>* mig;
};

std::vector<MigratableFactory> AllMigratables(size_t expected,
                                              ExecutionContext exec) {
  std::vector<MigratableFactory> out;
  {
    auto op = std::make_unique<
        HashVectorAggregator<LinearProbingMap, SumAggregate>>(expected);
    auto* mig = op.get();
    out.push_back({"hash", std::move(op), mig});
  }
  {
    auto op = std::make_unique<TreeVectorAggregator<ArtTree, SumAggregate>>();
    auto* mig = op.get();
    out.push_back({"tree", std::move(op), mig});
  }
  {
    auto op = std::make_unique<LocalPartitionAggregator<SumAggregate>>(
        expected, exec, LocalMergeMode::kCentral);
    auto* mig = op.get();
    out.push_back({"local-central", std::move(op), mig});
  }
  {
    auto op = std::make_unique<LocalPartitionAggregator<SumAggregate>>(
        expected, exec, LocalMergeMode::kTree);
    auto* mig = op.get();
    out.push_back({"local-tree", std::move(op), mig});
  }
  {
    auto op = std::make_unique<RadixPartitionAggregator<SumAggregate>>(
        expected, exec);
    auto* mig = op.get();
    out.push_back({"radix", std::move(op), mig});
  }
  {
    auto op = std::make_unique<StripedParallelAggregator<SumAggregate>>(
        expected, exec);
    auto* mig = op.get();
    out.push_back({"shared-map", std::move(op), mig});
  }
  {
    auto op = std::make_unique<
        SortVectorAggregator<BlockIndirectSorter, SumAggregate>>();
    auto* mig = op.get();
    out.push_back({"sort", std::move(op), mig});
  }
  return out;
}

void ConsumeRange(MigratableAggregator<SumAggregate>* mig,
                  const std::vector<uint64_t>& keys,
                  const std::vector<uint64_t>& values, size_t grain,
                  size_t first_morsel, size_t last_morsel) {
  for (size_t i = first_morsel; i < last_morsel; ++i) {
    Morsel m;
    m.index = i;
    m.begin = i * grain;
    m.end = std::min(keys.size(), m.begin + grain);
    m.worker = 0;
    mig->ConsumeMorsel(keys.data(), values.data(), m);
  }
}

TEST(MigratableTest, EveryPairMigratesExactly) {
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 512, 71};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 72);
  auto expected = ReferenceVectorAggregate(keys, values,
                                           AggregateFunction::kSum);
  SortByKey(expected);

  const size_t grain = 1024;
  const size_t num_morsels = NumMorselsFor(keys.size(), grain);
  const size_t half = num_morsels / 2;
  const ExecutionContext exec{1};
  const size_t names = AllMigratables(512, exec).size();

  for (size_t a = 0; a < names; ++a) {
    for (size_t b = 0; b < names; ++b) {
      auto froms = AllMigratables(512, exec);
      auto tos = AllMigratables(512, exec);
      MigratableFactory& from = froms[a];
      MigratableFactory& to = tos[b];

      from.mig->BeginConsume(1, keys.size());
      ConsumeRange(from.mig, keys, values, grain, 0, half);
      const ProgressSnapshot progress = from.mig->Progress();
      EXPECT_EQ(progress.rows, half * grain) << from.name;

      to.mig->BeginConsume(1, keys.size());
      to.mig->AbsorbPartialState(from.mig->ExtractPartialState());
      ConsumeRange(to.mig, keys, values, grain, half, num_morsels);
      auto result = to.mig->Finish();
      SortByKey(result);

      ASSERT_EQ(result.size(), expected.size())
          << from.name << " -> " << to.name;
      for (size_t i = 0; i < result.size(); ++i) {
        EXPECT_EQ(result[i].key, expected[i].key)
            << from.name << " -> " << to.name;
        EXPECT_DOUBLE_EQ(result[i].value, expected[i].value)
            << from.name << " -> " << to.name;
      }
    }
  }
}

TEST(MigratableTest, ProgressReportsRowsAndGroups) {
  DatasetSpec spec{Distribution::kRseqShuffled, 8192, 64, 73};
  const auto keys = GenerateKeys(spec);
  const std::vector<uint64_t> values(keys.size(), 1);
  const ExecutionContext exec{1};
  for (auto& factory : AllMigratables(64, exec)) {
    factory.mig->BeginConsume(1, keys.size());
    ConsumeRange(factory.mig, keys, values, 1024, 0,
                 NumMorselsFor(keys.size(), 1024));
    const ProgressSnapshot progress = factory.mig->Progress();
    EXPECT_EQ(progress.rows, keys.size()) << factory.name;
    // Sort buffers raw rows and reports no group estimate; hash-family
    // structures must have materialized every distinct key.
    if (std::string(factory.name) != "sort") {
      EXPECT_GE(progress.groups, 64u) << factory.name;
      EXPECT_GT(progress.bytes, 0u) << factory.name;
    }
  }
}

// --- Adaptive operator: forced rotation across every morsel boundary. ---

class AdaptiveRotationSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(AdaptiveRotationSweep, RotationStaysBitIdenticalToFixed) {
  const int threads = std::get<0>(GetParam());
  const uint64_t cardinality = std::get<1>(GetParam());
  DatasetSpec spec{Distribution::kRseqShuffled, 60000, cardinality, 81};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 82);

  // Fixed single-strategy baseline.
  auto baseline = ReferenceVectorAggregate(keys, values,
                                           AggregateFunction::kAverage);
  SortByKey(baseline);

  ExecutionContext exec{threads};
  exec.morsel_rows = 1024;  // Many boundaries: 59 morsels, 58 decisions.
  AdaptiveOptions options;
  options.rotate = true;        // Switch at every barrier...
  options.chunk_morsels = 1;    // ...which is every morsel boundary.
  options.sample_morsels = 1;
  AdaptiveAggregator<AverageAggregate> adaptive(keys.size(), exec, options);
  adaptive.Build(keys.data(), values.data(), keys.size());
  auto result = adaptive.Iterate();
  SortByKey(result);

  EXPECT_GE(adaptive.strategy_switches(), 10u);
  ASSERT_EQ(result.size(), baseline.size());
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i].key, baseline[i].key);
    EXPECT_DOUBLE_EQ(result[i].value, baseline[i].value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndCardinalities, AdaptiveRotationSweep,
    ::testing::Combine(::testing::Values(1, 4),
                       ::testing::Values(64ULL, 4096ULL, 60000ULL)),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& info) {
      // Appended piecewise: GCC 12 flags `"t" + std::to_string(...)` with a
      // false-positive -Wrestrict.
      std::string name = "t";
      name += std::to_string(std::get<0>(info.param));
      name += "_c";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

TEST(AdaptiveTest, RotationHandlesHolisticAggregates) {
  DatasetSpec spec{Distribution::kRseqShuffled, 30000, 128, 83};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 500, 84);
  auto baseline = ReferenceVectorAggregate(keys, values,
                                           AggregateFunction::kMedian);
  SortByKey(baseline);

  ExecutionContext exec{4};
  exec.morsel_rows = 2048;
  AdaptiveOptions options;
  options.rotate = true;
  options.chunk_morsels = 1;
  AdaptiveAggregator<MedianAggregate> adaptive(keys.size(), exec, options);
  adaptive.Build(keys.data(), values.data(), keys.size());
  auto result = adaptive.Iterate();
  SortByKey(result);

  EXPECT_GE(adaptive.strategy_switches(), 5u);
  ASSERT_EQ(result.size(), baseline.size());
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i].key, baseline[i].key);
    EXPECT_DOUBLE_EQ(result[i].value, baseline[i].value);
  }
}

// --- Decision plumbing: stats, trace, and the L3-crossing switch. ---

TEST(AdaptiveTest, CrossingTheCacheThresholdTriggersASwitch) {
  // All-distinct keys: the working set grows with every morsel and blows
  // far past the (artificially small) configured L3, so the cost model must
  // abandon the sampling strategy at least once.
  const size_t n = 1 << 20;
  DatasetSpec spec{Distribution::kRseqShuffled, n, n, 85};
  const auto keys = GenerateKeys(spec);

  ExecutionContext exec{4};
  AdaptiveOptions options;
  options.l3_bytes = 256 * 1024;  // Deterministic regardless of host cache.
  AdaptiveAggregator<CountAggregate> adaptive(n, exec, options);
  adaptive.Build(keys.data(), nullptr, n);
  auto result = adaptive.Iterate();
  EXPECT_EQ(result.size(), CountDistinct(keys));

  EXPECT_GE(adaptive.strategy_switches(), 1u);
  EXPECT_NE(adaptive.switch_trace().find("->"), std::string::npos);

  QueryStats stats;
  adaptive.CollectStats(&stats);
  EXPECT_GE(stats.Get(StatCounter::kStrategySwitches), 1u);
  EXPECT_GT(stats.Get(StatCounter::kRowsMigrated), 0u);
  EXPECT_GT(stats.Get(StatCounter::kAdaptiveStrategy), 0u);
}

TEST(AdaptiveTest, LowCardinalityNeverNeedsToSwitch) {
  // 64 groups fit in any cache: the sampling strategy is already the right
  // one and the margin test must keep it.
  DatasetSpec spec{Distribution::kRseqShuffled, 200000, 64, 86};
  const auto keys = GenerateKeys(spec);
  ExecutionContext exec{4};
  AdaptiveAggregator<CountAggregate> adaptive(keys.size(), exec);
  adaptive.Build(keys.data(), nullptr, keys.size());
  auto result = adaptive.Iterate();
  EXPECT_EQ(result.size(), 64u);
  EXPECT_EQ(adaptive.strategy_switches(), 0u);
  EXPECT_EQ(adaptive.switch_trace(), "local-central@0");
}

TEST(AdaptiveTest, EmptyInputYieldsEmptyResult) {
  AdaptiveAggregator<SumAggregate> adaptive(0, ExecutionContext{1});
  adaptive.Build(nullptr, nullptr, 0);
  EXPECT_TRUE(adaptive.Iterate().empty());
  EXPECT_EQ(adaptive.strategy_switches(), 0u);
}

TEST(AdaptiveTest, ForceStrategyPinsTheChoice) {
  DatasetSpec spec{Distribution::kRseqShuffled, 50000, 1000, 87};
  const auto keys = GenerateKeys(spec);
  ExecutionContext exec{2};
  exec.morsel_rows = 1024;
  AdaptiveOptions options;
  options.force_strategy = static_cast<int>(AggStrategy::kSharedMap);
  AdaptiveAggregator<CountAggregate> adaptive(keys.size(), exec, options);
  adaptive.Build(keys.data(), nullptr, keys.size());
  EXPECT_EQ(adaptive.Iterate().size(), CountDistinct(keys));
  EXPECT_EQ(adaptive.strategy_switches(), 0u);
  EXPECT_EQ(adaptive.current_strategy(), AggStrategy::kSharedMap);
  EXPECT_EQ(adaptive.switch_trace(), "shared-map@0");
}

// --- Engine integration. ---

TEST(AdaptiveTest, EngineLabelMatchesReference) {
  DatasetSpec spec{Distribution::kZipf, 100000, 10000, 88};
  const auto keys = GenerateKeys(spec);
  const auto values = GenerateValues(keys.size(), 1000, 89);
  auto expected = ReferenceVectorAggregate(keys, values,
                                           AggregateFunction::kSum);
  SortByKey(expected);
  AggregateRow row;
  row.Add(AggregateFunction::kSum, values.data());
  for (int threads : {1, 4}) {
    auto execution = ExecuteRowQuery("Adaptive", row, keys.data(), nullptr,
                                     keys.size(), ExecutionContext{threads});
    SortByKey(execution.result);
    ASSERT_EQ(execution.result.size(), expected.size()) << threads;
    for (size_t i = 0; i < execution.result.size(); ++i) {
      EXPECT_EQ(execution.result[i].key, expected[i].key) << threads;
      EXPECT_DOUBLE_EQ(execution.result[i].value, expected[i].value)
          << threads;
    }
    EXPECT_GT(execution.stats.Get(StatCounter::kAdaptiveStrategy), 0u)
        << threads;
  }
}

TEST(AdaptiveTest, EngineLabelCountsEveryGroupAtTwoThreads) {
  DatasetSpec spec{Distribution::kRseqShuffled, 100000, 1000, 90};
  const auto keys = GenerateKeys(spec);
  AggregateRow row;
  row.Add(AggregateFunction::kCount, nullptr);
  const auto execution = ExecuteRowQuery("Adaptive", row, keys.data(),
                                         nullptr, keys.size(),
                                         ExecutionContext{2});
  EXPECT_EQ(execution.result.size(), 1000u);
}

}  // namespace
}  // namespace memagg
