// Tests for the query-stats observability layer (src/obs/query_stats.h):
// merge semantics, the per-worker registry, the RAII phase timer, JSON
// serialization, and — end to end — that every engine-registered operator
// reports non-zero phase timings plus at least one operator-specific
// counter through ExecuteRowQuery.

#include "obs/query_stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "data/dataset.h"
#include "test_util.h"

namespace memagg {
namespace {

TEST(QueryStatsTest, CountersSumByDefault) {
  QueryStats stats;
  stats.Add(StatCounter::kRehashes, 2);
  stats.Add(StatCounter::kRehashes, 3);
  EXPECT_EQ(stats.Get(StatCounter::kRehashes), 5u);
}

TEST(QueryStatsTest, MaxOfRaisesButNeverLowers) {
  QueryStats stats;
  stats.MaxOf(StatCounter::kProbeMax, 7);
  stats.MaxOf(StatCounter::kProbeMax, 3);
  EXPECT_EQ(stats.Get(StatCounter::kProbeMax), 7u);
}

TEST(QueryStatsTest, MergeSumsAndMaxesByCounterKind) {
  QueryStats a;
  a.Add(StatCounter::kHashEntries, 10);
  a.MaxOf(StatCounter::kProbeMax, 4);
  a.MaxOf(StatCounter::kWorkersUsed, 2);
  a.AddPhase(StatPhase::kBuild, 100, 1.0);

  QueryStats b;
  b.Add(StatCounter::kHashEntries, 5);
  b.MaxOf(StatCounter::kProbeMax, 9);
  b.MaxOf(StatCounter::kWorkersUsed, 1);
  b.AddPhase(StatPhase::kBuild, 50, 0.5);

  a.Merge(b);
  EXPECT_EQ(a.Get(StatCounter::kHashEntries), 15u);  // Sum-merged.
  EXPECT_EQ(a.Get(StatCounter::kProbeMax), 9u);      // Max-merged.
  EXPECT_EQ(a.Get(StatCounter::kWorkersUsed), 2u);   // Max-merged.
  EXPECT_EQ(a.PhaseCycles(StatPhase::kBuild), 150u);
  EXPECT_DOUBLE_EQ(a.PhaseMillis(StatPhase::kBuild), 1.5);
}

TEST(QueryStatsTest, TotalCountsOnlyBuildAndIterate) {
  // Subphases (partition/sort/merge) happen *inside* build or iterate;
  // adding them to the total would double-count.
  QueryStats stats;
  stats.AddPhase(StatPhase::kBuild, 100, 1.0);
  stats.AddPhase(StatPhase::kIterate, 50, 0.5);
  stats.AddPhase(StatPhase::kSort, 80, 0.8);
  stats.AddPhase(StatPhase::kPartition, 10, 0.1);
  stats.AddPhase(StatPhase::kMerge, 10, 0.1);
  EXPECT_EQ(stats.TotalCycles(), 150u);
  EXPECT_DOUBLE_EQ(stats.TotalMillis(), 1.5);
}

TEST(QueryStatsTest, EveryPhaseHasItsOwnName) {
  std::vector<std::string> names;
  for (size_t p = 0; p < kNumStatPhases; ++p) {
    const char* name = StatPhaseName(static_cast<StatPhase>(p));
    ASSERT_NE(name, nullptr) << "phase " << p;
    names.emplace_back(name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"partition", "build", "sort",
                                             "iterate", "merge", "filter",
                                             "encode", "order"}));
}

TEST(QueryStatsTest, TablePhasesStayOutOfTheOperatorTotal) {
  // The table layer's phases run before and after the operator, so the
  // operator total (build + iterate) excludes them.
  QueryStats stats;
  stats.AddPhase(StatPhase::kBuild, 100, 1.0);
  stats.AddPhase(StatPhase::kIterate, 50, 0.5);
  stats.AddPhase(StatPhase::kFilter, 7, 0.07);
  stats.AddPhase(StatPhase::kEncode, 20, 0.2);
  stats.AddPhase(StatPhase::kOrder, 9, 0.09);
  EXPECT_EQ(stats.TotalCycles(), 150u);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"filter\":{\"cycles\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"encode\":{\"cycles\":20"), std::string::npos) << json;
  EXPECT_NE(json.find("\"order\":{\"cycles\":9"), std::string::npos) << json;
}

TEST(QueryStatsTest, PhaseTimerRecordsOnceEvenIfStoppedTwice) {
  QueryStats stats;
  {
    PhaseTimer timer(&stats, StatPhase::kBuild);
    timer.Stop();
    timer.Stop();  // Idempotent; destructor must not record again either.
  }
  if (StatsConfig::kEnabled) {
    EXPECT_GT(stats.PhaseCycles(StatPhase::kBuild), 0u);
  } else {
    EXPECT_EQ(stats.PhaseCycles(StatPhase::kBuild), 0u);
  }
  const uint64_t once = stats.PhaseCycles(StatPhase::kBuild);
  EXPECT_EQ(stats.PhaseCycles(StatPhase::kBuild), once);
}

TEST(QueryStatsTest, PhaseTimerToleratesNullTarget) {
  PhaseTimer timer(nullptr, StatPhase::kIterate);
  timer.Stop();  // Must not crash.
}

TEST(QueryStatsTest, RegistryShardsAreIndependentUntilCollect) {
  StatsRegistry registry(4);
  registry.WorkerShard(0).Add(StatCounter::kMorselsClaimed, 3);
  registry.WorkerShard(2).Add(StatCounter::kMorselsClaimed, 4);
  registry.WorkerShard(2).MaxOf(StatCounter::kWorkersUsed, 3);
  const QueryStats merged = registry.Collect();
  EXPECT_EQ(merged.Get(StatCounter::kMorselsClaimed), 7u);
  EXPECT_EQ(merged.Get(StatCounter::kWorkersUsed), 3u);
  registry.Reset();
  EXPECT_EQ(registry.Collect().Get(StatCounter::kMorselsClaimed), 0u);
}

// Out-of-range worker ids used to wrap modulo num_shards, silently aliasing
// two "workers" onto one shard and breaking the single-writer contract. They
// now fail loudly in all build modes.
TEST(QueryStatsDeathTest, RegistryRejectsOutOfRangeWorkerIds) {
  StatsRegistry registry(2);
  EXPECT_DEATH(registry.WorkerShard(5), "MEMAGG_CHECK");
  EXPECT_DEATH(registry.WorkerShard(-1), "MEMAGG_CHECK");
}

TEST(QueryStatsTest, ToJsonEmitsOnlyNonZeroFields) {
  QueryStats stats;
  stats.AddPhase(StatPhase::kBuild, 123, 0.5);
  stats.Add(StatCounter::kHashEntries, 42);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"build\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"hash_entries\":42"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"sort\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"rehashes\""), std::string::npos) << json;
  EXPECT_EQ(QueryStats{}.ToJson(),
            std::string("{\"phases\":{},\"counters\":{}}"));
}

// --- End-to-end: every engine label reports through ExecuteRowQuery -------

/// COUNT(*) GROUP BY key through the engine's query path.
VectorQueryExecution CountQuery(const std::string& label,
                                const std::vector<uint64_t>& keys,
                                int threads = 1) {
  AggregateRow row;
  row.Add(AggregateFunction::kCount, nullptr);
  return ExecuteRowQuery(label, row, keys.data(), nullptr, keys.size(),
                         ExecutionContext{threads});
}

/// COUNT(*) GROUP BY key built directly into a structure constructed at
/// `expected_size`, with the operator's counters collected.
QueryStats CountStatsAtSize(const std::string& label,
                            const std::vector<uint64_t>& keys,
                            size_t expected_size) {
  auto aggregator =
      MakeVectorAggregator(label, AggregateFunction::kCount, expected_size);
  aggregator->Build(keys.data(), nullptr, keys.size());
  aggregator->Iterate();
  QueryStats stats;
  aggregator->CollectStats(&stats);
  return stats;
}

struct LabelCase {
  std::string label;
  int threads;
};

/// Every registered label at one thread, and at four where it can.
std::vector<LabelCase> AllEngineCases() {
  std::vector<LabelCase> cases;
  for (const LabelInfo& info : Labels()) {
    cases.push_back({std::string(info.name), 1});
    if (!info.serial_only) cases.push_back({std::string(info.name), 4});
  }
  return cases;
}

TEST(QueryStatsEndToEndTest, EveryOperatorReportsPhasesAndCounters) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  // Large enough that 4 threads get a multi-morsel grid (>= 2 * 16K rows).
  DatasetSpec spec{Distribution::kRseqShuffled, 100000, 500, 131};
  const auto keys = GenerateKeys(spec);
  const auto expected =
      ReferenceVectorAggregate(keys, {}, AggregateFunction::kCount);

  for (const LabelCase& c : AllEngineCases()) {
    SCOPED_TRACE(c.label + " threads=" + std::to_string(c.threads));
    VectorQueryExecution execution = CountQuery(c.label, keys, c.threads);
    SortByKey(execution.result);
    EXPECT_EQ(execution.result, expected);

    const QueryStats& stats = execution.stats;
    // Engine-recorded phases and universal counters.
    EXPECT_GT(stats.PhaseCycles(StatPhase::kBuild), 0u);
    EXPECT_GT(stats.PhaseCycles(StatPhase::kIterate), 0u);
    EXPECT_EQ(stats.Get(StatCounter::kRowsBuilt), keys.size());
    EXPECT_EQ(stats.Get(StatCounter::kGroupsOut), expected.size());
    EXPECT_EQ(stats.TotalCycles(), stats.PhaseCycles(StatPhase::kBuild) +
                                       stats.PhaseCycles(StatPhase::kIterate));

    // At least one operator-specific counter per algorithm family.
    switch (CategoryOfLabel(c.label)) {
      case AlgorithmCategory::kHash:
        EXPECT_GT(stats.Get(StatCounter::kHashEntries), 0u);
        break;
      case AlgorithmCategory::kTree:
        EXPECT_GT(stats.Get(StatCounter::kTreeNodes), 0u);
        break;
      case AlgorithmCategory::kSort:
        EXPECT_EQ(stats.Get(StatCounter::kRowsSorted), keys.size());
        EXPECT_GT(stats.PhaseCycles(StatPhase::kSort), 0u);
        break;
    }

    // Parallel hash operators drive the executor with the query's context,
    // so their morsel/worker accounting must surface. (Parallel sorts build
    // their executors inside the sort kernels, which take only a thread
    // count; Hybrid's build loop is serial by design.)
    if (c.threads > 1 && c.label.rfind("Hash", 0) == 0) {
      EXPECT_GT(stats.Get(StatCounter::kMorselsClaimed), 0u);
      EXPECT_GE(stats.Get(StatCounter::kWorkersUsed), 1u);
      EXPECT_LE(stats.Get(StatCounter::kWorkersUsed),
                static_cast<uint64_t>(c.threads));
    }
  }
}

TEST(QueryStatsEndToEndTest, ProbeStatsReportedForOpenAddressing) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 1000, 132};
  const auto keys = GenerateKeys(spec);
  const auto execution = CountQuery("Hash_LP", keys);
  // Every resident entry probes at least once, so total >= entries >= max.
  EXPECT_EQ(execution.stats.Get(StatCounter::kHashEntries), 1000u);
  EXPECT_GE(execution.stats.Get(StatCounter::kProbeTotal), 1000u);
  EXPECT_GE(execution.stats.Get(StatCounter::kProbeMax), 1u);
}

TEST(QueryStatsEndToEndTest, RehashCounterFiresWhenTableIsUndersized) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  DatasetSpec spec{Distribution::kRseqShuffled, 20000, 10000, 133};
  const auto keys = GenerateKeys(spec);
  // expected_size=2 forces the linear-probing table to grow repeatedly.
  const QueryStats stats = CountStatsAtSize("Hash_LP", keys, 2);
  EXPECT_GT(stats.Get(StatCounter::kRehashes), 0u);
}

TEST(QueryStatsEndToEndTest, HybridSpillCounterFiresPastThreshold) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  // 50000 distinct groups exceed the hybrid's 44000-group hash budget.
  DatasetSpec spec{Distribution::kRseqShuffled, 100000, 50000, 134};
  const auto keys = GenerateKeys(spec);
  const auto execution = CountQuery("Hybrid", keys);
  EXPECT_EQ(execution.stats.Get(StatCounter::kHybridSpills), 1u);
  EXPECT_GT(execution.stats.Get(StatCounter::kRowsSorted), 0u);
  EXPECT_GT(execution.stats.PhaseCycles(StatPhase::kSort), 0u);
}

TEST(QueryStatsEndToEndTest, LocalPartitionReportsMergeAccounting) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  DatasetSpec spec{Distribution::kRseqShuffled, 100000, 500, 135};
  const auto keys = GenerateKeys(spec);
  const auto execution = CountQuery("Hash_PLocal", keys, /*threads=*/4);
  EXPECT_EQ(execution.stats.Get(StatCounter::kPartitions), 4u);
  EXPECT_GT(execution.stats.PhaseCycles(StatPhase::kMerge), 0u);
}

TEST(QueryStatsEndToEndTest, RadixPartitionReportsPartitionPhase) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  DatasetSpec spec{Distribution::kRseqShuffled, 100000, 500, 136};
  const auto keys = GenerateKeys(spec);
  const auto execution = CountQuery("Hash_PRadix", keys, /*threads=*/4);
  EXPECT_EQ(execution.stats.Get(StatCounter::kPartitions), 4u);
  EXPECT_GT(execution.stats.PhaseCycles(StatPhase::kPartition), 0u);
  // The partition subphase is contained in build, never larger than it.
  EXPECT_LE(execution.stats.PhaseCycles(StatPhase::kPartition),
            execution.stats.PhaseCycles(StatPhase::kBuild));
}

TEST(QueryStatsEndToEndTest, CuckooKicksSurfaceUnderChurn) {
  if (!StatsConfig::kEnabled) GTEST_SKIP() << "stats compiled out";
  DatasetSpec spec{Distribution::kRseqShuffled, 50000, 20000, 137};
  const auto keys = GenerateKeys(spec);
  // An undersized cuckoo table must displace entries while growing.
  const QueryStats stats = CountStatsAtSize("Hash_LC", keys, 16);
  EXPECT_EQ(stats.Get(StatCounter::kHashEntries), 20000u);
  EXPECT_GT(stats.Get(StatCounter::kCuckooKicks), 0u);
}

}  // namespace
}  // namespace memagg
