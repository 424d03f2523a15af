#include "core/engine.h"

#include <numeric>

#include "core/adaptive_aggregator.h"
#include "core/advisor.h"
#include "core/concepts.h"
#include "core/hash_aggregator.h"
#include "core/hybrid_aggregator.h"
#include "core/local_partition_aggregator.h"
#include "core/radix_partition_aggregator.h"
#include "core/parallel_aggregator.h"
#include "core/scalar.h"
#include "core/sort_aggregator.h"
#include "core/sorters.h"
#include "core/tree_aggregator.h"
#include "hash/chaining_map.h"
#include "hash/concurrent_chaining_map.h"
#include "hash/cuckoo_map.h"
#include "hash/dense_map.h"
#include "hash/linear_probing_map.h"
#include "core/mph_aggregator.h"
#include "hash/sparse_map.h"
#include "mem/worker_arenas.h"
#include "tree/art.h"
#include "tree/btree.h"
#include "tree/judy.h"
#include "tree/ttree.h"
#include "util/macros.h"

namespace memagg {
namespace {

// Registry traits: the bits of a row of kLabels below.
constexpr unsigned kSerialOnly = 1;
constexpr unsigned kTable3 = 2;
constexpr unsigned kTable8 = 4;
constexpr unsigned kRangeSearch = 8;
constexpr unsigned kScalarMedian = 16;

constexpr AlgorithmCategory kHash = AlgorithmCategory::kHash;
constexpr AlgorithmCategory kTree = AlgorithmCategory::kTree;
constexpr AlgorithmCategory kSort = AlgorithmCategory::kSort;

constexpr LabelInfo Label(std::string_view name, AlgorithmCategory category,
                          unsigned traits) {
  return {name, category, (traits & kSerialOnly) != 0, (traits & kTable3) != 0,
          (traits & kTable8) != 0, (traits & kRangeSearch) != 0,
          (traits & kScalarMedian) != 0};
}

/// The label registry. Table 3 and Table 8 rows come first so that each
/// table's labels appear in paper order.
constexpr LabelInfo kLabels[] = {
    // --- Paper Table 3 (serial) and Table 8 (concurrent) ---
    Label("ART", kTree, kSerialOnly | kTable3 | kRangeSearch | kScalarMedian),
    Label("Judy", kTree, kSerialOnly | kTable3 | kRangeSearch | kScalarMedian),
    Label("Btree", kTree, kSerialOnly | kTable3 | kRangeSearch | kScalarMedian),
    Label("Hash_SC", kHash, kSerialOnly | kTable3),
    Label("Hash_LP", kHash, kSerialOnly | kTable3),
    Label("Hash_Sparse", kHash, kSerialOnly | kTable3),
    Label("Hash_Dense", kHash, kSerialOnly | kTable3),
    Label("Hash_TBBSC", kHash, kTable8),
    Label("Hash_LC", kHash, kTable3 | kTable8),
    Label("Introsort", kSort, kSerialOnly | kTable3 | kScalarMedian),
    Label("Spreadsort", kSort, kSerialOnly | kTable3 | kScalarMedian),
    Label("Sort_BI", kSort, kTable8 | kScalarMedian),
    Label("Sort_QSLB", kSort, kTable8 | kScalarMedian),
    // --- The paper's sort microbenchmarks ---
    Label("Quicksort", kSort, kSerialOnly | kScalarMedian),
    Label("Sort_MSBRadix", kSort, kSerialOnly),
    Label("Sort_LSBRadix", kSort, kSerialOnly),
    Label("Sort_SS", kSort, 0),
    Label("Sort_TBB", kSort, 0),
    // --- Extensions beyond the paper ---
    Label("Ttree", kTree, kSerialOnly | kRangeSearch | kScalarMedian),
    Label("Hash_MPH", kHash, kSerialOnly),
    Label("Hash_PLocal", kHash, 0),
    Label("Hash_Striped", kHash, 0),
    Label("Hash_PRadix", kHash, 0),
    // Hybrid and Adaptive start out hashing.
    Label("Hybrid", kHash, 0),
    Label("Adaptive", kHash, 0),
    // Allocator-ablation twins of Hash_SC and ART: identical structures,
    // nodes from global operator new instead of the arena pool
    // (docs/memory.md).
    Label("Hash_SC_Global", kHash, kSerialOnly),
    Label("ART_Global", kTree, kSerialOnly | kRangeSearch),
};

/// The names of the registry rows that satisfy `keep`, in registry order
/// (allocated once and never freed, like every label list below).
template <typename Keep>
const std::vector<std::string>& NamesWhere(Keep keep) {
  auto& names = *new std::vector<std::string>;
  for (const LabelInfo& info : kLabels) {
    if (keep(info)) names.emplace_back(info.name);
  }
  return names;
}

/// `expected_size` sizes the structures; `max_groups` (an upper bound on
/// the groups, e.g. the row count) sizes those that cannot grow.
template <MergeableAggregatePolicy Aggregate>
std::unique_ptr<VectorAggregator> MakeForAggregate(
    const std::string& label, size_t expected_size, size_t max_groups,
    const ExecutionContext& exec, const Aggregate& agg = {}) {
  const int num_threads = exec.num_threads;
  const bool serial_only = LookupLabel(label).serial_only;
  MEMAGG_CHECK((num_threads == 1 || !serial_only) &&
               "a serial-only label needs num_threads == 1");
  // --- Hash-based (Table 3 / Table 8) ---
  if (label == "Hash_LP") {
    return std::make_unique<HashVectorAggregator<LinearProbingMap, Aggregate>>(
        expected_size, agg);
  }
  if (label == "Hash_SC") {
    return std::make_unique<HashVectorAggregator<ChainingMap, Aggregate>>(
        expected_size, agg);
  }
  if (label == "Hash_SC_Global") {
    return std::make_unique<
        HashVectorAggregator<ChainingMapGlobalNew, Aggregate>>(expected_size,
                                                               agg);
  }
  if (label == "Hash_Sparse") {
    return std::make_unique<HashVectorAggregator<SparseMap, Aggregate>>(
        expected_size, agg);
  }
  if (label == "Hash_Dense") {
    return std::make_unique<HashVectorAggregator<DenseMap, Aggregate>>(
        expected_size, agg);
  }
  if (label == "Hash_LC") {
    if (num_threads == 1) {
      return std::make_unique<HashVectorAggregator<CuckooMap, Aggregate>>(
          expected_size, agg);
    }
    return std::make_unique<CuckooParallelAggregator<Aggregate>>(
        expected_size, exec, agg);
  }
  if (label == "Hash_TBBSC") {
    // Its bucket array never grows, and a sampled estimate can fall several
    // times short: size it from the upper bound.
    using Concurrent = typename ConcurrentAggregateFor<Aggregate>::type;
    Concurrent concurrent;
    if constexpr (std::constructible_from<Concurrent, const Aggregate&>) {
      concurrent = Concurrent(agg);
    }
    return std::make_unique<TbbStyleParallelAggregator<Concurrent>>(
        max_groups, exec, concurrent);
  }

  // --- Extensions beyond the paper's Table 3 ---
  if (label == "Adaptive") {
    return std::make_unique<AdaptiveAggregator<Aggregate>>(
        expected_size, exec, AdaptiveOptions{}, agg);
  }
  if (label == "Hybrid") {
    return std::make_unique<HybridVectorAggregator<Aggregate>>(
        expected_size, exec, HybridVectorAggregator<Aggregate>::kMaxHashGroups,
        agg);
  }
  if (label == "Hash_PLocal") {
    return std::make_unique<LocalPartitionAggregator<Aggregate>>(
        expected_size, exec, LocalMergeMode::kCentral, agg);
  }
  if (label == "Hash_Striped") {
    return std::make_unique<StripedParallelAggregator<Aggregate>>(
        expected_size, exec, agg);
  }
  if (label == "Hash_PRadix") {
    return std::make_unique<RadixPartitionAggregator<Aggregate>>(
        expected_size, exec, agg);
  }
  if (label == "Hash_MPH") {
    return std::make_unique<MphVectorAggregator<Aggregate>>(expected_size,
                                                            agg);
  }

  // --- Tree-based (Table 3) ---
  if (label == "ART") {
    return std::make_unique<TreeVectorAggregator<ArtTree, Aggregate>>(agg);
  }
  if (label == "ART_Global") {
    return std::make_unique<
        TreeVectorAggregator<ArtTreeGlobalNew, Aggregate>>(agg);
  }
  if (label == "Judy") {
    return std::make_unique<TreeVectorAggregator<JudyArray, Aggregate>>(agg);
  }
  if (label == "Btree") {
    return std::make_unique<TreeVectorAggregator<BTree, Aggregate>>(agg);
  }
  if (label == "Ttree") {
    return std::make_unique<TreeVectorAggregator<TTree, Aggregate>>(agg);
  }

  // --- Sort-based (Table 3 / Table 8 / microbenchmarks) ---
  if (label == "Introsort") {
    return std::make_unique<SortVectorAggregator<IntrosortSorter, Aggregate>>(
        IntrosortSorter{}, agg);
  }
  if (label == "Spreadsort") {
    return std::make_unique<SortVectorAggregator<SpreadsortSorter, Aggregate>>(
        SpreadsortSorter{}, agg);
  }
  if (label == "Quicksort") {
    return std::make_unique<SortVectorAggregator<QuicksortSorter, Aggregate>>(
        QuicksortSorter{}, agg);
  }
  if (label == "Sort_MSBRadix") {
    return std::make_unique<SortVectorAggregator<MsbRadixSorter, Aggregate>>(
        MsbRadixSorter{}, agg);
  }
  if (label == "Sort_LSBRadix") {
    return std::make_unique<SortVectorAggregator<LsbRadixSorter, Aggregate>>(
        LsbRadixSorter{}, agg);
  }
  if (label == "Sort_QSLB") {
    return std::make_unique<
        SortVectorAggregator<ParallelQuicksortSorter, Aggregate>>(
        ParallelQuicksortSorter{num_threads}, agg);
  }
  if (label == "Sort_BI") {
    return std::make_unique<
        SortVectorAggregator<BlockIndirectSorter, Aggregate>>(
        BlockIndirectSorter{num_threads}, agg);
  }
  if (label == "Sort_SS") {
    return std::make_unique<
        SortVectorAggregator<SamplesortSorter, Aggregate>>(
        SamplesortSorter{num_threads}, agg);
  }
  if (label == "Sort_TBB") {
    return std::make_unique<
        SortVectorAggregator<TaskQuicksortSorter, Aggregate>>(
        TaskQuicksortSorter{num_threads}, agg);
  }

  MEMAGG_CHECK(false && "a registered label has no construction");
  return nullptr;
}

std::unique_ptr<VectorAggregator> MakeForFunction(
    const std::string& label, AggregateFunction function, size_t expected_size,
    size_t max_groups, const ExecutionContext& exec) {
  switch (function) {
    case AggregateFunction::kCount:
      return MakeForAggregate<CountAggregate>(label, expected_size,
                                              max_groups, exec);
    case AggregateFunction::kSum:
      return MakeForAggregate<SumAggregate>(label, expected_size,
                                            max_groups, exec);
    case AggregateFunction::kMin:
      return MakeForAggregate<MinAggregate>(label, expected_size,
                                            max_groups, exec);
    case AggregateFunction::kMax:
      return MakeForAggregate<MaxAggregate>(label, expected_size,
                                            max_groups, exec);
    case AggregateFunction::kAverage:
      return MakeForAggregate<AverageAggregate>(label, expected_size,
                                                max_groups, exec);
    case AggregateFunction::kMedian:
      return MakeForAggregate<MedianAggregate>(label, expected_size,
                                               max_groups, exec);
    case AggregateFunction::kMode:
      return MakeForAggregate<ModeAggregate>(label, expected_size,
                                             max_groups, exec);
  }
  MEMAGG_CHECK(false);
  return nullptr;
}

}  // namespace

std::span<const LabelInfo> Labels() { return kLabels; }

const LabelInfo& LookupLabel(std::string_view label) {
  for (const LabelInfo& info : kLabels) {
    if (info.name == label) return info;
  }
  std::fprintf(stderr, "Unknown algorithm label: %.*s\n",
               static_cast<int>(label.size()), label.data());
  MEMAGG_CHECK(false);
  return kLabels[0];
}

AlgorithmCategory CategoryOfLabel(const std::string& label) {
  return LookupLabel(label).category;
}

const std::vector<std::string>& SerialLabels() {
  static const std::vector<std::string>& labels =
      NamesWhere([](const LabelInfo& info) { return info.table3; });
  return labels;
}

const std::vector<std::string>& ConcurrentLabels() {
  static const std::vector<std::string>& labels =
      NamesWhere([](const LabelInfo& info) { return info.table8; });
  return labels;
}

const std::vector<std::string>& TreeLabels() {
  static const std::vector<std::string>& labels =
      NamesWhere([](const LabelInfo& info) {
        return info.table3 && info.range_search;
      });
  return labels;
}

const std::vector<std::string>& ScalarCapableLabels() {
  static const std::vector<std::string>& labels =
      NamesWhere([](const LabelInfo& info) {
        return info.table3 && info.scalar_median;
      });
  return labels;
}

std::unique_ptr<VectorAggregator> MakeVectorAggregator(
    const std::string& label, AggregateFunction function, size_t expected_size,
    const ExecutionContext& exec) {
  return MakeForFunction(label, function, expected_size, expected_size, exec);
}

namespace {

/// The family for `label` at the row policy for `row`. Its Iterate emits
/// row.num_outputs() consecutive entries per group; `row` must outlive it.
std::unique_ptr<VectorAggregator> MakeRowAggregator(
    const std::string& label, const AggregateRow& row, size_t expected_size,
    size_t max_groups, const ExecutionContext& exec) {
  MEMAGG_CHECK(row.num_slots() <= kMaxRowSlots &&
               "a query's aggregates need more state slots than a row holds");
  if (row.holistic()) {
    return MakeForAggregate(label, expected_size, max_groups, exec,
                            RowAggregate<kMaxRowSlots, true>(&row));
  }
  return MakeForAggregate(label, expected_size, max_groups, exec,
                          RowAggregate<kMaxRowSlots, false>(&row));
}

/// Builds and iterates the operator `make` constructs, with the engine's
/// phase clocks and stats. `make` runs once the query-local stats registry
/// and worker arenas are in place; `outputs` is the number of result
/// entries per group.
template <typename Make>
VectorQueryExecution RunQuery(const Make& make, const uint64_t* keys,
                              const uint64_t* values, size_t n,
                              size_t estimated_groups, size_t outputs,
                              ExecutionContext exec) {
  StatsRegistry local_registry(exec.num_threads);
  if (exec.stats == nullptr) exec.stats = &local_registry;
  // Query-local per-worker arenas: parallel operators allocate their nodes
  // thread-locally from these and the whole pool is released when this frame
  // unwinds (declared before `aggregator` so it outlives the structures
  // whose nodes live in it).
  WorkerArenas local_arenas(exec.num_threads);
  if (exec.arenas == nullptr) exec.arenas = &local_arenas;
  std::unique_ptr<VectorAggregator> aggregator = make(exec);
  // Pre-size growable tables from a sampled cardinality estimate; the
  // sampling cost stays outside the timed build phase.
  aggregator->ReserveGroups(estimated_groups);

  VectorQueryExecution execution;
  // The end-to-end build/iterate clocks are the bench contract, not
  // operator instrumentation: they are two timer reads per whole phase and
  // stay live even under MEMAGG_DISABLE_STATS (which is why CycleTimer is
  // used directly instead of the gated PhaseTimer).
  {
    CycleTimer timer;
    timer.Start();
    aggregator->Build(keys, values, n);
    timer.Stop();
    execution.stats.AddPhase(StatPhase::kBuild, timer.ElapsedCycles(),
                             timer.ElapsedMillis());
  }
  {
    CycleTimer timer;
    timer.Start();
    execution.result = aggregator->Iterate();
    timer.Stop();
    execution.stats.AddPhase(StatPhase::kIterate, timer.ElapsedCycles(),
                             timer.ElapsedMillis());
  }
  if (StatsConfig::kEnabled) {
    execution.stats.Add(StatCounter::kRowsBuilt, n);
    execution.stats.Add(StatCounter::kGroupsOut,
                        execution.result.size() / outputs);
    aggregator->CollectStats(&execution.stats);
    // Context-owned worker arenas are reported here, once per query;
    // operators report only the allocators they own (see mem/allocator.h).
    AddAllocStats(&execution.stats, exec.arenas->Stats());
    execution.stats.Merge(exec.stats->Collect());
  }
  return execution;
}

}  // namespace

VectorQueryExecution ExecuteRowQuery(const std::string& label,
                                     const AggregateRow& row,
                                     const uint64_t* keys,
                                     const uint64_t* rows, size_t n,
                                     ExecutionContext exec) {
  MEMAGG_CHECK(row.num_outputs() > 0);
  if (LookupLabel(label).serial_only) exec.num_threads = 1;
  // Growable structures start at the sampled estimate; the row count bounds
  // the groups for those that cannot grow.
  const size_t estimated = EstimateGroupCardinality(keys, n);
  if (row.num_outputs() == 1) {
    const AggregateFunction function = row.function(0);
    const uint64_t* values = row.measure(0);
    std::vector<uint64_t> gathered;
    if (values != nullptr && rows != nullptr) {
      gathered.resize(n);
      for (size_t i = 0; i < n; ++i) gathered[i] = values[rows[i]];
      values = gathered.data();
    }
    return RunQuery(
        [&](const ExecutionContext& ctx) {
          return MakeForFunction(label, function, estimated, n, ctx);
        },
        keys, values, n, estimated, 1, exec);
  }
  std::vector<uint64_t> identity;
  if (rows == nullptr) {
    identity.resize(n);
    std::iota(identity.begin(), identity.end(), uint64_t{0});
    rows = identity.data();
  }
  return RunQuery(
      [&](const ExecutionContext& ctx) {
        return MakeRowAggregator(label, row, estimated, n, ctx);
      },
      keys, rows, n, estimated, row.num_outputs(), exec);
}

std::unique_ptr<ScalarAggregator> MakeScalarMedianAggregator(
    const std::string& label, const ExecutionContext& exec) {
  if (!LookupLabel(label).scalar_median) {
    std::fprintf(stderr, "Label unsuitable for scalar median: %s\n",
                 label.c_str());
    MEMAGG_CHECK(false);
  }
  const int num_threads = exec.num_threads;
  if (label == "ART") {
    return std::make_unique<TreeScalarMedianAggregator<ArtTree>>();
  }
  if (label == "Judy") {
    return std::make_unique<TreeScalarMedianAggregator<JudyArray>>();
  }
  if (label == "Btree") {
    return std::make_unique<TreeScalarMedianAggregator<BTree>>();
  }
  if (label == "Ttree") {
    return std::make_unique<TreeScalarMedianAggregator<TTree>>();
  }
  if (label == "Introsort") {
    return std::make_unique<SortScalarMedianAggregator<IntrosortSorter>>();
  }
  if (label == "Spreadsort") {
    return std::make_unique<SortScalarMedianAggregator<SpreadsortSorter>>();
  }
  if (label == "Quicksort") {
    return std::make_unique<SortScalarMedianAggregator<QuicksortSorter>>();
  }
  if (label == "Sort_BI") {
    return std::make_unique<SortScalarMedianAggregator<BlockIndirectSorter>>(
        BlockIndirectSorter{num_threads});
  }
  if (label == "Sort_QSLB") {
    return std::make_unique<
        SortScalarMedianAggregator<ParallelQuicksortSorter>>(
        ParallelQuicksortSorter{num_threads});
  }
  MEMAGG_CHECK(false && "a scalar-median label has no construction");
  return nullptr;
}

}  // namespace memagg
