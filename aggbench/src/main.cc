// aggbench: end-to-end latency of ExecuteTableQuery, from Table in to
// decoded, ordered rows out, for seven plans over one workload.
//
//   aggbench --workload <tpch_q1|highcard_count|skew_median> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// One client in one process runs a closed loop: the next query is issued
// when the previous one returns, and the plans take turns round-robin so
// that noise from neighbours hits all of them alike. Every query's rows are
// compared with an independent oracle (oracle.h).
//
// --trace 0 reports the end-to-end metrics: <plan>.p50_ms (nearest rank, at
// least 20 timed queries per plan; printed for every plan, reported for those
// marked end_to_end), setup_s (median of five cold set-ups,
// each generating the table and running one untimed warm-up query per plan
// in a process that has not started its worker pool yet) and peak_rss_mb
// (VmHWM over the measured loop). Single-threaded queries run on the round's
// CPU, in rotation (CpuRotation).
//
// --trace 1 reports the per-layer metrics instead. Each round runs every plan
// twice, once plain and once inside a span, then replays the query's public
// layer calls (encode, estimate, construct, build, teardown, decode, an
// empty parallel loop) inside spans of their own; the medians over rounds
// are the per-layer metrics, and the traced-vs-plain latency is the tracing
// overhead. The spans are written as Chrome trace-event JSON to --trace-out.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when every
// query matched the oracle.

#include <malloc.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "core/advisor.h"
#include "core/adaptive_aggregator.h"
#include "core/engine.h"
#include "core/table_exec.h"
#include "data/key_codec.h"
#include "exec/executor.h"
#include "exec/task_scheduler.h"
#include "mem/worker_arenas.h"
#include "obs/query_stats.h"
#include "oracle.h"
#include "trace.h"
#include "util/macros.h"
#include "workloads.h"

namespace aggbench {
namespace {

using Clock = std::chrono::steady_clock;
using memagg::StatCounter;
using memagg::StatPhase;

/// Cold set-ups per run: all but one in child processes, the last in the
/// measuring process itself.
constexpr int kSetupReps = 5;
/// The reported latency percentile. A run measures until every plan has
/// enough queries for it (PercentileSupported: 20 for p50).
constexpr int kLatencyPercent = 50;
constexpr size_t kMinTracedRounds = 5;
/// A run that cannot reach the sample floor by then fails instead of
/// overrunning the caller's time limit.
constexpr double kMaxMeasureSeconds = 150;
constexpr double kBytesPerMB = 1e6;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseUnsigned(const char* text, uint64_t* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end && ptr != text;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &args->seed)) return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number < 1 || number > 3600) {
        return false;
      }
      args->seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &number) || number > 1) return false;
      args->trace = static_cast<int>(number);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return IsWorkload(args->workload) && have_seed && args->seconds > 0 &&
         args->trace >= 0;
}

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// A "VmHWM:" / "VmRSS:" field of /proc/self/status, in bytes.
std::optional<double> ProcStatusBytes(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) != 0) continue;
    return std::strtod(line.c_str() + len, nullptr) * 1024.0;
  }
  return std::nullopt;
}

/// The machine's CPU tick counters from the "cpu" line of /proc/stat: the
/// sum of all of them and the ticks the hypervisor stole (the eighth).
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks ticks;
  uint64_t value = 0;
  for (int i = 0; i < 10 && stat >> value; ++i) {
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

/// Resets VmHWM to the current RSS. False when the kernel refuses.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

/// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Spreads the client thread's single-threaded queries evenly over the CPUs.
///
/// On a shared host the vCPUs can run at different speeds that change over
/// seconds to minutes, and the kernel keeps a thread on one CPU for long
/// stretches. Left alone, the share of
/// queries that land on a slow CPU differs from run to run and moves every
/// percentile with it. So a single-threaded query runs pinned to the next CPU
/// of the round, and every _t1 plan gets the same share of every CPU in every
/// run. A parallel query runs unpinned: its workers use every CPU anyway,
/// and pinning the client thread would make it share a CPU with a pool
/// worker it cannot move away from. The program's worker pool must be started
/// before the first pin, so that its threads keep the full CPU set.
class CpuRotation {
 public:
  CpuRotation() : cpus_(AllowedCpus()) {}

  /// Places the client thread for a query of `threads` threads in `round`.
  void Place(int threads, size_t round) {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (threads == 1) {
      CPU_SET(cpus_[round % cpus_.size()], &set);
    } else {
      for (const int cpu : cpus_) CPU_SET(cpu, &set);
    }
    if (sched_setaffinity(0, sizeof(set), &set) != 0) cpus_.clear();
  }

 private:
  std::vector<int> cpus_;
};

/// Named sample lists, reported in first-seen order.
class SampleSet {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      it = index_.emplace(name, entries_.size()).first;
      entries_.push_back({name, unit, {}});
    }
    entries_[it->second].samples.push_back(value);
  }

  struct Entry {
    std::string name;
    std::string unit;
    std::vector<double> samples;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::map<std::string, size_t> index_;
  std::vector<Entry> entries_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The query-independent inputs the traced run's replays need, derived
/// from the table outside any timer.
struct ReplayInputs {
  std::vector<uint64_t> filtered_rows;
  std::vector<memagg::EncodedKey> keys;
  std::vector<std::vector<uint64_t>> values;  // Per aggregate; empty = COUNT.
  std::vector<memagg::EncodedKey> group_keys;  // Sorted distinct keys.
  size_t estimate = 0;                         // EstimateGroupCardinality.
};

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args),
        query_(WorkloadQuery(args.workload)),
        nproc_(static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()))) {}

  /// Runs the benchmark and prints its result line; returns the exit code.
  int Run() {
    if (!Setup()) return 1;
    // The set-up's warm-ups started the worker pool; make sure of it before
    // the client thread is first pinned, or the pool's threads would inherit
    // a one-CPU mask (see CpuRotation).
    memagg::TaskScheduler::Global().pool();
    // Hand the set-up's and the oracle's freed memory back to the kernel,
    // then restart VmHWM, so that peak memory covers the measured loop.
    malloc_trim(0);
    rss_resettable_ = ResetPeakRss();
    if (!rss_resettable_) {
      std::printf("note: /proc/self/clear_refs refused the VmHWM reset; "
                  "peak_rss_mb includes the set-up and mem.rss_growth_mb is "
                  "missing\n");
    }
    std::vector<Metric> metrics =
        args_.trace == 1 ? MeasureTraced() : MeasureUntraced();
    if (metrics.empty()) return 1;
    PrintProvenance();
    const bool correct = failed_ == 0;
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) line += ", ";
      line += "\"" + metrics[i].name + "\": {\"value\": " +
              FormatNumber(metrics[i].value) + ", \"unit\": \"" +
              metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  /// Per-plan facts recorded for the provenance line.
  struct PlanFacts {
    std::string resolved_label;
    int threads = 1;
    uint64_t adaptive_strategy = 0;  // kAdaptiveStrategy: strategy id + 1.
    int key_width_bits = 0;
    size_t rows_scanned = 0;
    size_t groups_out = 0;
    uint64_t hash_entries = 0;  // Base of hash.probe_avg.
    size_t samples = 0;
  };

  int ThreadsFor(const Plan& plan) const {
    return std::min(plan.threads, nproc_);
  }

  memagg::TableQueryResult Execute(const Plan& plan) {
    return memagg::ExecuteTableQuery(
        table_, query_, plan.label, memagg::ExecutionContext(ThreadsFor(plan)));
  }

  /// Compares one result with the oracle and counts it.
  void Check(size_t p, const memagg::TableQueryResult& result) {
    ++attempted_;
    std::string error;
    if (CountMismatches(oracle_, result, &error) != 0) {
      ++failed_;
      if (failed_ <= 5) {
        std::fprintf(stderr, "aggbench: %s returned a wrong result: %s\n",
                     plans_[p].name.c_str(), error.c_str());
      }
    }
    PlanFacts& facts = facts_[p];
    facts.resolved_label = result.label;
    facts.adaptive_strategy = result.stats.Get(StatCounter::kAdaptiveStrategy);
    facts.key_width_bits = result.key_width_bits;
    facts.rows_scanned = result.rows_scanned;
    facts.groups_out = result.group_keys.size();
    facts.hash_entries = result.stats.Get(StatCounter::kHashEntries);
  }

  void Progress() {
    std::printf("progress attempted=%zu failed=%zu\n", attempted_, failed_);
    std::fflush(stdout);
  }

  /// One set-up: generates the table and runs one warm-up query per plan.
  /// Returns its wall time in seconds.
  double SetUpOnce(std::vector<memagg::TableQueryResult>* warmups) {
    const Clock::time_point start = Clock::now();
    table_ = GenerateWorkloadTable(args_.workload, args_.seed);
    for (size_t p = 0; p < plans_.size(); ++p) {
      (*warmups)[p] = Execute(plans_[p]);
    }
    return MillisBetween(start, Clock::now()) / 1e3;
  }

  /// Times one set-up in a child process. The child starts as a copy of a
  /// process that has no table and no worker pool yet, so the set-up pays
  /// for the pool's start and for first touch of all its memory, as the
  /// first set-up of any process does. nullopt if the child fails.
  std::optional<double> SetUpInChild() {
    int fds[2];
    if (pipe(fds) != 0) return std::nullopt;
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      std::vector<memagg::TableQueryResult> warmups(plans_.size());
      const double seconds = SetUpOnce(&warmups);
      const bool sent = write(fds[1], &seconds, sizeof(seconds)) ==
                        static_cast<ssize_t>(sizeof(seconds));
      _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double seconds = 0;
    const bool received =
        pid > 0 && read(fds[0], &seconds, sizeof(seconds)) ==
                       static_cast<ssize_t>(sizeof(seconds));
    close(fds[0]);
    int status = 0;
    const bool exited = pid > 0 && waitpid(pid, &status, 0) == pid &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!received || !exited) return std::nullopt;
    return seconds;
  }

  /// Times kSetupReps cold set-ups, keeps the last one's table and checks
  /// its warm-up results against the oracle. False if a set-up failed.
  bool Setup() {
    facts_.resize(plans_.size());
    for (size_t p = 0; p < plans_.size(); ++p) {
      facts_[p].threads = ThreadsFor(plans_[p]);
    }
    // The children must be forked before this process starts its worker
    // pool: a fork copies only the calling thread.
    for (int rep = 1; rep < kSetupReps; ++rep) {
      const std::optional<double> seconds = SetUpInChild();
      if (!seconds.has_value()) {
        std::fprintf(stderr, "aggbench: a set-up in a child process failed\n");
        return false;
      }
      setup_seconds_.push_back(*seconds);
    }
    std::vector<memagg::TableQueryResult> warmups(plans_.size());
    setup_seconds_.push_back(SetUpOnce(&warmups));
    oracle_ = ComputeOracle(table_, query_);
    for (size_t p = 0; p < plans_.size(); ++p) Check(p, warmups[p]);
    Progress();
    return true;
  }

  std::vector<Metric> MeasureUntraced() {
    std::vector<std::vector<double>> latency(plans_.size());
    const CpuTicks ticks_before = ReadCpuTicks();
    const Clock::time_point start = Clock::now();
    for (size_t round = 0;; ++round) {
      const double elapsed = MillisBetween(start, Clock::now()) / 1e3;
      const size_t samples = latency.back().size();
      if (elapsed >= args_.seconds &&
          PercentileSupported(samples, kLatencyPercent)) {
        break;
      }
      if (elapsed >= kMaxMeasureSeconds) {
        std::fprintf(stderr,
                     "aggbench: only %zu queries per plan in %.0f s, too few "
                     "for a p%d\n",
                     samples, elapsed, kLatencyPercent);
        return {};
      }
      for (size_t p = 0; p < plans_.size(); ++p) {
        rotation_.Place(ThreadsFor(plans_[p]), round);
        const Clock::time_point t0 = Clock::now();
        const memagg::TableQueryResult result = Execute(plans_[p]);
        latency[p].push_back(MillisBetween(t0, Clock::now()));
        Check(p, result);
      }
      Progress();
    }

    // A shared host can run slow for minutes at a time; the share of CPU
    // time it took from this machine during the loop tells such runs apart.
    const CpuTicks ticks_after = ReadCpuTicks();
    std::printf("host: the hypervisor stole %.2f%% of CPU ticks during the "
                "measured loop\n",
                100.0 * static_cast<double>(ticks_after.steal -
                                            ticks_before.steal) /
                    static_cast<double>(std::max<uint64_t>(
                        1, ticks_after.total - ticks_before.total)));
    std::vector<Metric> metrics;
    for (size_t p = 0; p < plans_.size(); ++p) {
      const std::string& name = plans_[p].name;
      facts_[p].samples = latency[p].size();
      const std::optional<double> p50 =
          Percentile(latency[p], kLatencyPercent);
      MEMAGG_CHECK(p50.has_value());
      if (plans_[p].end_to_end) {
        metrics.push_back({name + ".p50_ms", *p50, "ms"});
      }
      const auto q = Quartiles(latency[p]);
      std::printf("%-16s n=%zu p25=%.3f p50=%.3f p75=%.3f ms\n", name.c_str(),
                  latency[p].size(), (*q)[0], *p50, (*q)[2]);
    }
    std::printf("setup_s samples:");
    for (const double s : setup_seconds_) std::printf(" %.4f", s);
    std::printf("\n");
    metrics.push_back({"setup_s", Median(setup_seconds_), "s"});
    const std::optional<double> hwm = ProcStatusBytes("VmHWM:");
    MEMAGG_CHECK(hwm.has_value() && "VmHWM missing from /proc/self/status");
    metrics.push_back({"peak_rss_mb", *hwm / kBytesPerMB, "MB"});
    return metrics;
  }

  ReplayInputs PrepareReplay() const {
    ReplayInputs in;
    if (query_.has_filter) {
      const std::vector<uint64_t>& column =
          table_.ColumnNamed(query_.filter_column).u64();
      for (size_t i = 0; i < column.size(); ++i) {
        if (column[i] <= query_.filter_max) in.filtered_rows.push_back(i);
      }
    }
    const auto codec =
        memagg::PackedKeyCodec::TryBuild(table_, query_.group_by);
    MEMAGG_CHECK(codec.has_value() && "benchmark keys pack into 63 bits");
    in.keys = query_.has_filter ? codec->EncodeRows(in.filtered_rows)
                                : codec->EncodeAll();
    for (const memagg::AggregateSpec& spec : query_.aggregates) {
      std::vector<uint64_t> gathered;
      if (memagg::NeedsValueColumn(spec.function)) {
        const std::vector<uint64_t>& source =
            table_.ColumnNamed(spec.column).u64();
        if (query_.has_filter) {
          for (const uint64_t row : in.filtered_rows) {
            gathered.push_back(source[row]);
          }
        } else {
          gathered = source;
        }
      }
      in.values.push_back(std::move(gathered));
    }
    in.group_keys = in.keys;
    std::sort(in.group_keys.begin(), in.group_keys.end());
    in.group_keys.erase(
        std::unique(in.group_keys.begin(), in.group_keys.end()),
        in.group_keys.end());
    MEMAGG_CHECK(in.group_keys.size() == oracle_.group_keys.size());
    in.estimate =
        memagg::EstimateGroupCardinality(in.keys.data(), in.keys.size());
    return in;
  }

  /// Replays the query-independent layer calls under one root span.
  void ReplayWorkload(const ReplayInputs& in, uint64_t query_id,
                      TraceRecorder& trace, SampleSet& layers) {
    const int64_t root = trace.Begin("replay.workload", query_id);

    int64_t span = trace.Begin("data.encode", query_id, root);
    const auto codec =
        memagg::PackedKeyCodec::TryBuild(table_, query_.group_by);
    const std::vector<memagg::EncodedKey> keys =
        query_.has_filter ? codec->EncodeRows(in.filtered_rows)
                          : codec->EncodeAll();
    layers.Add("data.encode_ms", "ms", trace.End(span));
    trace.AddArg(span, "rows", static_cast<double>(keys.size()));

    span = trace.Begin("core.advisor.estimate", query_id, root);
    const size_t estimate =
        memagg::EstimateGroupCardinality(keys.data(), keys.size());
    layers.Add("core.advisor.estimate_ms", "ms", trace.End(span));
    const double ratio = static_cast<double>(estimate) /
                         static_cast<double>(in.group_keys.size());
    layers.Add("core.advisor.estimate_ratio", "ratio", ratio);
    trace.AddArg(span, "estimate", static_cast<double>(estimate));
    trace.AddArg(span, "true_groups",
                 static_cast<double>(in.group_keys.size()));

    span = trace.Begin("data.decode", query_id, root);
    const std::vector<memagg::DecodedKey> decoded =
        memagg::DecodeKeyColumn(*codec, in.group_keys);
    layers.Add("data.decode_ms", "ms", trace.End(span));
    trace.AddArg(span, "rows", static_cast<double>(decoded.size()));

    span = trace.Begin("exec.parallel_for", query_id, root);
    memagg::Executor executor{memagg::ExecutionContext(std::min(4, nproc_))};
    executor.ParallelFor(keys.size(), [](const memagg::Morsel&) {});
    layers.Add("exec.parallel_for_us", "us", trace.End(span) * 1e3);
    trace.End(root);
  }

  /// Replays construction, build, teardown and construction at the true
  /// group count for every aggregate of plan `p`, summed over aggregates.
  void ReplayPlan(size_t p, const ReplayInputs& in, uint64_t query_id,
                  int64_t parent, TraceRecorder& trace, SampleSet& layers) {
    const Plan& plan = plans_[p];
    const std::string& label = facts_[p].resolved_label;
    const int threads = ThreadsFor(plan);
    const size_t rows = in.keys.size();
    const size_t groups = in.group_keys.size();
    const int64_t root = trace.Begin("replay." + plan.name, query_id, parent);
    double construct_ms = 0, at_groups_ms = 0, teardown_ms = 0;
    for (size_t a = 0; a < query_.aggregates.size(); ++a) {
      const memagg::AggregateFunction function = query_.aggregates[a].function;
      const uint64_t* values =
          in.values[a].empty() ? nullptr : in.values[a].data();
      {
        memagg::StatsRegistry registry(threads);
        auto arenas = std::make_unique<memagg::WorkerArenas>(threads);
        memagg::ExecutionContext ctx(threads);
        ctx.stats = &registry;
        ctx.arenas = arenas.get();
        int64_t span = trace.Begin("core.engine.construct", query_id, root);
        auto aggregator =
            memagg::MakeVectorAggregator(label, function, rows, ctx);
        aggregator->ReserveGroups(in.estimate);
        construct_ms += trace.End(span);

        span = trace.Begin("core.engine.build_iterate", query_id, root);
        aggregator->Build(in.keys.data(), values, rows);
        const size_t out = aggregator->Iterate().size();
        trace.End(span);
        MEMAGG_CHECK(out == groups &&
                     "replayed build lost or invented groups");

        span = trace.Begin("core.engine.teardown", query_id, root);
        aggregator.reset();
        arenas.reset();
        teardown_ms += trace.End(span);
      }
      {
        memagg::StatsRegistry registry(threads);
        memagg::WorkerArenas arenas(threads);
        memagg::ExecutionContext ctx(threads);
        ctx.stats = &registry;
        ctx.arenas = &arenas;
        const int64_t span =
            trace.Begin("core.engine.construct_at_groups", query_id, root);
        auto aggregator =
            memagg::MakeVectorAggregator(label, function, groups, ctx);
        aggregator->ReserveGroups(groups);
        at_groups_ms += trace.End(span);
      }
    }
    trace.End(root);
    layers.Add("core.engine.construct_ms." + plan.name, "ms", construct_ms);
    layers.Add("core.engine.construct_at_groups_ms." + plan.name, "ms",
               at_groups_ms);
    layers.Add("core.engine.teardown_ms." + plan.name, "ms", teardown_ms);
  }

  /// Per-layer samples read from the program's own QueryStats of one query.
  void AddStatsLayers(const Plan& plan, double wall_ms,
                      const memagg::QueryStats& stats, SampleSet& layers) {
    const std::string& name = plan.name;
    const double build = stats.PhaseMillis(StatPhase::kBuild);
    const double iterate = stats.PhaseMillis(StatPhase::kIterate);
    layers.Add("core.table_exec.outside_ms." + name, "ms",
               OutsideMillis(wall_ms, stats));
    layers.Add("core.engine.build_ms." + name, "ms", build);
    layers.Add("core.engine.iterate_ms." + name, "ms", iterate);
    const uint64_t arena_bytes = stats.Get(StatCounter::kArenaBytesReserved);
    layers.Add("mem.arena_reserved_mb." + name, "MB",
               static_cast<double>(arena_bytes) / kBytesPerMB);
    if (name == "hash_plocal_t4" || name == "adaptive_t4") {
      layers.Add("core.engine.merge_ms." + name, "ms",
                 stats.PhaseMillis(StatPhase::kMerge));
    }
    if (name == "spreadsort_t1" || name == "sort_bi_t4") {
      layers.Add("sort.sort_ms." + name, "ms",
                 stats.PhaseMillis(StatPhase::kSort));
      layers.Add("sort.rows_sorted." + name, "count",
                 static_cast<double>(stats.Get(StatCounter::kRowsSorted)));
    }
    if (name == "hash_lp_t1" || name == "hash_plocal_t4") {
      const double entries =
          static_cast<double>(stats.Get(StatCounter::kHashEntries));
      layers.Add("hash.probe_avg." + name, "ratio",
                 static_cast<double>(stats.Get(StatCounter::kProbeTotal)) /
                     std::max(entries, 1.0));
      layers.Add("hash.rehashes." + name, "count",
                 static_cast<double>(stats.Get(StatCounter::kRehashes)));
    }
    if (name == "art_t1") {
      layers.Add("tree.nodes.art_t1", "count",
                 static_cast<double>(stats.Get(StatCounter::kTreeNodes)));
      layers.Add("tree.height.art_t1", "count",
                 static_cast<double>(stats.Get(StatCounter::kTreeHeight)));
    }
    if (name == "adaptive_t4") {
      const uint64_t switches = stats.Get(StatCounter::kStrategySwitches);
      layers.Add("core.adaptive.switches", "count",
                 static_cast<double>(switches));
      layers.Add("core.adaptive.rows_migrated", "count",
                 static_cast<double>(stats.Get(StatCounter::kRowsMigrated)));
    }
    if (plan.threads > 1) {
      layers.Add("exec.morsels." + name, "count",
                 static_cast<double>(stats.Get(StatCounter::kMorselsClaimed)));
      layers.Add("exec.workers_used." + name, "count",
                 static_cast<double>(stats.Get(StatCounter::kWorkersUsed)));
    }
  }

  std::vector<Metric> MeasureTraced() {
    const ReplayInputs in = PrepareReplay();
    TraceRecorder trace;
    SampleSet layers;
    std::vector<std::vector<double>> plain(plans_.size());
    std::vector<std::vector<double>> traced(plans_.size());
    uint64_t query_id = 0;
    size_t rounds = 0;
    const Clock::time_point start = Clock::now();
    while (rounds < kMinTracedRounds ||
           MillisBetween(start, Clock::now()) / 1e3 < args_.seconds) {
      ReplayWorkload(in, ++query_id, trace, layers);
      for (size_t p = 0; p < plans_.size(); ++p) {
        const Plan& plan = plans_[p];
        rotation_.Place(ThreadsFor(plan), rounds);
        const Clock::time_point t0 = Clock::now();
        const memagg::TableQueryResult plain_result = Execute(plan);
        plain[p].push_back(MillisBetween(t0, Clock::now()));
        Check(p, plain_result);

        ++query_id;
        std::optional<double> rss_before;
        if (rss_resettable_) {
          // Freed memory is kept in the process (see main), so a query
          // reusing it would not raise VmHWM. Hand it back first, so that
          // the growth counts every page the query touches.
          malloc_trim(0);
          ResetPeakRss();
          rss_before = ProcStatusBytes("VmRSS:");
        }
        const int64_t span = trace.Begin("query." + plan.name, query_id);
        const memagg::TableQueryResult result = Execute(plan);
        const double wall_ms = trace.End(span);
        traced[p].push_back(wall_ms);
        if (rss_before.has_value()) {
          const std::optional<double> hwm = ProcStatusBytes("VmHWM:");
          if (hwm.has_value()) {
            layers.Add("mem.rss_growth_mb." + plan.name, "MB",
                       (*hwm - *rss_before) / kBytesPerMB);
          }
        }
        trace.AddArg(span, "build_ms",
                     result.stats.PhaseMillis(StatPhase::kBuild));
        trace.AddArg(span, "iterate_ms",
                     result.stats.PhaseMillis(StatPhase::kIterate));
        trace.AddArg(span, "outside_ms", OutsideMillis(wall_ms, result.stats));
        trace.AddArg(span, "rows_scanned",
                     static_cast<double>(result.rows_scanned));
        trace.AddArg(span, "groups_out",
                     static_cast<double>(result.group_keys.size()));
        Check(p, result);
        AddStatsLayers(plan, wall_ms, result.stats, layers);
        ReplayPlan(p, in, query_id, span, trace, layers);
      }
      ++rounds;
      Progress();
    }

    std::vector<Metric> metrics;
    for (const SampleSet::Entry& entry : layers.entries()) {
      metrics.push_back({entry.name, Median(entry.samples), entry.unit});
    }
    std::vector<double> overhead;
    for (size_t p = 0; p < plans_.size(); ++p) {
      facts_[p].samples = traced[p].size();
      const double pct = (Median(traced[p]) / Median(plain[p]) - 1) * 100;
      overhead.push_back(pct);
      std::printf("%-16s rounds=%zu plain p50=%.3f ms traced p50=%.3f ms "
                  "overhead=%.2f%%\n",
                  plans_[p].name.c_str(), traced[p].size(), Median(plain[p]),
                  Median(traced[p]), pct);
    }
    metrics.push_back({"trace.overhead_pct", Median(overhead), "%"});
    if (!args_.trace_out.empty()) {
      if (!trace.WriteChromeTrace(args_.trace_out)) {
        std::fprintf(stderr, "aggbench: cannot write %s\n",
                     args_.trace_out.c_str());
        return {};
      }
      std::printf("trace: %zu spans written to %s\n", trace.spans().size(),
                  args_.trace_out.c_str());
    }
    return metrics;
  }

  void PrintProvenance() const {
    for (size_t p = 0; p < plans_.size(); ++p) {
      const PlanFacts& facts = facts_[p];
      const char* adaptive = "none";
      if (facts.adaptive_strategy > 0) {
        adaptive = memagg::AggStrategyName(
            static_cast<memagg::AggStrategy>(facts.adaptive_strategy - 1));
      }
      std::printf(
          "provenance {\"workload\": \"%s\", \"plan\": \"%s\", \"label\": "
          "\"%s\", \"resolved_label\": \"%s\", \"threads\": %d, \"nproc\": "
          "%d, \"seed\": %llu, \"adaptive_strategy\": %llu, "
          "\"adaptive_strategy_name\": \"%s\", \"key_width_bits\": %d, "
          "\"rows_scanned\": %zu, \"groups_out\": %zu, \"true_groups\": %zu, "
          "\"hash_entries\": %llu, \"samples\": %zu}\n",
          args_.workload.c_str(), plans_[p].name.c_str(),
          plans_[p].label.c_str(), facts.resolved_label.c_str(), facts.threads,
          nproc_, static_cast<unsigned long long>(args_.seed),
          static_cast<unsigned long long>(facts.adaptive_strategy), adaptive,
          facts.key_width_bits, facts.rows_scanned, facts.groups_out,
          oracle_.group_keys.size(),
          static_cast<unsigned long long>(facts.hash_entries), facts.samples);
    }
  }

  const Args args_;
  const memagg::TableQuery query_;
  const std::vector<Plan>& plans_ = Plans();
  const int nproc_;
  memagg::Table table_;
  OracleResult oracle_;
  std::vector<double> setup_seconds_;
  std::vector<PlanFacts> facts_;
  CpuRotation rotation_;
  bool rss_resettable_ = false;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

}  // namespace
}  // namespace aggbench

int main(int argc, char** argv) {
  aggbench::Args args;
  if (!aggbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: aggbench --workload <tpch_q1|highcard_count|"
                 "skew_median> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file.json>]\n");
    return 2;
  }
  // Freed memory stays in the process, as in a long-running query service.
  // glibc's own thresholds drift toward these values as a process frees
  // large blocks, but each run would get there by a different path and keep
  // handing memory back to the kernel on the way; the next query then pays
  // page faults whose cost on a shared host varies from run to run. Blocks
  // above 32 MiB, the largest threshold glibc accepts, are still mapped and
  // unmapped per query.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  aggbench::Bench bench(args);
  return bench.Run();
}
