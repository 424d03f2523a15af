// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files around calls into the
// program's public functions (ExecuteTableQuery and the replayed layer
// calls); nothing inside the program is instrumented. Each span has a name,
// start and end on one steady clock, the span that caused it, a query id
// shared by all spans of one query, and numeric arguments (counts recorded
// at the same boundary). Spans stay in memory until WriteChromeTrace writes
// them once at the end, as Chrome trace-event JSON that the Perfetto UI and
// chrome://tracing open directly.

#ifndef AGGBENCH_TRACE_H_
#define AGGBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace aggbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< Since the recorder's origin.
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< Index of the causing span; -1 for a root.
  uint64_t query_id = 0;
  std::vector<std::pair<std::string, double>> args;

  double Millis() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

class TraceRecorder {
 public:
  TraceRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its index (the id children pass as parent).
  int64_t Begin(std::string name, uint64_t query_id, int64_t parent = -1) {
    Span span;
    span.name = std::move(name);
    span.query_id = query_id;
    span.parent = parent;
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Closes span `id` and returns its duration in milliseconds.
  double End(int64_t id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = Now();
    return span.Millis();
  }

  void AddArg(int64_t id, std::string key, double value) {
    spans_[static_cast<size_t>(id)].args.emplace_back(std::move(key), value);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps). All spans share one track: the benchmark is a
  /// single client, so its spans nest in time. Returns false if the file
  /// cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace aggbench

#endif  // AGGBENCH_TRACE_H_
