// Aggregate-function framework (paper Section 2).
//
// Functions are classified into the three categories of Gray et al.'s data
// cube taxonomy:
//   * distributive (Count, Sum, Min, Max) — computable over partitions and
//     merged, so operators may aggregate eagerly during the build phase;
//   * algebraic (Average) — a fixed-size combination of distributive
//     aggregates (Sum + Count);
//   * holistic (Median, Mode) — need every value of a group together, so
//     hash/tree operators must buffer all values per group and sort-based
//     operators aggregate over contiguous runs.
//
// Each aggregate is a policy with a per-group State, an Update step applied
// during the build phase, and a Finalize step applied during the iterate
// phase. The aggregation operators are templated on these policies and hold
// one policy object: the single-function policies below are empty structs,
// while RowAggregate carries the layout of a whole query's aggregates, so
// one build computes them all (one state row per group).

#ifndef MEMAGG_CORE_AGGREGATE_H_
#define MEMAGG_CORE_AGGREGATE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/concepts.h"
#include "core/result.h"
#include "util/encoded_key.h"
#include "util/macros.h"

namespace memagg {

/// Gray et al.'s aggregate-function taxonomy.
enum class FunctionCategory { kDistributive, kAlgebraic, kHolistic };

/// The aggregate functions exercised by the Table 1 queries, plus the other
/// common distributive functions.
enum class AggregateFunction { kCount, kSum, kMin, kMax, kAverage, kMedian,
                               kMode };

/// Category of `fn` per the taxonomy above.
inline FunctionCategory CategoryOf(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kCount:
    case AggregateFunction::kSum:
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return FunctionCategory::kDistributive;
    case AggregateFunction::kAverage:
      return FunctionCategory::kAlgebraic;
    case AggregateFunction::kMedian:
    case AggregateFunction::kMode:
      return FunctionCategory::kHolistic;
  }
  MEMAGG_CHECK(false);
  return FunctionCategory::kDistributive;
}

/// True if `fn` aggregates a measure column (COUNT(*) does not).
inline bool NeedsValueColumn(AggregateFunction fn) {
  return fn != AggregateFunction::kCount;
}

inline std::string AggregateFunctionName(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kCount:
      return "COUNT";
    case AggregateFunction::kSum:
      return "SUM";
    case AggregateFunction::kMin:
      return "MIN";
    case AggregateFunction::kMax:
      return "MAX";
    case AggregateFunction::kAverage:
      return "AVG";
    case AggregateFunction::kMedian:
      return "MEDIAN";
    case AggregateFunction::kMode:
      return "MODE";
  }
  MEMAGG_CHECK(false);
  return "";
}

// --- Aggregate policies -----------------------------------------------------

/// COUNT(*): distributive, ignores the value column.
struct CountAggregate {
  using State = uint64_t;
  static constexpr AggregateFunction kFunction = AggregateFunction::kCount;
  static constexpr bool kNeedsValues = false;
  static void Update(State& state, uint64_t /*value*/) { ++state; }
  static void Merge(State& into, const State& from) { into += from; }
  static double Finalize(const State& state) {
    return static_cast<double>(state);
  }
};

/// SUM(value): distributive.
struct SumAggregate {
  using State = uint64_t;
  static constexpr AggregateFunction kFunction = AggregateFunction::kSum;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) { state += value; }
  static void Merge(State& into, const State& from) { into += from; }
  static double Finalize(const State& state) {
    return static_cast<double>(state);
  }
};

/// MIN(value): distributive.
struct MinAggregate {
  struct State {
    uint64_t min = ~0ULL;
  };
  static constexpr AggregateFunction kFunction = AggregateFunction::kMin;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) {
    state.min = std::min(state.min, value);
  }
  static void Merge(State& into, const State& from) {
    into.min = std::min(into.min, from.min);
  }
  static double Finalize(const State& state) {
    return static_cast<double>(state.min);
  }
};

/// MAX(value): distributive.
struct MaxAggregate {
  struct State {
    uint64_t max = 0;
  };
  static constexpr AggregateFunction kFunction = AggregateFunction::kMax;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) {
    state.max = std::max(state.max, value);
  }
  static void Merge(State& into, const State& from) {
    into.max = std::max(into.max, from.max);
  }
  static double Finalize(const State& state) {
    return static_cast<double>(state.max);
  }
};

/// AVG(value): algebraic — the composition of SUM and COUNT (paper Section 2).
struct AverageAggregate {
  struct State {
    uint64_t sum = 0;
    uint64_t count = 0;
  };
  static constexpr AggregateFunction kFunction = AggregateFunction::kAverage;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) {
    state.sum += value;
    ++state.count;
  }
  static void Merge(State& into, const State& from) {
    into.sum += from.sum;
    into.count += from.count;
  }
  static double Finalize(const State& state) {
    return state.count == 0
               ? 0.0
               : static_cast<double>(state.sum) /
                     static_cast<double>(state.count);
  }
};

/// Median of a mutable run of values: the canonical even/odd definition
/// (mean of the two middle values for even counts). Reorders `values`.
inline double MedianOfRun(uint64_t* values, size_t count) {
  MEMAGG_CHECK(count > 0);
  const size_t mid = count / 2;
  std::nth_element(values, values + mid, values + count);
  const uint64_t upper = values[mid];
  if (count % 2 == 1) return static_cast<double>(upper);
  const uint64_t lower = *std::max_element(values, values + mid);
  return (static_cast<double>(lower) + static_cast<double>(upper)) / 2.0;
}

/// MEDIAN(value): holistic — hash/tree operators must buffer every value of
/// the group; sort operators evaluate it over the group's contiguous run.
struct MedianAggregate {
  using State = std::vector<uint64_t>;
  static constexpr AggregateFunction kFunction = AggregateFunction::kMedian;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) { state.push_back(value); }
  static void Merge(State& into, State& from) {
    into.insert(into.end(), from.begin(), from.end());
  }
  static double Finalize(State& state) {
    return MedianOfRun(state.data(), state.size());
  }
  /// Sort-based fast path: aggregate directly over the group's run.
  static double FinalizeRun(uint64_t* values, size_t count) {
    return MedianOfRun(values, count);
  }
};

/// P-th percentile of a mutable run of values (nearest-rank definition);
/// P = 50 matches MedianOfRun for odd counts. Reorders `values`.
inline double PercentileOfRun(uint64_t* values, size_t count, int percent) {
  MEMAGG_CHECK(count > 0);
  MEMAGG_CHECK(percent >= 0 && percent <= 100);
  size_t rank = static_cast<size_t>(
      (static_cast<unsigned __int128>(count) * percent + 99) / 100);
  if (rank > 0) --rank;  // Nearest-rank is 1-based; clamp to [0, count).
  std::nth_element(values, values + rank, values + count);
  return static_cast<double>(values[rank]);
}

/// QUANTILE(value, P): holistic, nearest-rank P-th percentile. A
/// compile-time-parameterized generalization of MEDIAN (the paper lists
/// Quantile with Median and Rank as the canonical holistic functions,
/// Section 2). Use directly with the operator templates, e.g.
/// HashVectorAggregator<LinearProbingMap, QuantileAggregate<90>>.
template <int P>
struct QuantileAggregate {
  static_assert(P >= 0 && P <= 100, "percentile must be within [0, 100]");
  using State = std::vector<uint64_t>;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) { state.push_back(value); }
  static void Merge(State& into, State& from) {
    into.insert(into.end(), from.begin(), from.end());
  }
  static double Finalize(State& state) {
    return PercentileOfRun(state.data(), state.size(), P);
  }
  static double FinalizeRun(uint64_t* values, size_t count) {
    return PercentileOfRun(values, count, P);
  }
};

/// MODE(value): holistic — most frequent value; ties break to the smallest.
struct ModeAggregate {
  using State = std::vector<uint64_t>;
  static constexpr AggregateFunction kFunction = AggregateFunction::kMode;
  static constexpr bool kNeedsValues = true;
  static void Update(State& state, uint64_t value) { state.push_back(value); }
  static void Merge(State& into, State& from) {
    into.insert(into.end(), from.begin(), from.end());
  }
  static double Finalize(State& state) {
    return FinalizeRun(state.data(), state.size());
  }
  static double FinalizeRun(uint64_t* values, size_t count) {
    MEMAGG_CHECK(count > 0);
    std::sort(values, values + count);
    uint64_t best = values[0];
    size_t best_run = 1;
    size_t run = 1;
    for (size_t i = 1; i < count; ++i) {
      run = values[i] == values[i - 1] ? run + 1 : 1;
      if (run > best_run) {
        best_run = run;
        best = values[i];
      }
    }
    return static_cast<double>(best);
  }
};

// --- Row aggregate ----------------------------------------------------------

/// The aggregates of one query compiled into a single per-group state row:
/// slot 0 counts the group's rows, then one slot per distinct SUM/AVG
/// measure (AVG divides it by the count slot), then one per distinct MAX or
/// MIN measure (MIN stored complemented, so both fold with max and start at
/// 0).
/// MEDIAN and MODE keep the group's input row numbers and read their values
/// at finalize. The operators feed a row number h per record as its
/// "value", and each measure is read in place at measure[h].
class AggregateRow {
 public:
  /// Appends the output AGG(measure); `measure` is nullptr for COUNT.
  /// Outputs naming the same measure pointer share its slot.
  void Add(AggregateFunction function, const uint64_t* measure) {
    Output out{function, measure, 0};
    switch (function) {
      case AggregateFunction::kCount:
        break;
      case AggregateFunction::kSum:
      case AggregateFunction::kAverage:
        out.index = SlotFor(&sums_, measure);
        break;
      case AggregateFunction::kMin:
        out.index = SlotFor(&mins_, measure);
        break;
      case AggregateFunction::kMax:
        out.index = SlotFor(&maxes_, measure);
        break;
      case AggregateFunction::kMedian:
      case AggregateFunction::kMode:
        holistic_ = true;
        break;
    }
    outputs_.push_back(out);
    sources_.clear();
    flips_.clear();
    for (const uint64_t* m : sums_) AddSource(m, 0);
    for (const uint64_t* m : maxes_) AddSource(m, 0);
    for (const uint64_t* m : mins_) AddSource(m, ~0ULL);
  }

  size_t num_outputs() const { return outputs_.size(); }
  AggregateFunction function(size_t output) const {
    return outputs_[output].function;
  }
  const uint64_t* measure(size_t output) const {
    return outputs_[output].measure;
  }
  /// Distinct SUM/AVG measures: slots 1 .. num_sums() fold by addition like
  /// the count slot; the remaining slots fold by max.
  size_t num_sums() const { return sums_.size(); }
  /// Count slot plus one slot per distinct SUM/AVG, MAX and MIN measure.
  size_t num_slots() const { return 1 + sources_.size(); }
  /// True if some output is MEDIAN or MODE (states keep row numbers).
  bool holistic() const { return holistic_; }

  /// Folds input row `row` into `slots`.
  void Update(uint64_t* slots, uint64_t row) const {
    ++slots[0];
    const size_t sums = sums_.size();
    for (size_t i = 0; i < sums; ++i) slots[1 + i] += sources_[i][row];
    for (size_t i = sums; i < sources_.size(); ++i) {
      slots[1 + i] = std::max(slots[1 + i], sources_[i][row] ^ flips_[i]);
    }
  }

  void Merge(uint64_t* into, const uint64_t* from) const {
    const size_t additive = 1 + num_sums();
    for (size_t i = 0; i < additive; ++i) into[i] += from[i];
    for (size_t i = additive; i < num_slots(); ++i) {
      into[i] = std::max(into[i], from[i]);
    }
  }

  /// Appends one entry per output, in Add order, for group `key`. `rows`
  /// holds the group's row numbers (holistic rows only; reordered).
  void Emit(VectorResult& out, EncodedKey key, const uint64_t* slots,
            std::vector<uint64_t>& rows) const {
    std::vector<uint64_t> values;
    for (const Output& o : outputs_) {
      double value = 0.0;
      switch (o.function) {
        case AggregateFunction::kCount:
          value = static_cast<double>(slots[0]);
          break;
        case AggregateFunction::kSum:
          value = static_cast<double>(slots[1 + o.index]);
          break;
        case AggregateFunction::kAverage:
          value = static_cast<double>(slots[1 + o.index]) /
                  static_cast<double>(slots[0]);
          break;
        case AggregateFunction::kMax:
          value = static_cast<double>(slots[1 + sums_.size() + o.index]);
          break;
        case AggregateFunction::kMin:
          value = static_cast<double>(
              ~slots[1 + sums_.size() + maxes_.size() + o.index]);
          break;
        case AggregateFunction::kMedian:
        case AggregateFunction::kMode:
          values.resize(rows.size());
          for (size_t i = 0; i < rows.size(); ++i) {
            values[i] = o.measure[rows[i]];
          }
          value = o.function == AggregateFunction::kMedian
                      ? MedianOfRun(values.data(), values.size())
                      : ModeAggregate::FinalizeRun(values.data(),
                                                   values.size());
          break;
      }
      out.push_back({key, value});
    }
  }

 private:
  struct Output {
    AggregateFunction function;
    const uint64_t* measure;
    uint32_t index;  ///< Position among the slots of its kind.
  };

  static uint32_t SlotFor(std::vector<const uint64_t*>* kind,
                          const uint64_t* measure) {
    for (size_t i = 0; i < kind->size(); ++i) {
      if ((*kind)[i] == measure) return static_cast<uint32_t>(i);
    }
    kind->push_back(measure);
    return static_cast<uint32_t>(kind->size() - 1);
  }

  void AddSource(const uint64_t* measure, uint64_t flip) {
    sources_.push_back(measure);
    flips_.push_back(flip);
  }

  bool holistic_ = false;
  std::vector<Output> outputs_;
  std::vector<const uint64_t*> sums_, maxes_, mins_;
  // Slot i + 1 reads sources_[i] (sums, then maxes, then mins) and folds
  // the value XOR flips_[i] (~0 complements a MIN measure).
  std::vector<const uint64_t*> sources_;
  std::vector<uint64_t> flips_;
};

/// Largest AggregateRow::num_slots() an operator can hold.
inline constexpr size_t kMaxRowSlots = 16;

/// The row policy: every operator family instantiated at it builds once per
/// query and updates all slots of the row on a single probe, insert or
/// sorted run. State holds `kSlots` slots (and, when `kHolistic`, the
/// group's row numbers). The policy object points at the query's
/// AggregateRow, which must outlive the operator. Iterate emits
/// row->num_outputs() consecutive entries per group.
template <size_t kSlots, bool kHolistic>
class RowAggregate {
 public:
  struct SlotState {
    uint64_t slots[kSlots] = {};
  };
  struct BufferState {
    uint64_t slots[kSlots] = {};
    std::vector<uint64_t> rows;
  };
  using State = std::conditional_t<kHolistic, BufferState, SlotState>;
  static constexpr bool kNeedsValues = true;

  RowAggregate() = default;
  explicit RowAggregate(const AggregateRow* row) : row_(row) {
    MEMAGG_CHECK(row->num_slots() <= kSlots && row->holistic() == kHolistic &&
                 "row layout does not fit this RowAggregate instantiation");
  }

  const AggregateRow& row() const { return *row_; }

  void Update(State& state, uint64_t row) const {
    row_->Update(state.slots, row);
    if constexpr (kHolistic) state.rows.push_back(row);
  }

  void Merge(State& into, State& from) const {
    row_->Merge(into.slots, from.slots);
    if constexpr (kHolistic) {
      into.rows.insert(into.rows.end(), from.rows.begin(), from.rows.end());
    }
  }

  void Emit(VectorResult& out, EncodedKey key, State& state) const {
    if constexpr (kHolistic) {
      row_->Emit(out, key, state.slots, state.rows);
    } else {
      std::vector<uint64_t> no_rows;
      row_->Emit(out, key, state.slots, no_rows);
    }
  }

 private:
  const AggregateRow* row_ = nullptr;
};

/// Appends group `key`'s output to `out`: one entry for the single-function
/// policies, one per output for a row policy.
template <AggregatePolicy Aggregate>
void EmitGroup(const Aggregate& agg, VectorResult& out, EncodedKey key,
               typename Aggregate::State& state) {
  if constexpr (requires { agg.Emit(out, key, state); }) {
    agg.Emit(out, key, state);
  } else {
    out.push_back({key, agg.Finalize(state)});
  }
}

}  // namespace memagg

#endif  // MEMAGG_CORE_AGGREGATE_H_
