// astlint fixture: planted FIXED AGGREGATOR construction outside the
// sanctioned factories. Direct construction pins the operator choice at the
// call site; the engine routes it through MakeVectorAggregator or
// AdaptiveAggregator so strategy selection stays in one place.
//
// Expected: exactly two fixed-aggregator-construction violations, one per
// aggregate policy kind (single-function and row).

namespace std {
template <typename T>
struct unique_ptr {
  T* ptr;
};
template <typename T, typename... Args>
unique_ptr<T> make_unique(Args&&... args);
}  // namespace std

template <typename Agg>
struct SortedAggregator {
  Agg state;
};

struct CountAggregate {
  unsigned long count = 0;
};

auto MakeHardcodedOperator() {
  return std::make_unique<SortedAggregator<CountAggregate>>();  // planted
}

template <unsigned long kSlots, bool kHolistic>
struct RowAggregate {
  unsigned long slots[kSlots];
};

auto MakeHardcodedRowOperator() {
  return std::make_unique<SortedAggregator<RowAggregate<4, false>>>();  // planted
}
