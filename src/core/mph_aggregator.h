// MphVectorAggregator (paper Section 3.2): the vector-aggregation operator
// built on hash/ordered_mph.h's order-preserving minimal perfect hash. Split
// from that header so hash/ stays below the operator layer in the include
// DAG (tools/check_layering.py).

#ifndef MEMAGG_CORE_MPH_AGGREGATOR_H_
#define MEMAGG_CORE_MPH_AGGREGATOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/aggregate.h"
#include "core/concepts.h"
#include "core/operator.h"
#include "core/result.h"
#include "hash/ordered_mph.h"
#include "obs/query_stats.h"
#include "util/encoded_key.h"
#include "util/macros.h"

namespace memagg {

/// Vector aggregation via an order-preserving MPHF: the §3.2 design the
/// paper dismisses, implemented so bench_ablation can quantify the cost.
template <AggregatePolicy Aggregate>
class MphVectorAggregator final : public VectorAggregator {
 public:
  using State = typename Aggregate::State;

  explicit MphVectorAggregator(size_t /*expected_size*/ = 0,
                               Aggregate agg = {})
      : agg_(std::move(agg)) {}

  void Build(const uint64_t* keys, const uint64_t* values,
             size_t n) override {
    // The MPHF needs the complete key set, so records are buffered across
    // Build calls and the function + dense states are rebuilt from scratch
    // each time (the two-pass cost the paper anticipates).
    buffered_keys_.insert(buffered_keys_.end(), keys, keys + n);
    if constexpr (Aggregate::kNeedsValues) {
      MEMAGG_CHECK(values != nullptr || n == 0);
      buffered_values_.insert(buffered_values_.end(), values, values + n);
    }
    mph_.Build(buffered_keys_.data(), buffered_keys_.size());
    states_.clear();
    states_.resize(mph_.size());
    for (size_t i = 0; i < buffered_keys_.size(); ++i) {
      const size_t slot = mph_.Slot(buffered_keys_[i]);
      MEMAGG_DCHECK(slot < states_.size());
      agg_.Update(states_[slot],
                  Aggregate::kNeedsValues ? buffered_values_[i] : 0);
    }
  }

  VectorResult Iterate() override {
    VectorResult result;
    result.reserve(states_.size());
    for (size_t slot = 0; slot < states_.size(); ++slot) {
      EmitGroup(agg_, result, mph_.KeyAt(slot), states_[slot]);
    }
    return result;
  }

  bool SupportsRange() const override { return true; }

  VectorResult IterateRange(uint64_t lo, uint64_t hi) override {
    VectorResult result;
    for (size_t slot = 0; slot < states_.size(); ++slot) {
      const EncodedKey key = mph_.KeyAt(slot);
      if (key < lo) continue;
      if (key > hi) break;  // Slots are key-ordered.
      EmitGroup(agg_, result, key, states_[slot]);
    }
    return result;
  }

  size_t NumGroups() const override { return states_.size(); }

  size_t DataStructureBytes() const override {
    return mph_.MemoryBytes() + states_.capacity() * sizeof(State);
  }

  void CollectStats(QueryStats* stats) const override {
    stats->Add(StatCounter::kHashEntries, states_.size());
  }

 private:
  [[no_unique_address]] Aggregate agg_;
  OrderedMinimalPerfectHash mph_;
  std::vector<State> states_;
  std::vector<uint64_t> buffered_keys_;
  std::vector<uint64_t> buffered_values_;
};

}  // namespace memagg

#endif  // MEMAGG_CORE_MPH_AGGREGATOR_H_
