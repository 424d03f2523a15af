#include "oracle.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "core/aggregate.h"
#include "util/macros.h"

namespace aggbench {
namespace {

using memagg::AggregateFunction;
using memagg::Column;
using memagg::ColumnType;
using memagg::DecodedKey;
using memagg::KeyFieldValue;

/// Largest integer every double represents exactly.
constexpr unsigned __int128 kExactDoubleMax = uint64_t{1} << 53;

KeyFieldValue FieldAt(const Column& column, size_t row) {
  KeyFieldValue value;
  value.type = column.type();
  switch (column.type()) {
    case ColumnType::kU64:
      value.u64 = column.u64()[row];
      break;
    case ColumnType::kI64:
      value.i64 = column.i64()[row];
      break;
    case ColumnType::kString:
      value.text = column.dict().String(column.codes()[row]);
      break;
    case ColumnType::kF64:
      MEMAGG_CHECK(false && "the oracle does not group by f64 columns");
  }
  return value;
}

/// Median by MedianAggregate's definition: the middle value for odd counts,
/// the mean of the two middle values for even counts.
double MedianOf(std::vector<uint64_t>& values) {
  MEMAGG_CHECK(!values.empty());
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const uint64_t upper = values[mid];
  if (values.size() % 2 == 1) return static_cast<double>(upper);
  const uint64_t lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (static_cast<double>(lower) + static_cast<double>(upper)) / 2.0;
}

/// Per-group accumulator of one aggregate.
struct Accumulator {
  unsigned __int128 sum = 0;
  uint64_t count = 0;
  uint64_t min = UINT64_MAX;
  uint64_t max = 0;
  std::vector<uint64_t> values;  // MEDIAN only.
};

double Finalize(AggregateFunction function, Accumulator& acc) {
  switch (function) {
    case AggregateFunction::kCount:
      return static_cast<double>(acc.count);
    case AggregateFunction::kSum:
      MEMAGG_CHECK(acc.sum <= kExactDoubleMax &&
                   "oracle SUM exceeds the exact double range");
      return static_cast<double>(static_cast<uint64_t>(acc.sum));
    case AggregateFunction::kMin:
      return static_cast<double>(acc.min);
    case AggregateFunction::kMax:
      return static_cast<double>(acc.max);
    case AggregateFunction::kMedian:
      return MedianOf(acc.values);
    default:
      MEMAGG_CHECK(false && "the oracle supports COUNT/SUM/MIN/MAX/MEDIAN");
  }
  return 0;
}

std::string KeyText(const DecodedKey& key) {
  std::string text;
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) text += '|';
    text += key[i].ToString();
  }
  return text;
}

}  // namespace

OracleResult ComputeOracle(const memagg::Table& table,
                           const memagg::TableQuery& query) {
  MEMAGG_CHECK(!query.has_key_range && "the oracle has no key-range support");
  std::vector<const Column*> key_columns;
  for (const std::string& name : query.group_by) {
    key_columns.push_back(&table.ColumnNamed(name));
  }
  const size_t num_aggs = query.aggregates.size();
  std::vector<const std::vector<uint64_t>*> measures(num_aggs, nullptr);
  for (size_t a = 0; a < num_aggs; ++a) {
    if (memagg::NeedsValueColumn(query.aggregates[a].function)) {
      measures[a] = &table.ColumnNamed(query.aggregates[a].column).u64();
    }
  }
  const std::vector<uint64_t>* filter =
      query.has_filter ? &table.ColumnNamed(query.filter_column).u64()
                       : nullptr;

  std::map<DecodedKey, std::vector<Accumulator>> groups;
  DecodedKey key(key_columns.size());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (filter != nullptr && (*filter)[row] > query.filter_max) continue;
    for (size_t f = 0; f < key_columns.size(); ++f) {
      key[f] = FieldAt(*key_columns[f], row);
    }
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups.emplace(key, std::vector<Accumulator>(num_aggs)).first;
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      Accumulator& acc = it->second[a];
      ++acc.count;
      if (measures[a] == nullptr) continue;
      const uint64_t v = (*measures[a])[row];
      acc.sum += v;
      acc.min = std::min(acc.min, v);
      acc.max = std::max(acc.max, v);
      if (query.aggregates[a].function == AggregateFunction::kMedian) {
        acc.values.push_back(v);
      }
    }
  }

  OracleResult result;
  result.columns.assign(num_aggs, {});
  result.group_keys.reserve(groups.size());
  for (auto& [group_key, accs] : groups) {
    result.group_keys.push_back(group_key);
    for (size_t a = 0; a < num_aggs; ++a) {
      result.columns[a].push_back(
          Finalize(query.aggregates[a].function, accs[a]));
    }
  }
  return result;
}

size_t CountMismatches(const OracleResult& expected,
                       const memagg::TableQueryResult& actual,
                       std::string* first_error) {
  size_t mismatches = 0;
  auto note = [&](const std::string& what) {
    if (mismatches++ == 0 && first_error != nullptr) *first_error = what;
  };
  if (actual.aggregate_columns.size() != expected.columns.size()) {
    note("aggregate count differs");
    return mismatches;
  }
  const size_t rows = std::min(expected.group_keys.size(),
                               actual.group_keys.size());
  for (size_t g = 0; g < rows; ++g) {
    bool same = actual.group_keys[g] == expected.group_keys[g];
    for (size_t a = 0; same && a < expected.columns.size(); ++a) {
      // Bitwise-exact: both sides hold integers below 2^53 or the same
      // half-integer median, so any difference is a wrong answer.
      same = actual.aggregate_columns[a].size() == actual.group_keys.size() &&
             actual.aggregate_columns[a][g] == expected.columns[a][g];
    }
    if (!same) {
      note("row " + std::to_string(g) + " differs (expected key " +
           KeyText(expected.group_keys[g]) + ", got " +
           KeyText(actual.group_keys[g]) + ")");
    }
  }
  const size_t extra = std::max(expected.group_keys.size(),
                                actual.group_keys.size()) - rows;
  if (extra > 0) {
    note(std::to_string(expected.group_keys.size()) + " rows expected, " +
         std::to_string(actual.group_keys.size()) + " returned");
    mismatches += extra - 1;
  }
  return mismatches;
}

}  // namespace aggbench
