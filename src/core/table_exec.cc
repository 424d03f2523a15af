#include "core/table_exec.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/advisor.h"
#include "core/engine.h"

namespace memagg {
namespace {

void ValidateQuery(const Table& table, const TableQuery& query) {
  MEMAGG_CHECK(!query.group_by.empty() &&
               "a TableQuery needs at least one group-by column");
  MEMAGG_CHECK(!query.aggregates.empty() &&
               "a TableQuery needs at least one aggregate");
  for (const AggregateSpec& spec : query.aggregates) {
    if (!NeedsValueColumn(spec.function)) continue;
    MEMAGG_CHECK(table.ColumnNamed(spec.column).type() == ColumnType::kU64 &&
                 "aggregate measure columns must be u64 fixed-point");
  }
  if (query.has_filter) {
    MEMAGG_CHECK(table.ColumnNamed(query.filter_column).type() ==
                     ColumnType::kU64 &&
                 "filter columns must be u64");
  }
}

std::vector<uint64_t> FilterRows(const Table& table, const TableQuery& query) {
  const std::vector<uint64_t>& values =
      table.ColumnNamed(query.filter_column).u64();
  std::vector<uint64_t> rows;
  rows.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] <= query.filter_max) rows.push_back(i);
  }
  return rows;
}

std::string ResolveLabel(const std::string& label, const TableQuery& query,
                         int key_width_bits, const ExecutionContext& exec) {
  if (label != "auto") return label;
  WorkloadProfile profile;
  profile.output = OutputFormat::kVector;
  profile.category = QueryCategory(query);
  profile.has_range_condition = query.has_key_range;
  profile.num_threads = exec.num_threads;
  profile.key_width_bits = key_width_bits;
  return RecommendAlgorithm(profile);
}

std::string DefaultName(const AggregateSpec& spec) {
  if (!spec.output_name.empty()) return spec.output_name;
  return AggregateFunctionName(spec.function) + "(" + spec.column + ")";
}

/// Runs every aggregate in one build over the shared encoded key column and
/// emits canonical group order. The operators read the measures in place,
/// through the selected rows.
template <TableKeyCodec Codec>
TableQueryResult RunAggregates(const Table& table, const TableQuery& query,
                               const Codec& codec,
                               const std::vector<EncodedKey>& keys,
                               const std::vector<uint64_t>* rows,
                               const std::string& label,
                               const ExecutionContext& exec) {
  TableQueryResult result;
  result.label = label;
  result.key_width_bits = codec.width_bits();
  result.order_preserving = codec.order_preserving();
  result.rows_scanned = keys.size();

  AggregateRow row;
  for (const AggregateSpec& spec : query.aggregates) {
    result.aggregate_names.push_back(DefaultName(spec));
    row.Add(spec.function, NeedsValueColumn(spec.function)
                               ? table.ColumnNamed(spec.column).u64().data()
                               : nullptr);
  }
  VectorQueryExecution run =
      ExecuteRowQuery(label, row, keys.data(),
                      rows == nullptr ? nullptr : rows->data(), keys.size(),
                      exec);
  result.stats = std::move(run.stats);

  // Canonical output order. An order-preserving codec makes encoded order
  // the natural multi-column order (trees and sorts already emit it);
  // otherwise (DictKeyCodec, unsorted dictionaries) sort by the decoded
  // tuples — distinct keys decode to distinct tuples, so the order is total
  // either way.
  const size_t outputs = row.num_outputs();
  const size_t groups = run.result.size() / outputs;
  const auto key_at = [&](size_t g) { return run.result[g * outputs].key; };
  std::vector<DecodedKey> decoded(groups);
  for (size_t g = 0; g < groups; ++g) decoded[g] = codec.Decode(key_at(g));
  std::vector<size_t> order(groups);
  std::iota(order.begin(), order.end(), size_t{0});
  if (!codec.order_preserving()) {
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return std::lexicographical_compare(decoded[a].begin(), decoded[a].end(),
                                          decoded[b].begin(),
                                          decoded[b].end());
    });
  } else if (!std::is_sorted(order.begin(), order.end(),
                             [&](size_t a, size_t b) {
                               return key_at(a) < key_at(b);
                             })) {
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return key_at(a) < key_at(b); });
  }
  // Either order puts copies of one encoded key next to each other.
  MEMAGG_CHECK(std::adjacent_find(order.begin(), order.end(),
                                  [&](size_t a, size_t b) {
                                    return key_at(a) == key_at(b);
                                  }) == order.end() &&
               "operator emitted a duplicate group key");
  result.group_keys.reserve(groups);
  result.aggregate_columns.assign(outputs, std::vector<double>(groups));
  for (size_t g = 0; g < groups; ++g) {
    result.group_keys.push_back(std::move(decoded[order[g]]));
    for (size_t a = 0; a < outputs; ++a) {
      result.aggregate_columns[a][g] =
          run.result[order[g] * outputs + a].value;
    }
  }
  return result;
}

}  // namespace

FunctionCategory QueryCategory(const TableQuery& query) {
  FunctionCategory category = FunctionCategory::kDistributive;
  for (const AggregateSpec& spec : query.aggregates) {
    const FunctionCategory c = CategoryOf(spec.function);
    if (c == FunctionCategory::kHolistic) return FunctionCategory::kHolistic;
    if (c == FunctionCategory::kAlgebraic) category = c;
  }
  return category;
}

TableQueryResult ExecuteTableQuery(const Table& table, const TableQuery& query,
                                   const std::string& label,
                                   ExecutionContext exec) {
  ValidateQuery(table, query);

  std::vector<uint64_t> rows_storage;
  const std::vector<uint64_t>* rows = nullptr;
  if (query.has_filter) {
    rows_storage = FilterRows(table, query);
    rows = &rows_storage;
  }

  if (auto packed = PackedKeyCodec::TryBuild(table, query.group_by)) {
    std::vector<EncodedKey> keys =
        rows == nullptr ? packed->EncodeAll() : packed->EncodeRows(*rows);
    if (query.has_key_range) {
      const auto range =
          packed->LeadingFieldRange(query.key_range_lo, query.key_range_hi);
      std::vector<uint64_t> kept_rows;
      std::vector<EncodedKey> kept_keys;
      if (range.has_value()) {
        kept_rows.reserve(keys.size());
        kept_keys.reserve(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          if (keys[i] >= range->first && keys[i] <= range->second) {
            kept_rows.push_back(rows == nullptr ? i : (*rows)[i]);
            kept_keys.push_back(keys[i]);
          }
        }
      }
      rows_storage = std::move(kept_rows);
      rows = &rows_storage;
      keys = std::move(kept_keys);
    }
    const std::string resolved =
        ResolveLabel(label, query, packed->width_bits(), exec);
    return RunAggregates(table, query, *packed, keys, rows, resolved, exec);
  }

  // Wide composite: dictionary fallback. Its code space is dense and
  // unordered, so a key-range condition cannot map to an encoded range.
  MEMAGG_CHECK(!query.has_key_range &&
               "range conditions need an order-preserving key codec");
  const DictKeyCodec codec = DictKeyCodec::Build(table, query.group_by, rows);
  const std::string resolved =
      ResolveLabel(label, query, codec.width_bits(), exec);
  return RunAggregates(table, query, codec, codec.encoded(), rows, resolved,
                       exec);
}

}  // namespace memagg
