#include "core/table_exec.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "core/advisor.h"
#include "core/engine.h"
#include "core/sorters.h"

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

/// The rows a query aggregates, in ascending row order, and their keys.
struct Selection {
  std::unique_ptr<uint64_t[]> rows;    ///< Null: rows [0, size), in order.
  std::unique_ptr<EncodedKey[]> keys;  ///< Null until encoded.
  size_t size = 0;
};

/// Selects rows of [0, n) morsel by morsel, in ascending row order.
/// `count(begin, end)` is how many rows of [begin, end) the query keeps;
/// `write(begin, end, rows, keys)` writes their ids (and their keys when
/// `keys` is non-null) and returns that count. One worker appends morsel
/// after morsel in a single pass. More workers first count every morsel, so
/// each writes its own slice of exact-size outputs. The count pass is
/// charged to kFilter, the writes to `write_phase`.
template <typename Count, typename Write>
Selection SelectRows(Executor& executor, size_t n, bool encode, Count count,
                     Write write, StatPhase write_phase, QueryStats* layers) {
  Selection out;
  const size_t grain = executor.MorselRows(n);
  const size_t morsels = NumMorselsFor(n, grain);
  const auto allocate = [&out, encode](size_t size) {
    out.rows = std::make_unique_for_overwrite<uint64_t[]>(size);
    if (encode) out.keys = std::make_unique_for_overwrite<EncodedKey[]>(size);
  };
  const auto keys_at = [&out](size_t offset) {
    return out.keys == nullptr ? nullptr : out.keys.get() + offset;
  };
  if (executor.num_workers() == 1 || morsels <= 1) {
    PhaseTimer timer(layers, write_phase);
    allocate(n);
    executor.ParallelFor(
        n,
        [&](const Morsel& m) {
          out.size += write(m.begin, m.end, out.rows.get() + out.size,
                            keys_at(out.size));
        },
        grain);
    return out;
  }
  std::vector<size_t> offsets(morsels + 1, 0);
  {
    PhaseTimer timer(layers, StatPhase::kFilter);
    executor.ParallelFor(
        n,
        [&](const Morsel& m) { offsets[m.index + 1] = count(m.begin, m.end); },
        grain);
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  }
  PhaseTimer timer(layers, write_phase);
  out.size = offsets.back();
  allocate(out.size);
  executor.ParallelFor(
      n,
      [&](const Morsel& m) {
        const size_t offset = offsets[m.index];
        write(m.begin, m.end, out.rows.get() + offset, keys_at(offset));
      },
      grain);
  return out;
}

/// Writes the ids of rows in [begin, end) that `keep` accepts to `rows`;
/// returns how many.
template <typename Keep>
size_t SelectInto(size_t begin, size_t end, const Keep& keep,
                  uint64_t* rows) {
  size_t kept = 0;
  for (size_t row = begin; row < end; ++row) {
    if (keep(row)) rows[kept++] = row;
  }
  return kept;
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

/// Fills result->group_keys and result->aggregate_columns from the groups an
/// operator emitted (`outputs` entries per group), in canonical group order.
/// An order-preserving codec makes encoded order the natural multi-column
/// order: trees and sorts already emit it, and other emitters' (key, group)
/// records are sorted by key. Otherwise (DictKeyCodec, unsorted
/// dictionaries) the groups are sorted by their decoded tuples; distinct
/// keys decode to distinct tuples, so the order is total either way.
/// Decoding runs morsel-parallel.
template <TableKeyCodec Codec>
void EmitCanonicalOrder(const Codec& codec, const VectorResult& emitted,
                        size_t outputs, Executor& executor,
                        TableQueryResult* result) {
  const size_t groups = emitted.size() / outputs;
  const auto key_at = [&](size_t g) { return emitted[g * outputs].key; };
  // (key, emitted group) in output order; empty when the emitted order is
  // already canonical.
  std::vector<std::pair<EncodedKey, uint64_t>> order;
  std::vector<DecodedKey> decoded;  // In emitted order; dictionary codecs.
  const auto fill_order = [&] {
    order.resize(groups);
    for (size_t g = 0; g < groups; ++g) order[g] = {key_at(g), g};
  };
  if (codec.order_preserving()) {
    bool increasing = true;
    for (size_t g = 1; g < groups && increasing; ++g) {
      increasing = key_at(g - 1) < key_at(g);
    }
    if (!increasing) {
      fill_order();
      if (executor.num_workers() > 1) {
        BlockIndirectSorter{executor.num_workers()}(
            order.data(), order.data() + groups, PairFirstKey{});
      } else {
        SpreadsortSorter{}(order.data(), order.data() + groups,
                           PairFirstKey{});
      }
    }
  } else {
    decoded.resize(groups);
    executor.ParallelFor(groups, [&](const Morsel& m) {
      for (size_t g = m.begin; g < m.end; ++g) {
        decoded[g] = codec.Decode(key_at(g));
      }
    });
    fill_order();
    std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
      const DecodedKey& x = decoded[a.second];
      const DecodedKey& y = decoded[b.second];
      return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                          y.end());
    });
  }
  // Either order puts copies of one encoded key next to each other.
  MEMAGG_CHECK(std::adjacent_find(order.begin(), order.end(),
                                  [](const auto& a, const auto& b) {
                                    return a.first == b.first;
                                  }) == order.end() &&
               "operator emitted a duplicate group key");

  result->group_keys.resize(groups);
  result->aggregate_columns.assign(outputs, std::vector<double>(groups));
  executor.ParallelFor(groups, [&](const Morsel& m) {
    for (size_t g = m.begin; g < m.end; ++g) {
      const size_t source = order.empty() ? g : order[g].second;
      const EncodedKey key = order.empty() ? key_at(g) : order[g].first;
      result->group_keys[g] = decoded.empty() ? codec.Decode(key)
                                              : std::move(decoded[source]);
      for (size_t a = 0; a < outputs; ++a) {
        result->aggregate_columns[a][g] = emitted[source * outputs + a].value;
      }
    }
  });
}

/// Runs every aggregate in one build over the shared encoded key column and
/// emits canonical group order. The operators read the measures in place,
/// through the selected rows (`rows` null: row i).
template <TableKeyCodec Codec>
TableQueryResult RunAggregates(const Table& table, const TableQuery& query,
                               const Codec& codec, const EncodedKey* keys,
                               const uint64_t* rows, size_t n,
                               const std::string& label,
                               const ExecutionContext& exec,
                               Executor& executor, QueryStats* layers) {
  TableQueryResult result;
  result.label = label;
  result.key_width_bits = codec.width_bits();
  result.order_preserving = codec.order_preserving();
  result.rows_scanned = n;

  AggregateRow row;
  for (const AggregateSpec& spec : query.aggregates) {
    result.aggregate_names.push_back(DefaultName(spec));
    row.Add(spec.function, NeedsValueColumn(spec.function)
                               ? table.ColumnNamed(spec.column).u64().data()
                               : nullptr);
  }
  VectorQueryExecution run = ExecuteRowQuery(label, row, keys, rows, n, exec);
  {
    PhaseTimer timer(layers, StatPhase::kOrder);
    EmitCanonicalOrder(codec, run.result, row.num_outputs(), executor,
                       &result);
  }
  result.stats = std::move(run.stats);
  result.stats.Merge(*layers);
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
  // The prologue (filter, key planning, encode) and the output order run
  // on the query's own thread budget and morsel policy.
  Executor executor(exec);
  QueryStats layers;
  const size_t n = table.num_rows();
  const uint64_t* filter =
      query.has_filter ? table.ColumnNamed(query.filter_column).u64().data()
                       : nullptr;
  const uint64_t filter_max = query.filter_max;
  const auto passes_filter = [filter, filter_max](size_t row) {
    return filter[row] <= filter_max;
  };
  const auto count_filter = [&](size_t begin, size_t end) {
    size_t kept = 0;
    for (size_t row = begin; row < end; ++row) kept += passes_filter(row);
    return kept;
  };
  const ImageRangeScan scan = [&executor](const Column& column) {
    return executor.ParallelReduce(
        column.size(), ImageRange{},
        [&column](ImageRange& range, const Morsel& m) {
          range.Merge(ScanImageRange(column, m.begin, m.end));
        },
        [](ImageRange& into, const ImageRange& from) { into.Merge(from); });
  };

  PhaseTimer plan_timer(&layers, StatPhase::kEncode);
  if (auto packed = PackedKeyCodec::TryBuild(table, query.group_by, scan)) {
    std::optional<std::pair<EncodedKey, EncodedKey>> range;
    if (query.has_key_range) {
      range = packed->LeadingFieldRange(query.key_range_lo,
                                        query.key_range_hi);
    }
    plan_timer.Stop();
    Selection selected;
    if (query.has_key_range && !range.has_value()) {
      // The range selects nothing.
    } else if (!query.has_filter && !query.has_key_range) {
      PhaseTimer timer(&layers, StatPhase::kEncode);
      selected.keys = std::make_unique_for_overwrite<EncodedKey[]>(n);
      selected.size = n;
      executor.ParallelFor(n, [&](const Morsel& m) {
        packed->EncodeRange(m.begin, m.end, selected.keys.get() + m.begin);
      });
    } else {
      // One fused pass per morsel: select the rows, then pack their keys.
      const auto keep = [&](size_t row) {
        if (filter != nullptr && !passes_filter(row)) return false;
        if (!range.has_value()) return true;
        const EncodedKey key = packed->EncodeRow(row);
        return key >= range->first && key <= range->second;
      };
      selected = SelectRows(
          executor, n, /*encode=*/true,
          [&](size_t begin, size_t end) {
            if (range.has_value()) {
              size_t kept = 0;
              for (size_t row = begin; row < end; ++row) kept += keep(row);
              return kept;
            }
            return count_filter(begin, end);
          },
          [&](size_t begin, size_t end, uint64_t* rows, EncodedKey* keys) {
            const size_t kept = SelectInto(begin, end, keep, rows);
            packed->EncodeRows(rows, kept, keys);
            return kept;
          },
          StatPhase::kEncode, &layers);
    }
    const std::string resolved =
        ResolveLabel(label, query, packed->width_bits(), exec);
    return RunAggregates(table, query, *packed, selected.keys.get(),
                         selected.rows.get(), selected.size, resolved, exec,
                         executor, &layers);
  }
  plan_timer.Stop();

  // Wide composite: dictionary fallback. Its code space is dense and
  // unordered, so a key-range condition cannot map to an encoded range.
  // Interning assigns codes in row order, so it stays serial.
  MEMAGG_CHECK(!query.has_key_range &&
               "range conditions need an order-preserving key codec");
  Selection selected;
  selected.size = n;
  if (filter != nullptr) {
    selected = SelectRows(
        executor, n, /*encode=*/false, count_filter,
        [&](size_t begin, size_t end, uint64_t* rows, EncodedKey*) {
          return SelectInto(begin, end, passes_filter, rows);
        },
        StatPhase::kFilter, &layers);
  }
  PhaseTimer encode_timer(&layers, StatPhase::kEncode);
  const DictKeyCodec codec = DictKeyCodec::Build(
      table, query.group_by, selected.rows.get(), selected.size, scan);
  encode_timer.Stop();
  const std::string resolved =
      ResolveLabel(label, query, codec.width_bits(), exec);
  return RunAggregates(table, query, codec, codec.encoded().data(),
                       selected.rows.get(), selected.size, resolved, exec,
                       executor, &layers);
}

}  // namespace memagg
