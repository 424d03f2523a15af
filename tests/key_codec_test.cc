// Tests for the KeyCodec layer (data/key_codec.h): planning, packed and
// dictionary encoding, order preservation, range bridging, and a fuzz
// round-trip (encode -> group -> decode vs a std::map oracle) over random
// multi-column schemas.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/table_exec.h"
#include "data/key_codec.h"
#include "data/string_dict.h"
#include "data/table.h"
#include "util/rng.h"

namespace memagg {
namespace {

Table TwoColumnTable() {
  Table table;
  StringDict dict;
  const uint32_t a = dict.Intern("A");
  const uint32_t n = dict.Intern("N");
  const uint32_t r = dict.Intern("R");
  table.AddColumn("flag", Column::String(std::move(dict), {a, n, r, a, n}));
  table.AddColumn("bucket", Column::U64({10, 11, 12, 10, 12}));
  table.AddColumn("value", Column::U64({1, 2, 3, 4, 5}));
  return table;
}

TEST(PlanKeyFieldsTest, BiasAndWidthFromColumnRanges) {
  const Table table = TwoColumnTable();
  const auto [plans, total_bits] = PlanKeyFields(table, {"flag", "bucket"});
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].type, ColumnType::kString);
  EXPECT_EQ(plans[0].bits, 2);  // 3 distinct strings -> bit_width(2).
  EXPECT_EQ(plans[1].type, ColumnType::kU64);
  EXPECT_EQ(plans[1].bias, 10u);
  EXPECT_EQ(plans[1].bits, 2);  // Range 0..2.
  EXPECT_EQ(total_bits, 4);
}

TEST(PlanKeyFieldsTest, EmptyTablePlansEveryFieldOneBitWide) {
  Table table;
  table.AddColumn("u", Column::U64({}));
  table.AddColumn("s", Column::I64({}));
  const auto [plans, total_bits] = PlanKeyFields(table, {"u", "s"});
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].bias, 0u);
  EXPECT_EQ(plans[0].bits, 1);
  EXPECT_EQ(plans[1].bits, 1);
  EXPECT_EQ(total_bits, 2);
  const auto codec = PackedKeyCodec::TryBuild(table, {"u", "s"});
  ASSERT_TRUE(codec.has_value());
  EXPECT_TRUE(codec->EncodeAll().empty());
}

TEST(PlanKeyFieldsTest, SplitScanPlansLikeTheSerialScan) {
  // A scan that merges per-slice ranges, as the table layer's
  // morsel-parallel scan does, plans the same fields.
  Table table;
  table.AddColumn("u", Column::U64({40, 7, 90, 12, 55}));
  table.AddColumn("s", Column::I64({-9, 4, -30, 8, 0}));
  size_t scans = 0;
  const ImageRangeScan split = [&scans](const Column& column) {
    ++scans;
    ImageRange range = ScanImageRange(column, 0, 2);
    range.Merge(ScanImageRange(column, 2, column.size()));
    return range;
  };
  const auto serial = PlanKeyFields(table, {"u", "s"});
  const auto sliced = PlanKeyFields(table, {"u", "s"}, split);
  EXPECT_EQ(scans, 2u);
  ASSERT_EQ(serial.first.size(), sliced.first.size());
  for (size_t f = 0; f < serial.first.size(); ++f) {
    EXPECT_EQ(serial.first[f].bias, sliced.first[f].bias);
    EXPECT_EQ(serial.first[f].bits, sliced.first[f].bits);
  }
  EXPECT_EQ(serial.first[0].bias, 7u);
  EXPECT_TRUE(ImageRange{}.empty());
}

TEST(PackedKeyCodecTest, BatchEncodesMatchEncodeRow) {
  Table table;
  table.AddColumn("u", Column::U64({40, 7, 90, 12, 55}));
  table.AddColumn("s", Column::I64({-9, 4, -30, 8, 0}));
  const auto codec = PackedKeyCodec::TryBuild(table, {"s", "u"});
  ASSERT_TRUE(codec.has_value());
  std::vector<EncodedKey> range(3);
  codec->EncodeRange(1, 4, range.data());
  const std::vector<uint64_t> rows = {4, 0, 2};
  std::vector<EncodedKey> picked(rows.size());
  codec->EncodeRows(rows.data(), rows.size(), picked.data());
  for (size_t i = 0; i < range.size(); ++i) {
    EXPECT_EQ(range[i], codec->EncodeRow(1 + i));
    EXPECT_EQ(picked[i], codec->EncodeRow(rows[i]));
  }
}

TEST(PackedKeyCodecTest, RoundTripsAndPreservesOrder) {
  const Table table = TwoColumnTable();
  const auto codec = PackedKeyCodec::TryBuild(table, {"flag", "bucket"});
  ASSERT_TRUE(codec.has_value());
  EXPECT_EQ(codec->num_fields(), 2u);
  EXPECT_EQ(codec->width_bits(), 4);
  EXPECT_TRUE(codec->order_preserving());

  const std::vector<EncodedKey> keys = codec->EncodeAll();
  ASSERT_EQ(keys.size(), table.num_rows());
  // Rows 0 and 3 share ("A", 10): identical keys; all other pairs differ.
  EXPECT_EQ(keys[0], keys[3]);
  EXPECT_NE(keys[0], keys[1]);

  for (size_t row = 0; row < table.num_rows(); ++row) {
    const DecodedKey decoded = codec->Decode(keys[row]);
    ASSERT_EQ(decoded.size(), 2u);
    EXPECT_EQ(std::string(decoded[0].text),
              table.ColumnNamed("flag").dict().String(
                  table.ColumnNamed("flag").codes()[row]));
    EXPECT_EQ(decoded[1].u64, table.ColumnNamed("bucket").u64()[row]);
  }

  // Order preservation: encoded order == lexicographic (flag, bucket) order.
  // Row 1 ("N", 11) sorts after row 0 ("A", 10) and before row 2 ("R", 12).
  EXPECT_LT(keys[0], keys[1]);
  EXPECT_LT(keys[1], keys[2]);
}

TEST(PackedKeyCodecTest, SignedColumnsRoundTripAcrossZero) {
  Table table;
  table.AddColumn("delta", Column::I64({-5, -1, 0, 3, 7}));
  const auto codec = PackedKeyCodec::TryBuild(table, {"delta"});
  ASSERT_TRUE(codec.has_value());
  const std::vector<EncodedKey> keys = codec->EncodeAll();
  for (size_t row = 0; row < table.num_rows(); ++row) {
    EXPECT_EQ(codec->Decode(keys[row])[0].i64,
              table.ColumnNamed("delta").i64()[row]);
  }
  // Numeric order survives the sign boundary.
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(PackedKeyCodecTest, UnsortedDictDefeatsOrderPreservation) {
  Table table;
  StringDict dict;
  const uint32_t z = dict.Intern("zebra");
  const uint32_t a = dict.Intern("ant");
  table.AddColumn("animal", Column::String(std::move(dict), {z, a}));
  const auto codec = PackedKeyCodec::TryBuild(table, {"animal"});
  ASSERT_TRUE(codec.has_value());
  EXPECT_FALSE(codec->order_preserving());
}

TEST(PackedKeyCodecTest, WideSchemaFallsThrough) {
  // Two full-width columns cannot pack into 63 bits.
  Table table;
  table.AddColumn("hi", Column::U64({0, ~0ULL}));
  table.AddColumn("lo", Column::U64({0, ~0ULL}));
  EXPECT_FALSE(PackedKeyCodec::TryBuild(table, {"hi", "lo"}).has_value());
  // Even one full-domain column misses: 64 bits would collide with the
  // open-addressing sentinel keys.
  EXPECT_FALSE(PackedKeyCodec::TryBuild(table, {"hi"}).has_value());
}

TEST(PackedKeyCodecTest, EveryLegalWidthRoundTripsItsEndpoints) {
  // Exhaustive sweep of the packed budget: a single field of every width
  // 1..63 must build, report exactly that width, and round-trip both domain
  // endpoints with order preserved.
  for (int w = 1; w <= 63; ++w) {
    const uint64_t hi = (1ULL << w) - 1;
    Table table;
    table.AddColumn("k", Column::U64({0, hi}));
    const auto codec = PackedKeyCodec::TryBuild(table, {"k"});
    ASSERT_TRUE(codec.has_value()) << "width " << w;
    EXPECT_EQ(codec->width_bits(), w) << "width " << w;
    const std::vector<EncodedKey> keys = codec->EncodeAll();
    EXPECT_LT(keys[0], keys[1]) << "width " << w;
    EXPECT_EQ(codec->Decode(keys[0])[0].u64, 0u) << "width " << w;
    EXPECT_EQ(codec->Decode(keys[1])[0].u64, hi) << "width " << w;
  }
}

TEST(PackedKeyCodecTest, SixtyFourBitFieldRejectsToDict) {
  // A field whose range needs 64 bits would collide with the
  // open-addressing sentinels; exactly at the boundary the packed codec
  // declines and the dictionary codec takes over.
  Table table;
  table.AddColumn("k", Column::U64({0, 1ULL << 63}));
  EXPECT_FALSE(PackedKeyCodec::TryBuild(table, {"k"}).has_value());
  const DictKeyCodec codec = DictKeyCodec::Build(table, {"k"});
  EXPECT_EQ(codec.num_distinct(), 2u);
  EXPECT_EQ(codec.Decode(codec.encoded()[1])[0].u64, 1ULL << 63);
}

TEST(PackedKeyCodecTest, SixtyFiveBitCompositeRejectsToDict) {
  // 33 + 32 bits: each field alone packs, the composite does not.
  Table table;
  table.AddColumn("a", Column::U64({0, (1ULL << 33) - 1}));
  table.AddColumn("b", Column::U64({0, (1ULL << 32) - 1}));
  EXPECT_FALSE(PackedKeyCodec::TryBuild(table, {"a", "b"}).has_value());
  const DictKeyCodec codec = DictKeyCodec::Build(table, {"a", "b"});
  EXPECT_EQ(codec.num_distinct(), 2u);
  const DecodedKey wide = codec.Decode(codec.encoded()[1]);
  EXPECT_EQ(wide[0].u64, (1ULL << 33) - 1);
  EXPECT_EQ(wide[1].u64, (1ULL << 32) - 1);
}

TEST(PackedKeyCodecTest, SignedExtremesUseFullDomain) {
  // The order-preserving i64 mapping sends INT64_MIN to 0 and INT64_MAX to
  // ~0ULL, so the full signed domain needs all 64 bits: packing declines
  // and the dictionary codec round-trips the extremes.
  Table table;
  table.AddColumn("d", Column::I64({INT64_MIN, -1, 0, INT64_MAX}));
  EXPECT_FALSE(PackedKeyCodec::TryBuild(table, {"d"}).has_value());
  const DictKeyCodec codec = DictKeyCodec::Build(table, {"d"});
  EXPECT_EQ(codec.num_distinct(), 4u);
  EXPECT_EQ(codec.Decode(codec.encoded()[0])[0].i64, INT64_MIN);
  EXPECT_EQ(codec.Decode(codec.encoded()[3])[0].i64, INT64_MAX);
}

TEST(PackedKeyCodecTest, SignedSubrangesAtExtremesPackNarrow) {
  // Near-extreme but narrow signed ranges still pack: the bias soaks up
  // the offset on both sides of the domain.
  Table table;
  table.AddColumn("lo", Column::I64({INT64_MIN, INT64_MIN + 6}));
  table.AddColumn("hi", Column::I64({INT64_MAX - 9, INT64_MAX}));
  const auto codec = PackedKeyCodec::TryBuild(table, {"lo", "hi"});
  ASSERT_TRUE(codec.has_value());
  EXPECT_TRUE(codec->order_preserving());
  const std::vector<EncodedKey> keys = codec->EncodeAll();
  EXPECT_LT(keys[0], keys[1]);
  EXPECT_EQ(codec->Decode(keys[0])[0].i64, INT64_MIN);
  EXPECT_EQ(codec->Decode(keys[1])[1].i64, INT64_MAX);
}

TEST(PackedKeyCodecTest, LeadingFieldRangeCoversContiguousKeys) {
  const Table table = TwoColumnTable();
  const auto codec = PackedKeyCodec::TryBuild(table, {"flag", "bucket"});
  ASSERT_TRUE(codec.has_value());
  const std::vector<EncodedKey> keys = codec->EncodeAll();

  // ["A", "N"] selects rows with flag A or N (0, 1, 3, 4), not row 2 (R).
  const auto range = codec->LeadingFieldRange(
      {ColumnType::kString, 0, 0, "A"}, {ColumnType::kString, 0, 0, "N"});
  ASSERT_TRUE(range.has_value());
  for (const size_t row : {0u, 1u, 3u, 4u}) {
    EXPECT_GE(keys[row], range->first) << row;
    EXPECT_LE(keys[row], range->second) << row;
  }
  EXPECT_GT(keys[2], range->second);

  // Bounds need not be interned strings.
  const auto loose = codec->LeadingFieldRange(
      {ColumnType::kString, 0, 0, "0"}, {ColumnType::kString, 0, 0, "B"});
  ASSERT_TRUE(loose.has_value());
  EXPECT_EQ(loose->first, range->first);

  // An empty selection returns nullopt.
  EXPECT_FALSE(codec
                   ->LeadingFieldRange({ColumnType::kString, 0, 0, "X"},
                                       {ColumnType::kString, 0, 0, "Z"})
                   .has_value());
}

TEST(PackedKeyCodecTest, LeadingFieldRangeClampsIntegers) {
  Table table;
  table.AddColumn("k", Column::U64({100, 150, 200}));
  const auto codec = PackedKeyCodec::TryBuild(table, {"k"});
  ASSERT_TRUE(codec.has_value());
  // Bounds wider than the observed domain clamp to it.
  const auto range = codec->LeadingFieldRange({ColumnType::kU64, 0, 0, {}},
                                              {ColumnType::kU64, 500, 0, {}});
  ASSERT_TRUE(range.has_value());
  const std::vector<EncodedKey> keys = codec->EncodeAll();
  for (const EncodedKey key : keys) {
    EXPECT_GE(key, range->first);
    EXPECT_LE(key, range->second);
  }
  // A range entirely below the domain selects nothing.
  EXPECT_FALSE(codec
                   ->LeadingFieldRange({ColumnType::kU64, 0, 0, {}},
                                       {ColumnType::kU64, 99, 0, {}})
                   .has_value());
}

TEST(DictKeyCodecTest, WideSchemaRoundTrips) {
  Table table;
  table.AddColumn("hi", Column::U64({0, ~0ULL, 5, 0}));
  table.AddColumn("lo", Column::U64({1, 2, 3, 1}));
  const DictKeyCodec codec = DictKeyCodec::Build(table, {"hi", "lo"});
  EXPECT_FALSE(codec.order_preserving());
  EXPECT_EQ(codec.num_distinct(), 3u);  // Rows 0 and 3 collapse.
  const std::vector<EncodedKey>& keys = codec.encoded();
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys[0], keys[3]);
  for (size_t row = 0; row < table.num_rows(); ++row) {
    const DecodedKey decoded = codec.Decode(keys[row]);
    EXPECT_EQ(decoded[0].u64, table.ColumnNamed("hi").u64()[row]);
    EXPECT_EQ(decoded[1].u64, table.ColumnNamed("lo").u64()[row]);
  }
  // Dense code space: width is bits of the code count, not the composite.
  EXPECT_LE(codec.width_bits(), 8);
  EXPECT_GT(codec.composite_bits(), kEncodedKeyBits);
}

TEST(DictKeyCodecTest, RowSubsetEncodesOnlySelectedRows) {
  Table table;
  table.AddColumn("hi", Column::U64({0, ~0ULL, 5}));
  table.AddColumn("lo", Column::U64({1, 2, 3}));
  const std::vector<uint64_t> rows = {2, 0};
  const DictKeyCodec codec = DictKeyCodec::Build(table, {"hi", "lo"}, &rows);
  ASSERT_EQ(codec.encoded().size(), 2u);
  EXPECT_EQ(codec.Decode(codec.encoded()[0])[0].u64, 5u);
  EXPECT_EQ(codec.Decode(codec.encoded()[1])[0].u64, 0u);
}

TEST(KeyCodecDeathTest, F64KeyColumnAborts) {
  Table table;
  table.AddColumn("x", Column::F64({1.0, 2.0}));
  EXPECT_DEATH(PlanKeyFields(table, {"x"}), "cannot be a group-by key");
}

TEST(KeyCodecDeathTest, RangeOnUnorderedCodecAborts) {
  Table table;
  StringDict dict;
  const uint32_t z = dict.Intern("z");
  const uint32_t a = dict.Intern("a");
  table.AddColumn("s", Column::String(std::move(dict), {z, a}));
  const auto codec = PackedKeyCodec::TryBuild(table, {"s"});
  ASSERT_TRUE(codec.has_value());
  EXPECT_DEATH(codec->LeadingFieldRange({ColumnType::kString, 0, 0, "a"},
                                        {ColumnType::kString, 0, 0, "z"}),
               "order-preserving");
}

// --- Fuzz round-trip ---------------------------------------------------------

/// Oracle key: decoded field values in a comparable, hashable form.
using OracleKey = std::vector<std::string>;

OracleKey ToOracleKey(const DecodedKey& decoded) {
  OracleKey key;
  key.reserve(decoded.size());
  for (const KeyFieldValue& field : decoded) key.push_back(field.ToString());
  return key;
}

/// Builds a random table with 1-4 key columns of random types (u64 with a
/// random bias/width, i64 crossing zero, or a string column that is sorted
/// or not by coin flip) plus a u64 measure, then checks that
/// encode -> group (COUNT + SUM through ExecuteTableQuery) -> decode agrees
/// with a std::map oracle computed straight from the source columns.
TEST(KeyCodecFuzzTest, EncodeGroupDecodeMatchesOracle) {
  Rng rng(0xf0220);
  const std::vector<std::string> labels = {"Hash_LP", "Introsort", "Btree"};
  for (int iteration = 0; iteration < 30; ++iteration) {
    const size_t num_rows = 50 + rng.NextBounded(400);
    const size_t num_key_columns = 1 + rng.NextBounded(4);
    Table table;
    std::vector<std::string> group_by;
    // One wide u64 column forces the DictKeyCodec path in some iterations;
    // at most one keeps the composite under DictKeyCodec's 128-bit cap
    // (the narrow cases below are all <= 11 bits wide).
    bool used_wide = false;
    for (size_t c = 0; c < num_key_columns; ++c) {
      std::string name = "k";
      name += std::to_string(c);
      group_by.push_back(name);
      uint64_t shape = rng.NextBounded(4);
      if (shape == 1 && used_wide) shape = 0;
      switch (shape) {
        case 0: {  // Narrow u64 with a bias.
          const uint64_t bias = rng.Next() >> 1;
          const uint64_t spread = 1 + rng.NextBounded(1000);
          std::vector<uint64_t> values(num_rows);
          for (auto& v : values) v = bias + rng.NextBounded(spread);
          table.AddColumn(name, Column::U64(std::move(values)));
          break;
        }
        case 1: {  // Wide u64: may push the schema past 63 bits.
          used_wide = true;
          std::vector<uint64_t> values(num_rows);
          for (auto& v : values) {
            v = rng.NextBounded(2) == 0 ? rng.Next() : rng.NextBounded(16);
          }
          table.AddColumn(name, Column::U64(std::move(values)));
          break;
        }
        case 2: {  // i64 crossing zero.
          std::vector<int64_t> values(num_rows);
          for (auto& v : values) {
            v = static_cast<int64_t>(rng.NextBounded(2001)) - 1000;
          }
          table.AddColumn(name, Column::I64(std::move(values)));
          break;
        }
        default: {  // Dictionary string, sorted by coin flip.
          StringDict dict;
          const size_t domain = 1 + rng.NextBounded(12);
          std::vector<uint32_t> codes(num_rows);
          for (auto& code : codes) {
            std::string text = "s";
            text += std::to_string(rng.NextBounded(domain));
            code = dict.Intern(text);
          }
          Column column = Column::String(std::move(dict), std::move(codes));
          if (rng.NextBounded(2) == 0) column.FreezeDictSorted();
          table.AddColumn(name, std::move(column));
          break;
        }
      }
    }
    std::vector<uint64_t> measure(num_rows);
    for (auto& v : measure) v = rng.NextBounded(1000);
    table.AddColumn("v", Column::U64(measure));

    // Oracle straight from the source columns.
    std::map<OracleKey, std::pair<uint64_t, uint64_t>> oracle;  // count, sum.
    for (size_t row = 0; row < num_rows; ++row) {
      OracleKey key;
      for (const std::string& name : group_by) {
        const Column& column = table.ColumnNamed(name);
        switch (column.type()) {
          case ColumnType::kU64:
            key.push_back(std::to_string(column.u64()[row]));
            break;
          case ColumnType::kI64:
            key.push_back(std::to_string(column.i64()[row]));
            break;
          case ColumnType::kString:
            key.push_back(column.dict().String(column.codes()[row]));
            break;
          case ColumnType::kF64:
            FAIL();
        }
      }
      auto& [count, sum] = oracle[key];
      ++count;
      sum += measure[row];
    }

    TableQuery query;
    query.group_by = group_by;
    query.aggregates = {{AggregateFunction::kCount, "", "count"},
                        {AggregateFunction::kSum, "v", "sum"}};
    const std::string& label = labels[iteration % labels.size()];
    const TableQueryResult result = ExecuteTableQuery(table, query, label);

    ASSERT_EQ(result.group_keys.size(), oracle.size())
        << "iteration " << iteration << " label " << label;
    for (size_t g = 0; g < result.group_keys.size(); ++g) {
      const auto it = oracle.find(ToOracleKey(result.group_keys[g]));
      ASSERT_NE(it, oracle.end()) << "iteration " << iteration;
      EXPECT_EQ(result.aggregate_columns[0][g],
                static_cast<double>(it->second.first));
      EXPECT_EQ(result.aggregate_columns[1][g],
                static_cast<double>(it->second.second));
    }
  }
}

}  // namespace
}  // namespace memagg
