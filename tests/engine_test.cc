// Tests for the engine registry (label -> operator mapping).

#include "core/engine.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/advisor.h"
#include "core/query.h"
#include "sim/traced_engine.h"

namespace memagg {
namespace {

TEST(EngineTest, SerialLabelsMatchTable3) {
  EXPECT_EQ(SerialLabels(),
            (std::vector<std::string>{"ART", "Judy", "Btree", "Hash_SC",
                                      "Hash_LP", "Hash_Sparse", "Hash_Dense",
                                      "Hash_LC", "Introsort", "Spreadsort"}));
}

TEST(EngineTest, ConcurrentLabelsMatchTable8) {
  EXPECT_EQ(ConcurrentLabels(),
            (std::vector<std::string>{"Hash_TBBSC", "Hash_LC", "Sort_BI",
                                      "Sort_QSLB"}));
}

TEST(EngineTest, TreeAndScalarLabelsMatchThePaper) {
  EXPECT_EQ(TreeLabels(), (std::vector<std::string>{"ART", "Judy", "Btree"}));
  EXPECT_EQ(ScalarCapableLabels(),
            (std::vector<std::string>{"ART", "Judy", "Btree", "Introsort",
                                      "Spreadsort"}));
}

TEST(EngineTest, CategoryOfLabel) {
  EXPECT_EQ(CategoryOfLabel("Hash_LP"), AlgorithmCategory::kHash);
  EXPECT_EQ(CategoryOfLabel("Hash_TBBSC"), AlgorithmCategory::kHash);
  EXPECT_EQ(CategoryOfLabel("Adaptive"), AlgorithmCategory::kHash);
  EXPECT_EQ(CategoryOfLabel("ART"), AlgorithmCategory::kTree);
  EXPECT_EQ(CategoryOfLabel("Judy"), AlgorithmCategory::kTree);
  EXPECT_EQ(CategoryOfLabel("Btree"), AlgorithmCategory::kTree);
  EXPECT_EQ(CategoryOfLabel("Ttree"), AlgorithmCategory::kTree);
  EXPECT_EQ(CategoryOfLabel("Introsort"), AlgorithmCategory::kSort);
  EXPECT_EQ(CategoryOfLabel("Spreadsort"), AlgorithmCategory::kSort);
  EXPECT_EQ(CategoryOfLabel("Sort_BI"), AlgorithmCategory::kSort);
  for (const LabelInfo& info : Labels()) {
    EXPECT_EQ(CategoryOfLabel(std::string(info.name)), info.category)
        << info.name;
  }
}

TEST(EngineTest, RegistryNamesAreUnique) {
  std::set<std::string_view> names;
  for (const LabelInfo& info : Labels()) {
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
  }
}

TEST(EngineTest, EveryLabelConstructsEveryFunction) {
  // At one thread always; at four wherever the registry says it can.
  for (const LabelInfo& info : Labels()) {
    const std::string label(info.name);
    for (const int threads : {1, 4}) {
      if (threads > 1 && info.serial_only) continue;
      for (AggregateFunction fn :
           {AggregateFunction::kCount, AggregateFunction::kSum,
            AggregateFunction::kMin, AggregateFunction::kMax,
            AggregateFunction::kAverage, AggregateFunction::kMedian,
            AggregateFunction::kMode}) {
        EXPECT_NE(MakeVectorAggregator(label, fn, 64, threads), nullptr)
            << label << "@" << threads << " " << AggregateFunctionName(fn);
      }
    }
  }
}

TEST(EngineTest, RangeAndScalarMedianTraitsHold) {
  for (const LabelInfo& info : Labels()) {
    const std::string label(info.name);
    if (info.range_search) {
      EXPECT_EQ(info.category, AlgorithmCategory::kTree) << label;
      EXPECT_TRUE(MakeVectorAggregator(label, AggregateFunction::kCount, 64)
                      ->SupportsRange())
          << label;
    }
    if (info.scalar_median) {
      EXPECT_NE(MakeScalarMedianAggregator(label), nullptr) << label;
    }
  }
}

TEST(EngineTest, AdvisorRecommendsOnlyRegisteredLabels) {
  for (OutputFormat out : {OutputFormat::kVector, OutputFormat::kScalar}) {
    for (FunctionCategory category :
         {FunctionCategory::kDistributive, FunctionCategory::kAlgebraic,
          FunctionCategory::kHolistic}) {
      for (int flags = 0; flags < 8; ++flags) {
        for (const int threads : {1, 8}) {
          for (const int key_width_bits : {16, 48}) {
            WorkloadProfile profile;
            profile.output = out;
            profile.category = category;
            profile.worm = (flags & 1) != 0;
            profile.has_range_condition = (flags & 2) != 0;
            profile.prebuilt_index = (flags & 4) != 0;
            profile.num_threads = threads;
            profile.key_width_bits = key_width_bits;
            const std::string label = RecommendAlgorithm(profile);
            const LabelInfo& info = LookupLabel(label);  // Aborts if unknown.
            if (out == OutputFormat::kScalar) {
              EXPECT_TRUE(info.scalar_median) << label;
            }
          }
        }
      }
    }
  }
}

TEST(EngineTest, TracedEngineLabelsAreRegisteredSerialLabels) {
  // sim/traced_engine.cc keeps its own tracer-templated chain over the
  // Table 3 labels plus Ttree; each must be registered and run serially.
  std::vector<std::string> traced = SerialLabels();
  traced.push_back("Ttree");
  for (const std::string& label : traced) {
    LookupLabel(label);  // Aborts if unknown.
    EXPECT_NE(MakeVectorAggregator(label, AggregateFunction::kCount, 64, 1),
              nullptr)
        << label;
    EXPECT_NE(
        MakeTracedVectorAggregator(label, AggregateFunction::kCount, 64),
        nullptr)
        << label;
  }
}

TEST(EngineTest, QueryDescriptorsMatchTable1) {
  EXPECT_EQ(MakeQ1().category(), FunctionCategory::kDistributive);
  EXPECT_EQ(MakeQ1().output, OutputFormat::kVector);
  EXPECT_EQ(MakeQ2().category(), FunctionCategory::kAlgebraic);
  EXPECT_EQ(MakeQ3().category(), FunctionCategory::kHolistic);
  EXPECT_EQ(MakeQ3().output, OutputFormat::kVector);
  EXPECT_EQ(MakeQ4().output, OutputFormat::kScalar);
  EXPECT_EQ(MakeQ5().output, OutputFormat::kScalar);
  EXPECT_EQ(MakeQ6().output, OutputFormat::kScalar);
  EXPECT_EQ(MakeQ6().category(), FunctionCategory::kHolistic);
  EXPECT_TRUE(MakeQ7().has_range_condition);
  EXPECT_EQ(MakeQ7().range_lo, 500u);
  EXPECT_EQ(MakeQ7().range_hi, 1000u);
}

}  // namespace
}  // namespace memagg
