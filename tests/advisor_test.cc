// Tests for the Figure 12 decision-flow advisor: exhaustive over the input
// space, checking every leaf of the flow chart, plus the edge behavior and
// error band of the sampling cardinality estimator.

#include "core/advisor.h"

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/query.h"
#include "data/zipf.h"

namespace memagg {
namespace {

WorkloadProfile Profile(OutputFormat out, FunctionCategory cat, bool worm,
                        bool range, bool prebuilt, int threads) {
  return WorkloadProfile{out, cat, worm, range, prebuilt, threads};
}

TEST(AdvisorTest, ScalarWoroPicksSpreadsort) {
  EXPECT_EQ(RecommendAlgorithm(Profile(OutputFormat::kScalar,
                                       FunctionCategory::kHolistic, false,
                                       false, false, 1)),
            "Spreadsort");
}

TEST(AdvisorTest, ScalarWormPicksJudy) {
  EXPECT_EQ(RecommendAlgorithm(Profile(OutputFormat::kScalar,
                                       FunctionCategory::kHolistic, true,
                                       false, false, 1)),
            "Judy");
}

TEST(AdvisorTest, VectorHolisticPicksSpreadsort) {
  EXPECT_EQ(RecommendAlgorithm(Profile(OutputFormat::kVector,
                                       FunctionCategory::kHolistic, false,
                                       false, false, 1)),
            "Spreadsort");
}

TEST(AdvisorTest, VectorHolisticWideKeyPicksIntrosort) {
  // Spreadsort's byte-radix passes pay per key byte, so past the paper's
  // 32-bit synthetic domain the comparison sort wins (the columnar layer
  // feeds real composite-key widths through key_width_bits).
  WorkloadProfile profile = Profile(OutputFormat::kVector,
                                    FunctionCategory::kHolistic, false, false,
                                    false, 1);
  profile.key_width_bits = 48;
  EXPECT_EQ(RecommendAlgorithm(profile), "Introsort");
  // At or below 32 bits the default recommendation is unchanged.
  profile.key_width_bits = 32;
  EXPECT_EQ(RecommendAlgorithm(profile), "Spreadsort");
}

TEST(AdvisorTest, VectorHolisticMultithreadedPicksSortBI) {
  EXPECT_EQ(RecommendAlgorithm(Profile(OutputFormat::kVector,
                                       FunctionCategory::kHolistic, false,
                                       false, false, 8)),
            "Sort_BI");
}

TEST(AdvisorTest, VectorDistributivePicksHashLP) {
  EXPECT_EQ(RecommendAlgorithm(Profile(OutputFormat::kVector,
                                       FunctionCategory::kDistributive, false,
                                       false, false, 1)),
            "Hash_LP");
}

TEST(AdvisorTest, VectorDistributiveMultithreadedPicksPLocal) {
  // Departs from Figure 12 (Hash_TBBSC): per-worker tables merged once beat
  // a shared table's contended updates end to end (EXPERIMENTS.md).
  const WorkloadProfile profile = Profile(
      OutputFormat::kVector, FunctionCategory::kDistributive, false, false,
      false, 4);
  EXPECT_EQ(RecommendAlgorithm(profile), "Hash_PLocal");
  EXPECT_NE(ExplainRecommendation(profile).find("per-worker tables"),
            std::string::npos);
}

TEST(AdvisorTest, RangeWithPrebuiltIndexPicksBtree) {
  EXPECT_EQ(RecommendAlgorithm(Profile(OutputFormat::kVector,
                                       FunctionCategory::kDistributive, false,
                                       true, true, 1)),
            "Btree");
}

TEST(AdvisorTest, RangeWithoutPrebuiltIndexPicksART) {
  EXPECT_EQ(RecommendAlgorithm(Profile(OutputFormat::kVector,
                                       FunctionCategory::kDistributive, false,
                                       true, false, 1)),
            "ART");
}

TEST(AdvisorTest, AlgebraicTreatedLikeDistributive) {
  EXPECT_EQ(RecommendAlgorithm(Profile(OutputFormat::kVector,
                                       FunctionCategory::kAlgebraic, false,
                                       false, false, 1)),
            "Hash_LP");
}

TEST(AdvisorTest, ExhaustiveInputSpaceReturnsKnownLabels) {
  // Every combination must produce a label the engine can construct.
  for (OutputFormat out : {OutputFormat::kVector, OutputFormat::kScalar}) {
    for (FunctionCategory cat :
         {FunctionCategory::kDistributive, FunctionCategory::kAlgebraic,
          FunctionCategory::kHolistic}) {
      for (bool worm : {false, true}) {
        for (bool range : {false, true}) {
          for (bool prebuilt : {false, true}) {
            for (int threads : {1, 8}) {
              const auto profile =
                  Profile(out, cat, worm, range, prebuilt, threads);
              const std::string label = RecommendAlgorithm(profile);
              EXPECT_FALSE(label.empty());
              // The label must be constructible by the engine.
              if (out == OutputFormat::kScalar) {
                EXPECT_NE(MakeScalarMedianAggregator(label, threads), nullptr);
              } else {
                EXPECT_NE(MakeVectorAggregator(
                              label, AggregateFunction::kCount, 64,
                              LookupLabel(label).serial_only ? 1 : threads),
                          nullptr);
              }
            }
          }
        }
      }
    }
  }
}

TEST(AdvisorTest, ProfileForQueryDerivesFields) {
  const auto profile = ProfileForQuery(MakeQ7(), /*worm=*/true,
                                       /*prebuilt_index=*/true,
                                       /*num_threads=*/4);
  EXPECT_EQ(profile.output, OutputFormat::kVector);
  EXPECT_EQ(profile.category, FunctionCategory::kDistributive);
  EXPECT_TRUE(profile.worm);
  EXPECT_TRUE(profile.has_range_condition);
  EXPECT_TRUE(profile.prebuilt_index);
  EXPECT_EQ(profile.num_threads, 4);
  EXPECT_EQ(RecommendAlgorithm(profile), "Btree");
}

TEST(AdvisorTest, ExplanationMentionsRecommendation) {
  const auto profile = ProfileForQuery(MakeQ3());
  const std::string explanation = ExplainRecommendation(profile);
  EXPECT_NE(explanation.find(RecommendAlgorithm(profile)), std::string::npos);
  EXPECT_NE(explanation.find("holistic"), std::string::npos);
}

// --- EstimateGroupCardinality edge behavior (see the advisor.h contract:
// 0 for n == 0, clamped to [1, n] otherwise, exact for n <= 4096, ratio
// error bounded by sqrt(n / sample_size)). ---

TEST(CardinalityEstimateTest, EmptyInputReturnsZero) {
  EXPECT_EQ(EstimateGroupCardinality(nullptr, 0), 0u);
  const uint64_t key = 42;
  EXPECT_EQ(EstimateGroupCardinality(&key, 0), 0u);
}

TEST(CardinalityEstimateTest, SingleGroupReturnsOne) {
  for (size_t n : {1u, 7u, 4096u, 100000u}) {
    const std::vector<uint64_t> keys(n, 0xdecafULL);
    EXPECT_EQ(EstimateGroupCardinality(keys.data(), n), 1u) << "n=" << n;
  }
}

TEST(CardinalityEstimateTest, SmallInputsAreExact) {
  // n <= the sample size: every key is inspected, the count is exact.
  std::vector<uint64_t> keys(4096);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i % 137;
  EXPECT_EQ(EstimateGroupCardinality(keys.data(), keys.size()), 137u);
}

TEST(CardinalityEstimateTest, AllDistinctStaysInBandAndBounds) {
  const size_t n = 1 << 20;
  std::vector<uint64_t> keys(n);
  std::iota(keys.begin(), keys.end(), uint64_t{0});
  const size_t estimate = EstimateGroupCardinality(keys.data(), n);
  EXPECT_GE(estimate, 1u);
  EXPECT_LE(estimate, n);
  // GEE error band: at most sqrt(n / 4096) off in ratio. All-distinct is
  // the estimator's hardest case (every sampled key is a singleton).
  const double band = std::sqrt(static_cast<double>(n) / 4096.0);
  EXPECT_GE(static_cast<double>(estimate), static_cast<double>(n) / band);
}

TEST(CardinalityEstimateTest, CyclicKeysDoNotResonateWithTheStride) {
  // keys[i] = i mod C: a stride sharing a factor with C samples only a
  // subset of the residues. The coprime-stride walk must still see ~all C
  // groups. C divides n here, the worst alignment.
  const size_t n = 1 << 20;
  const size_t cycle = 1 << 14;  // 16384 groups, gcd(n/4096, cycle) = 256.
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = i % cycle;
  const size_t estimate = EstimateGroupCardinality(keys.data(), n);
  EXPECT_LE(estimate, n);
  const double band = std::sqrt(static_cast<double>(n) / 4096.0);
  EXPECT_GE(static_cast<double>(estimate),
            static_cast<double>(cycle) / band);
}

TEST(CardinalityEstimateTest, ZipfExponentOneStaysInBounds) {
  // Heavy skew (e = 1.0): most rows are hot ranks, the tail is sparse.
  // The estimate must stay within [1, n] and not collapse below the
  // sample's own distinct count by construction.
  const size_t n = 1 << 20;
  const uint64_t cardinality = 100000;
  ZipfGenerator zipf(cardinality, 1.0);
  Rng rng(0x5eed5eed5eed5eedULL);
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = zipf.Next(rng);
  const size_t estimate = EstimateGroupCardinality(keys.data(), n);
  EXPECT_GE(estimate, 1u);
  EXPECT_LE(estimate, n);
  EXPECT_LE(estimate, static_cast<size_t>(cardinality) * 16);
}

}  // namespace
}  // namespace memagg
