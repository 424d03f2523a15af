#include "core/advisor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

namespace memagg {

std::string RecommendAlgorithm(const WorkloadProfile& profile) {
  // Figure 12, left branch: scalar output.
  if (profile.output == OutputFormat::kScalar) {
    // WORO workload: sort and read the middle once — Spreadsort was the
    // overall fastest (Section 5.7). A reusable structure favors Judy.
    return profile.worm ? "Judy" : "Spreadsort";
  }

  // Right branch: vector output.
  if (profile.category == FunctionCategory::kHolistic) {
    // Holistic aggregates: sorting wins (Sections 5.2, 5.8, 6). Which sort
    // depends on key width: Spreadsort's byte-oriented passes pay per key
    // byte, so past half the word the comparison sort takes over
    // (arXiv 2411.13245 measures the same crossover for radix kernels).
    if (profile.num_threads > 1) return "Sort_BI";
    return profile.key_width_bits > 32 ? "Introsort" : "Spreadsort";
  }

  // Distributive / algebraic.
  if (profile.has_range_condition) {
    // Range search: Btree if the index is prebuilt (leaf links make the
    // scan cheap); otherwise ART, whose build time dominates (Section 5.6).
    return profile.prebuilt_index ? "Btree" : "ART";
  }
  // Multithreaded: per-worker tables merged once (Hash_PLocal), not the
  // paper's shared concurrent table (Hash_TBBSC). With few groups every row
  // of a shared table is a contended update on the same slots; thread-local
  // pre-aggregation touches no shared state until the merge (arXiv
  // 2411.13245 and 2010.00152 find the same; EXPERIMENTS.md has the
  // end-to-end numbers).
  return profile.num_threads > 1 ? "Hash_PLocal" : "Hash_LP";
}

WorkloadProfile ProfileForQuery(const Query& query, bool worm,
                                bool prebuilt_index, int num_threads) {
  WorkloadProfile profile;
  profile.output = query.output;
  profile.category = query.category();
  profile.worm = worm;
  profile.has_range_condition = query.has_range_condition;
  profile.prebuilt_index = prebuilt_index;
  profile.num_threads = num_threads;
  return profile;
}

std::string ExplainRecommendation(const WorkloadProfile& profile) {
  std::string explanation = "output=";
  explanation +=
      profile.output == OutputFormat::kScalar ? "scalar" : "vector";
  if (profile.output == OutputFormat::kScalar) {
    explanation += profile.worm ? " -> WORM workload -> reusable index"
                                : " -> WORO workload -> one-shot sort";
  } else {
    switch (profile.category) {
      case FunctionCategory::kHolistic:
        explanation += " -> holistic aggregate -> sort-based";
        if (profile.num_threads <= 1) {
          explanation += profile.key_width_bits > 32
                             ? " (wide key: comparison sort)"
                             : " (narrow key: byte-radix sort)";
        }
        break;
      case FunctionCategory::kAlgebraic:
      case FunctionCategory::kDistributive:
        explanation += " -> distributive/algebraic";
        if (profile.has_range_condition) {
          explanation += " -> range search -> tree-based";
          explanation += profile.prebuilt_index ? " (index prebuilt)"
                                                : " (index must be built)";
        } else {
          explanation += " -> hash-based";
          if (profile.num_threads > 1) {
            explanation += " (per-worker tables, merged once)";
          }
        }
        break;
    }
  }
  if (profile.num_threads > 1) explanation += " (multithreaded)";
  explanation += " => " + RecommendAlgorithm(profile);
  return explanation;
}

size_t EstimateGroupCardinality(const uint64_t* keys, size_t n) {
  if (n == 0) return 0;
  constexpr size_t kSampleSize = 4096;
  if (n <= kSampleSize) {
    // Small input: count distinct keys exactly.
    std::unordered_map<uint64_t, uint32_t> counts;
    counts.reserve(n * 2);
    for (size_t i = 0; i < n; ++i) ++counts[keys[i]];
    return counts.size();
  }
  // Strided deterministic sample of exactly kSampleSize rows, then the GEE
  // estimator (Charikar et al.): keys seen once in the sample are scaled by
  // sqrt(n/r) — they are the evidence for unseen groups — while repeated
  // keys count once.
  //
  // The stride is nudged to be coprime with n and walked with mod-n
  // wraparound: the naive stride n/kSampleSize resonates with cyclic key
  // layouts (keys[i] = i mod C with gcd(stride, C) > 1 only ever visits a
  // fraction of the residues and collapses the estimate). A coprime stride
  // makes the walk a full cycle through [0, n), so every position — hence
  // every residue class of any period — is reachable and the kSampleSize
  // probe positions are distinct.
  size_t stride = n / kSampleSize;
  while (std::gcd(stride, n) != 1) ++stride;
  std::unordered_map<uint64_t, uint32_t> counts;
  counts.reserve(kSampleSize * 2);
  size_t sampled = 0;
  size_t index = 0;
  for (size_t s = 0; s < kSampleSize; ++s) {
    ++counts[keys[index]];
    ++sampled;
    index += stride;
    if (index >= n) index -= n;
  }
  size_t singletons = 0;
  for (const auto& [key, count] : counts) {
    if (count == 1) ++singletons;
  }
  const double scale =
      std::sqrt(static_cast<double>(n) / static_cast<double>(sampled));
  const double estimate =
      scale * static_cast<double>(singletons) +
      static_cast<double>(counts.size() - singletons);
  const size_t distinct_in_sample = counts.size();
  return std::clamp(static_cast<size_t>(estimate), distinct_in_sample, n);
}

}  // namespace memagg
