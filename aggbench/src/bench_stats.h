// The benchmark's own arithmetic: latency percentiles, quartiles, and the
// per-query residual that no program phase accounts for. Kept apart from
// main.cc so aggbench/tests/aggbench_test.cc can check it directly.

#ifndef AGGBENCH_BENCH_STATS_H_
#define AGGBENCH_BENCH_STATS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "obs/query_stats.h"

namespace aggbench {

/// Samples that must lie beyond a reported percentile (strictly above its
/// rank), so that a percentile rests on at least this many observations.
inline constexpr size_t kTailSamples = 10;

/// True when `n` samples support the `percent`-th percentile: at least
/// kTailSamples of them lie beyond it, i.e. n * (100 - percent) / 100 >= 10.
/// p50 needs 20 samples and p90 needs 100.
inline bool PercentileSupported(size_t n, int percent) {
  if (percent < 0 || percent >= 100) return false;
  return n * static_cast<size_t>(100 - percent) >= kTailSamples * 100;
}

/// Nearest-rank percentile: the smallest sample with at least `percent`% of
/// the samples at or below it. Returns nullopt when the sample count does
/// not support the percentile (PercentileSupported), so a caller cannot
/// label a p90 computed from fewer than 100 samples.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        int percent) {
  if (!PercentileSupported(samples.size(), percent)) return std::nullopt;
  size_t rank = (samples.size() * static_cast<size_t>(percent) + 99) / 100;
  if (rank > 0) --rank;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

/// Median of any non-empty sample (no tail rule: used for per-layer medians
/// and set-up repetitions, never labelled as a latency percentile). The mean
/// of the two middle values for even counts.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2;
}

/// First, second and third quartiles by the same rule as Python's
/// statistics.quantiles(data, n=4) (the default "exclusive" method), so the
/// quartiles the benchmark prints match the ones aggbench/spread.py computes
/// over runs. Needs at least two samples.
inline std::optional<std::array<double, 3>> Quartiles(
    std::vector<double> samples) {
  const size_t n = samples.size();
  if (n < 2) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  std::array<double, 3> q{};
  const size_t m = n + 1;
  for (size_t i = 1; i <= 3; ++i) {
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    q[i - 1] = (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  }
  return q;
}

/// A query's wall time that the program's own build and iterate phases do
/// not cover: filter, encode, gather, operator construction, alignment,
/// ordering, decode and teardown (everything ExecuteTableQuery does outside
/// ExecuteVectorQuery's two clocks). `stats` must come from the same call
/// as `wall_ms`.
inline double OutsideMillis(double wall_ms, const memagg::QueryStats& stats) {
  return wall_ms - stats.PhaseMillis(memagg::StatPhase::kBuild) -
         stats.PhaseMillis(memagg::StatPhase::kIterate);
}

}  // namespace aggbench

#endif  // AGGBENCH_BENCH_STATS_H_
