//===- perfbench/runner/Stats.h - Sample statistics for the benchmark -----===//
//
// Part of the Incline project (CGO'19 incremental inlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The order statistics every perfbench metric is built from. Percentiles
/// use the nearest-rank rule, and a tail percentile is only reported when
/// at least ten samples lie beyond its rank: with fewer, the "p99" is really
/// the maximum of a handful of samples and flips from run to run.
///
//===----------------------------------------------------------------------===//

#ifndef INCLINE_PERFBENCH_STATS_H
#define INCLINE_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
inline constexpr size_t MinSamplesBeyond = 10;

/// 1-based nearest-rank index of percentile \p P (0 < P <= 100) among \p N
/// samples: the smallest rank whose sample is >= P percent of the data.
/// The epsilon keeps binary rounding of P * N (0.99 * 1000 is not exactly
/// 990) from bumping the rank up by one.
inline size_t nearestRank(size_t N, double P) {
  if (N == 0)
    return 0;
  double Exact = P / 100.0 * static_cast<double>(N);
  auto Rank = static_cast<size_t>(std::ceil(Exact - 1e-9));
  return std::clamp<size_t>(Rank, 1, N);
}

/// Nearest-rank percentile of \p Samples; 0 for an empty sample.
inline double percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  size_t Rank = nearestRank(Samples.size(), P);
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return Samples[Rank - 1];
}

/// Percentile \p P of \p Samples, or nothing when fewer than
/// MinSamplesBeyond samples lie beyond its rank.
inline std::optional<double>
guardedPercentile(const std::vector<double> &Samples, double P) {
  size_t N = Samples.size();
  if (N == 0 || N - nearestRank(N, P) < MinSamplesBeyond)
    return std::nullopt;
  return percentile(Samples, P);
}

/// Median (mean of the two middle samples for an even count); 0 if empty.
inline double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t Mid = Samples.size() / 2;
  if (Samples.size() % 2 == 1)
    return Samples[Mid];
  return (Samples[Mid - 1] + Samples[Mid]) / 2;
}

} // namespace perfbench

#endif // INCLINE_PERFBENCH_STATS_H
