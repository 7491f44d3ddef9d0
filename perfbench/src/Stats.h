//===- Stats.h - Summary statistics of the benchmark -------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least Q of the
/// samples at or below it (rank ceil(Q * N), clamped to [1, N]). Q in
/// (0, 1]; 0 for an empty sample.
inline double percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double Exact = Q * double(Samples.size());
  size_t Rank = size_t(std::ceil(Exact - 1e-9));
  Rank = std::clamp<size_t>(Rank, 1, Samples.size());
  return Samples[Rank - 1];
}

/// Samples strictly above the Q-th nearest-rank percentile: the guide's
/// "at least ten samples beyond it" condition for reporting a tail.
inline size_t samplesBeyond(size_t N, double Q) {
  if (N == 0)
    return 0;
  size_t Rank =
      std::clamp<size_t>(size_t(std::ceil(Q * double(N) - 1e-9)), 1, N);
  return N - Rank;
}

/// Geometric mean of positive samples; 0 for an empty sample.
inline double geomean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0.0;
  double LogSum = 0;
  for (double V : Samples)
    LogSum += std::log(V);
  return std::exp(LogSum / double(Samples.size()));
}

inline double mean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0.0;
  double Sum = 0;
  for (double V : Samples)
    Sum += V;
  return Sum / double(Samples.size());
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
