// Summary statistics the benchmark reports: nearest-rank percentiles,
// the "at least ten samples beyond" rule for tail percentiles, medians,
// each group's median or fastest sample, and the geometric mean over
// groups (the TPC-H power-style view, every query weighted equally).
#ifndef PDTSTORE_PERFBENCH_STATS_H_
#define PDTSTORE_PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile `p` (0 < p <= 1) in `n` samples:
/// the smallest rank r with r >= p * n. 0 when n == 0.
size_t NearestRank(size_t n, double p);

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
double Percentile(std::vector<double> samples, double p);

/// Median (nearest-rank p50).
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Number of samples ranked strictly beyond percentile `p`'s sample.
size_t SamplesBeyond(size_t n, double p);

/// Each non-empty group's median, in group order.
std::vector<double> GroupMedians(
    const std::vector<std::vector<double>>& groups);

/// Each non-empty group's smallest sample, in group order.
std::vector<double> GroupMinima(
    const std::vector<std::vector<double>>& groups);

/// Geometric mean of positive values; 0 for an empty set.
double Geomean(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PDTSTORE_PERFBENCH_STATS_H_
