#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  // A tiny epsilon keeps p * n that is an exact integer in real numbers
  // (0.99 * 1000) from rounding up a rank through binary error.
  auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) { return n - NearestRank(n, p); }

std::vector<double> GroupMedians(
    const std::vector<std::vector<double>>& groups) {
  std::vector<double> out;
  for (const std::vector<double>& g : groups) {
    if (!g.empty()) out.push_back(Median(g));
  }
  return out;
}

std::vector<double> GroupMinima(
    const std::vector<std::vector<double>>& groups) {
  std::vector<double> out;
  for (const std::vector<double>& g : groups) {
    if (!g.empty()) out.push_back(*std::min_element(g.begin(), g.end()));
  }
  return out;
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
