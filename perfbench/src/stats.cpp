#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile out of (0, 100]: " + std::to_string(p));
  }
  const std::size_t n = samples.size();
  // Nearest rank: the smallest sample with at least p% of the samples at or
  // below it; everything after that rank lies beyond the percentile.
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  const std::size_t beyond = n - std::min(rank, n);
  if (n == 0 || beyond < kMinSamplesBeyond) {
    throw std::invalid_argument("p" + std::to_string(p) + " over " + std::to_string(n) +
                                " samples leaves " + std::to_string(beyond) +
                                " beyond it; need " + std::to_string(kMinSamplesBeyond));
  }
  const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
