// Order statistics for the benchmark's reported timings.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave strictly above it before it is reported
/// (a p99 over 100 samples rests on one sample and is refused).
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `p` in (0, 100] of `samples` (copied, not
/// reordered). Throws std::invalid_argument when fewer than
/// kMinSamplesBeyond samples lie beyond the percentile's rank.
double percentile(std::vector<double> samples, double p);

/// Median; the mean of the two middle samples for an even count. Throws
/// std::invalid_argument on an empty sample.
double median(std::vector<double> samples);

}  // namespace perfbench
