// stats.hpp — latency percentiles for chantbench.
//
// A percentile is reported only when the run leaves at least
// kTailSamples samples beyond it; p50 is the median. Percentiles are
// given in hundredths of a percent (9900 = p99) so rank arithmetic is
// exact integer math.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cb {

inline constexpr std::size_t kTailSamples = 10;

/// 1-based nearest rank of percentile `q_cp` (hundredths of a percent)
/// among `n` samples: ceil(q * n).
inline std::size_t percentile_rank(std::size_t n, std::uint32_t q_cp) {
  const std::size_t r = (static_cast<std::size_t>(q_cp) * n + 9999) / 10000;
  return std::clamp<std::size_t>(r, 1, n);
}

/// True when percentile `q_cp` leaves at least kTailSamples samples
/// ranked beyond it.
inline bool percentile_supported(std::size_t n, std::uint32_t q_cp) {
  return n > 0 && n - percentile_rank(n, q_cp) >= kTailSamples;
}

/// The highest of p50/p90/p99/p99.9/p99.99 that `n` samples support, in
/// hundredths of a percent; 0 when not even the median is supported.
inline std::uint32_t highest_supported_percentile(std::size_t n) {
  for (std::uint32_t q : {9999u, 9990u, 9900u, 9000u, 5000u}) {
    if (percentile_supported(n, q)) return q;
  }
  return 0;
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
template <typename T>
double percentile_sorted(const std::vector<T>& sorted, std::uint32_t q_cp) {
  return static_cast<double>(sorted[percentile_rank(sorted.size(), q_cp) - 1]);
}

}  // namespace cb
