// The one latency summary every workload reports: the median, the highest
// percentile that still has at least kTailMargin samples above it, and the
// sample count. Percentiles use the nearest-rank rule on the sorted sample.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples a reported tail percentile must leave above it.
inline constexpr size_t kTailMargin = 10;

/// Percentiles a tail may be reported at, in basis points (1/100 %).
inline constexpr uint32_t kTailBasisPoints[] = {5000, 9000, 9900, 9990};

struct Summary {
  size_t count = 0;
  double median = 0;
  /// Percentile the tail is reported at (0 when the sample is empty).
  double tail_pct = 0;
  double tail = 0;
};

/// Nearest-rank percentile: the ceil(bp/10000 * n)-th smallest sample of an
/// ascending, non-empty sample (integer arithmetic, so 99% of 1000 samples
/// is exactly the 990th).
double NearestRank(const std::vector<double>& sorted, uint32_t bp);

/// Summarizes `samples` with the tail at the highest percentile of
/// kTailBasisPoints, up to `max_bp`, that leaves kTailMargin samples above
/// its rank. A sample too small for any such percentile reports its median
/// as the tail.
Summary Summarize(std::vector<double> samples, uint32_t max_bp);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
