#include "stats.h"

#include <algorithm>

namespace perfbench {

namespace {

size_t Rank(size_t n, uint32_t bp) {
  size_t rank = (static_cast<uint64_t>(bp) * n + 9999) / 10000;
  return std::max<size_t>(rank, 1);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, uint32_t bp) {
  return sorted[Rank(sorted.size(), bp) - 1];
}

Summary Summarize(std::vector<double> samples, uint32_t max_bp) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = NearestRank(samples, 5000);
  s.tail_pct = 50;
  s.tail = s.median;
  for (uint32_t bp : kTailBasisPoints) {
    if (bp > max_bp) break;
    if (samples.size() - Rank(samples.size(), bp) < kTailMargin) break;
    s.tail_pct = bp / 100.0;
    s.tail = NearestRank(samples, bp);
  }
  return s;
}

}  // namespace perfbench
