#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace papm {

void Stats::ensure_sorted() const {
  if (sorted_) return;
  sorted_samples_.assign(samples_.begin(), samples_.end());
  std::sort(sorted_samples_.begin(), sorted_samples_.end());
  sorted_ = true;
}

double Stats::percentile(double p) const {
  ensure_sorted();
  if (sorted_samples_.empty()) return 0.0;
  if (p <= 0.0) return sorted_samples_.front();
  if (p >= 100.0) return sorted_samples_.back();
  // Nearest rank: ceil(p/100 * N), 1-based, clamped to [1, N]. Always an
  // actual sample, so a single-sample distribution answers that sample
  // for every p and no query can index past the ends.
  const std::size_t n = sorted_samples_.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::max<std::size_t>(1, std::min(rank, n));
  return sorted_samples_[rank - 1];
}

}  // namespace papm
