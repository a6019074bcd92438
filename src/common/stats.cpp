#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace papm {

void Stats::ensure_sorted() const {
  if (sorted_) return;
  sorted_samples_.assign(samples_.begin(), samples_.end());
  std::sort(sorted_samples_.begin(), sorted_samples_.end());
  sorted_ = true;
}

double Stats::min() const {
  ensure_sorted();
  return sorted_samples_.empty() ? 0.0 : sorted_samples_.front();
}

double Stats::max() const {
  ensure_sorted();
  return sorted_samples_.empty() ? 0.0 : sorted_samples_.back();
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

double Stats::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

std::string Stats::hist(int buckets, int width) const {
  ensure_sorted();
  if (sorted_samples_.empty()) return "(no samples)\n";
  if (buckets < 1) buckets = 1;
  if (width < 1) width = 1;
  const double lo = sorted_samples_.front();
  const double hi = sorted_samples_.back();
  // Degenerate span (all samples equal): one full-width row.
  const double span = hi > lo ? hi - lo : 1.0;
  std::vector<std::size_t> counts(static_cast<std::size_t>(buckets), 0);
  for (double s : sorted_samples_) {
    auto b = static_cast<std::size_t>((s - lo) / span *
                                      static_cast<double>(buckets));
    if (b >= counts.size()) b = counts.size() - 1;  // s == hi
    counts[b]++;
  }
  const std::size_t peak = *std::max_element(counts.begin(), counts.end());
  std::string out;
  char buf[128];
  for (int b = 0; b < buckets; b++) {
    const double from = lo + span * b / buckets;
    const double to = lo + span * (b + 1) / buckets;
    const auto bar = static_cast<int>(
        static_cast<double>(counts[static_cast<std::size_t>(b)]) /
        static_cast<double>(peak) * width);
    std::snprintf(buf, sizeof buf, "%12.1f..%-12.1f |%-*s %zu\n", from, to,
                  width, std::string(static_cast<std::size_t>(bar), '#').c_str(),
                  counts[static_cast<std::size_t>(b)]);
    out += buf;
  }
  return out;
}

std::string format_us(double ns, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, ns / 1000.0);
  return buf;
}

}  // namespace papm
