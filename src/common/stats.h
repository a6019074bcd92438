// Latency/throughput statistics collection for the experiment harness.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "common/types.h"

namespace papm {

// Accumulates samples (e.g. per-request RTTs in ns) and reports summary
// statistics. Percentile queries sort a copy lazily.
//
// Samples live in a deque, not a vector: a long run adds them in fixed
// blocks, so memory grows by one block at a time. A vector would double
// and copy its buffer, and where the run stopped relative to a doubling
// would decide the process's peak RSS.
class Stats {
 public:
  void add(double sample) {
    samples_.push_back(sample);
    sum_ += sample;
    sorted_ = false;
  }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
  }
  // Nearest-rank percentile: the smallest sample whose cumulative
  // frequency covers p% of the distribution. p is clamped to [0, 100];
  // p <= 0 returns the minimum, empty returns 0, a single sample is
  // returned for every p. Always an actual sample — never interpolated.
  [[nodiscard]] double percentile(double p) const;

  // Folds another collection's samples into this one. Multi-client-host
  // sweeps (bench_openloop beyond the u16 ephemeral-port limit) merge
  // per-host distributions into one before taking percentiles.
  void merge_from(const Stats& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sum_ += other.sum_;
    sorted_ = false;
  }

  void clear() {
    samples_.clear();
    sum_ = 0;
    sorted_ = false;
  }

 private:
  void ensure_sorted() const;

  std::deque<double> samples_;
  double sum_ = 0;
  mutable std::vector<double> sorted_samples_;
  mutable bool sorted_ = false;
};

}  // namespace papm
