// Run plumbing shared by the workloads: arguments, wall timers, order
// statistics and the Report every workload fills in. A Report prints a
// human table (name, value, unit) and ends the run with one JSON record
// on the last line of stdout; perfbench/run.py turns that record into
// the benchmark's result line.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace perfbench {

using papm::SimTime;
using papm::u64;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Order statistics over a sample set, interpolated between neighbours
// (Python's statistics.quantiles "exclusive" convention for quartiles).
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);
// Peak resident set of this process so far (getrusage), in MB.
double peak_rss_mb();

class Report {
 public:
  explicit Report(const Args& args);

  // A measured value. Printed in the table and kept in the record.
  void metric(const std::string& name, double value, const std::string& unit);
  // The number of samples a percentile metric was taken over.
  void samples(const std::string& name, u64 n);
  // Context: provenance, configuration, counts. Not a metric.
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  // A free-form line for the human output (tables, checks).
  void note(const std::string& line);

  void attempt(u64 n) { attempted_ += n; }
  // Counts n failed operations; any failure makes the run incorrect.
  void fail(u64 n, const std::string& why);
  // A failed check that is not an operation (e.g. an identity check).
  void check(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] u64 attempted() const { return attempted_; }
  [[nodiscard]] u64 failed() const { return failed_; }

  // Prints the table, the notes and, last, the JSON record.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, u64>> samples_;
  std::vector<std::pair<std::string, std::string>> info_;  // JSON values
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
  bool correct_ = true;
};

// Formats a double with every significant digit (%.17g).
std::string num(double v);

}  // namespace perfbench
