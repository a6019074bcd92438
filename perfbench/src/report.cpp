#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() + 1) - 1.0;
  if (pos <= 0) return v.front();
  if (pos >= static_cast<double>(v.size() - 1)) return v.back();
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Report::Report(const Args& args) {
  info("workload", args.workload);
  info("seed", static_cast<double>(args.seed));
  info("seconds", args.seconds);
  info("trace", args.trace ? "on" : "off");
  info("git_sha", args.git_sha);
  info("source_digest", args.source_digest);
  info("build_type", PERFBENCH_BUILD_TYPE);
#ifdef PAPM_OBS_DISABLED
  info("obs", "off");
#else
  info("obs", "on");
#endif
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::samples(const std::string& name, u64 n) {
  samples_.emplace_back(name, n);
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, quoted(value));
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, num(value));
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::fail(u64 n, const std::string& why) {
  if (n == 0) return;
  failed_ += n;
  correct_ = false;
  failures_.push_back(std::to_string(n) + " x " + why);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  failures_.push_back("check failed: " + what);
}

void Report::print() const {
  for (const auto& line : notes_) std::printf("%s\n", line.c_str());
  std::printf("\n%-36s %18s  %s\n", "metric", "value", "unit");
  for (const auto& m : metrics_) {
    std::printf("%-36s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& f : failures_) std::printf("FAIL: %s\n", f.c_str());
  std::printf("correct: %s (attempted %llu, failed %llu)\n",
              correct_ ? "yes" : "NO",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));

  std::string rec = "{\"correct\": ";
  rec += correct_ ? "true" : "false";
  rec += ", \"attempted\": " + std::to_string(attempted_);
  rec += ", \"failed\": " + std::to_string(failed_);
  rec += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); i++) {
    if (i != 0) rec += ", ";
    rec += quoted(metrics_[i].name) + ": {\"value\": " +
           num(metrics_[i].value) + ", \"unit\": " +
           quoted(metrics_[i].unit) + "}";
  }
  rec += "}, \"samples\": {";
  for (std::size_t i = 0; i < samples_.size(); i++) {
    if (i != 0) rec += ", ";
    rec += quoted(samples_[i].first) + ": " +
           std::to_string(samples_[i].second);
  }
  rec += "}, \"info\": {";
  for (std::size_t i = 0; i < info_.size(); i++) {
    if (i != 0) rec += ", ";
    rec += quoted(info_[i].first) + ": " + info_[i].second;
  }
  rec += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); i++) {
    if (i != 0) rec += ", ";
    rec += quoted(failures_[i]);
  }
  rec += "]}";
  std::printf("%s\n", rec.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
