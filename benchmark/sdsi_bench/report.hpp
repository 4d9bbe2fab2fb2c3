// What one benchmark process reports: its metrics, the attempt/failure
// counts, and whether every output checked out.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <time.h>

namespace sdsi::bench {

/// Detection pairs a timed window needs before its p99 means anything.
inline constexpr std::size_t kMinDetectPairs = 1000;
/// Spans kept for spans.jsonl (totals count every span).
inline constexpr std::size_t kSpanKeepLimit = 200'000;

struct BenchOptions {
  std::uint64_t seed = 1;
  /// Length of the timed window (wall seconds on the rings; the simulated
  /// window is scaled from it, see sim.cpp).
  double seconds = 10.0;
  bool trace = false;
  /// Shortened phases for the build check: correctness only.
  bool smoke = false;
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& metric : metrics) {
      if (metric.name == name) {
        metric.value = value;
        metric.unit = unit;
        return;
      }
    }
    metrics.push_back(Metric{name, value, unit});
  }

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// CPU time (user + system, all threads) of this process, in seconds.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The process's peak resident set growth over one pass: the pass starts
/// by resetting the kernel's peak mark to the current RSS (Linux
/// /proc/self/clear_refs), so inputs and reference data generated earlier
/// do not count. Throws when the mark cannot be reset, so the metric keeps
/// one definition.
class PeakRss {
 public:
  PeakRss() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    if (!clear) {
      throw std::runtime_error(
          "cannot reset the peak RSS mark through /proc/self/clear_refs");
    }
    baseline_mb_ = status_mb("VmRSS:");
  }

  double growth_mb() const { return status_mb("VmHWM:") - baseline_mb_; }

 private:
  static double status_mb(const std::string& field) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind(field, 0) == 0) {
        return std::stod(line.substr(field.size())) / 1024.0;  // kB
      }
    }
    return 0.0;
  }

  double baseline_mb_ = 0.0;
};

}  // namespace sdsi::bench
