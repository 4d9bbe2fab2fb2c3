// Shared plumbing for the figure-reproduction benches: Table I banner,
// parallel parameter sweeps, uniform table output, and the machine-readable
// BENCH_*.json emission layer every perf bench reports through.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "core/experiment.hpp"

namespace sdsi::bench {

// --- Machine-readable results (BENCH_*.json) --------------------------------
//
// Every perf bench can emit its results as JSON so successive PRs are
// measured against a recorded baseline instead of prose. Schema (v1):
//
//   {
//     "schema_version": 1,
//     "suite": "<bench family>",
//     "benchmarks": [
//       {"name": "...", "config": "...", "threads": 1,
//        "ops_per_sec": 1.0, "wall_ms": 1.0},
//       ...
//     ]
//   }
//
// `name` identifies the code path, `config` the workload point (sizes,
// radii, window lengths), `ops_per_sec` the headline throughput, and
// `wall_ms` the total measured wall time backing it. `threads` is always 1:
// every bench runs serially, and the key stays so v1 readers keep their
// shape. Rows that track memory additionally carry `peak_rss_kb`
// (process high-water resident set, additive trailing key — absent when a
// bench does not measure it, so existing documents keep their shape).

struct BenchResult {
  std::string name;
  std::string config;
  double ops_per_sec = 0.0;
  double wall_ms = 0.0;
  std::size_t peak_rss_kb = 0;  // 0 = not measured; emitted only when set
};

/// Process high-water resident set size in KiB (getrusage), or 0 where the
/// platform offers no cheap reading. The counter is process-wide and
/// monotone: in a sweep, sample it after each run and run ascending sizes
/// so every sample is dominated by its own run.
inline std::size_t current_peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  // ru_maxrss is KiB on Linux, bytes on macOS.
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss / 1024);
#else
  return static_cast<std::size_t>(usage.ru_maxrss);
#endif
#else
  return 0;
#endif
}

inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Collects BenchResult rows and writes the schema-v1 JSON document.
class JsonBenchReporter {
 public:
  explicit JsonBenchReporter(std::string suite) : suite_(std::move(suite)) {}

  void add(BenchResult result) { results_.push_back(std::move(result)); }

  bool empty() const noexcept { return results_.empty(); }

  /// Writes the document; returns false (and prints to stderr) on I/O error.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return false;
    }
    out << "{\n  \"schema_version\": 1,\n  \"suite\": \""
        << json_escape(suite_) << "\",\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const BenchResult& r = results_[i];
      char numbers[200];
      if (r.peak_rss_kb > 0) {
        std::snprintf(numbers, sizeof(numbers),
                      "\"threads\": 1, \"ops_per_sec\": %.6g, "
                      "\"wall_ms\": %.6g, \"peak_rss_kb\": %zu",
                      r.ops_per_sec, r.wall_ms, r.peak_rss_kb);
      } else {
        std::snprintf(numbers, sizeof(numbers),
                      "\"threads\": 1, \"ops_per_sec\": %.6g, "
                      "\"wall_ms\": %.6g",
                      r.ops_per_sec, r.wall_ms);
      }
      out << "    {\"name\": \"" << json_escape(r.name) << "\", \"config\": \""
          << json_escape(r.config) << "\", " << numbers << "}"
          << (i + 1 < results_.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
  }

 private:
  std::string suite_;
  std::vector<BenchResult> results_;
};

/// Extracts `<flag> <value>` from argv (removing both tokens); returns the
/// value or "" when the flag is absent. Leaves every other argument intact
/// so harness-specific flags (google-benchmark's, a bench's own) still
/// parse. A trailing flag with no value prints usage and exits 2: running
/// on without the output the caller asked for would hide the mistake.
inline std::string consume_value_flag(int& argc, char** argv,
                                      const std::string& flag) {
  std::string value;
  int write_at = 1;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      if (i + 1 == argc) {
        std::fprintf(stderr, "%s: %s needs a value\nusage: %s ... %s <value>\n",
                     argv[0], flag.c_str(), argv[0], flag.c_str());
        std::exit(2);
      }
      value = argv[++i];
      continue;
    }
    argv[write_at++] = argv[i];
  }
  argc = write_at;
  return value;
}

/// Extracts `--json <path>`: the BENCH_*.json output location.
inline std::string consume_json_flag(int& argc, char** argv) {
  return consume_value_flag(argc, argv, "--json");
}

/// Extracts a boolean flag such as `--smoke` from argv; true if present.
inline bool consume_flag(int& argc, char** argv, const std::string& flag) {
  bool found = false;
  int write_at = 1;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      found = true;
      continue;
    }
    argv[write_at++] = argv[i];
  }
  argc = write_at;
  return found;
}

/// The node counts of Section V ("the number of nodes varied from 50 to
/// 500").
inline std::vector<std::size_t> paper_node_counts() {
  return {50, 100, 200, 300, 500};
}

inline core::ExperimentConfig paper_experiment(std::size_t nodes,
                                               std::uint64_t seed = 42) {
  core::ExperimentConfig config;
  config.num_nodes = nodes;
  config.seed = seed;
  config.warmup = sim::Duration::seconds(80);
  config.measure = sim::Duration::seconds(60);
  return config;
}

/// Prints the Table I banner so every bench states its workload.
inline void print_workload_banner(const core::WorkloadConfig& workload) {
  std::printf(
      "Table I workload: PMIN %.0fms PMAX %.0fms BSPAN %.0fms QRATE %.1fq/s "
      "QMIN %.0fs QMAX %.0fs NPER %.0fms radius %.2f\n",
      workload.stream_period_min.as_millis(),
      workload.stream_period_max.as_millis(),
      workload.mbr_lifespan.as_millis(), workload.query_rate_per_sec,
      workload.query_lifespan_min.as_seconds(),
      workload.query_lifespan_max.as_seconds(),
      workload.notify_period.as_millis(), workload.query_radius);
}

/// Runs one experiment per config, in parallel (each simulation is
/// self-contained and deterministic). Results keep input order.
inline std::vector<std::unique_ptr<core::Experiment>> run_sweep(
    const std::vector<core::ExperimentConfig>& configs) {
  std::vector<std::unique_ptr<core::Experiment>> experiments;
  experiments.reserve(configs.size());
  for (const core::ExperimentConfig& config : configs) {
    experiments.push_back(std::make_unique<core::Experiment>(config));
  }
  {
    std::vector<std::jthread> workers;
    workers.reserve(experiments.size());
    for (auto& experiment : experiments) {
      workers.emplace_back([&experiment] { experiment->run(); });
    }
  }
  return experiments;
}

}  // namespace sdsi::bench
