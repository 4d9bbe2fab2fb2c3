// sdsi_bench: one benchmark workload per process.
//
//   sdsi_bench --workload W --seed S --seconds T [--trace] [--smoke]
//              --json RESULTS.json [--spans SPANS.jsonl]
//
// Writes the workload's metrics, attempt/failure counts and correctness
// verdict to RESULTS.json and any failed check to stderr. Exit status 0 when
// every output checked out, 1 when one did not, 2 on bad usage.
// benchmark/run is the front end that builds this binary and drives it.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/json.hpp"
#include "report.hpp"
#include "ring.hpp"
#include "sim.hpp"

namespace {

using namespace sdsi::bench;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sdsi_bench --workload ring-ingest|ring-match|"
               "ring-reliable|sim-chord --seed S --seconds T [--trace] "
               "[--smoke] --json PATH [--spans PATH]\n");
  std::exit(2);
}

bool write_report(const RunReport& report, const BenchOptions& options,
                  const std::string& path) {
  sdsi::obs::Json doc = sdsi::obs::Json::object();
  doc["schema"] = "sdsi.bench.result";
  doc["version"] = 1;
  doc["workload"] = report.workload;
  doc["seed"] = options.seed;
  doc["seconds"] = options.seconds;
  doc["trace"] = options.trace;
  doc["smoke"] = options.smoke;
  doc["correct"] = report.correct;
  doc["attempted"] = report.attempted;
  doc["failed"] = report.failed;
  sdsi::obs::Json problems = sdsi::obs::Json::array();
  for (const std::string& problem : report.problems) {
    problems.push_back(problem);
  }
  doc["problems"] = std::move(problems);
  sdsi::obs::Json metrics = sdsi::obs::Json::object();
  for (const Metric& metric : report.metrics) {
    sdsi::obs::Json entry = sdsi::obs::Json::object();
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
    metrics[metric.name] = std::move(entry);
  }
  doc["metrics"] = std::move(metrics);
  std::ofstream out(path, std::ios::trunc);
  out << doc.dump(2) << '\n';
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options;
  std::string workload;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        workload = next();
      } else if (arg == "--seed") {
        options.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(next());
      } else if (arg == "--trace") {
        options.trace = true;
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--json") {
        json_path = next();
      } else if (arg == "--spans") {
        options.spans_path = next();
      } else {
        usage();
      }
    } catch (const std::exception&) {
      usage();
    }
  }
  if (json_path.empty() || !(options.seconds > 0.0)) {
    usage();
  }
  if (!is_ring_workload(workload) && workload != kSimWorkload) {
    usage();
  }
  RunReport report;
  try {
    report = is_ring_workload(workload) ? run_ring(workload, options)
                                        : run_sim(options);
  } catch (const std::exception& error) {
    report = RunReport{};
    report.workload = workload;
    report.fail(error.what());
  }
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "%s: FAILED: %s\n", report.workload.c_str(),
                 problem.c_str());
  }
  if (!write_report(report, options, json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return report.correct ? 0 : 1;
}
