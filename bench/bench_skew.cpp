// Adversarial-skew bench (BENCH_skew.json): how unevenly does a flash crowd
// load the ring, and does load shedding degrade recall gracefully?
//
// Canonical scenario: the stock-market family with the full adversarial
// stack — Zipf pattern pool, Zipf client placement, and a sector-correlated
// flash crowd 10 s into the measurement window. The crowd marches every
// ticker of one sector onto a narrow ring arc while the query boost piles
// subscriptions onto the same arc, so one node ends up doing orders of
// magnitude more index work than the median.
//
// Two measurements:
//
//  1. Imbalance: the scenario without overload control; we record per-node
//     message load and index work p99/median from the robustness report.
//
//  2. Recall-vs-shed curve: the same scenario with the recall oracle on and
//     forced_shed_rate swept over {0, 0.25, 0.5, 0.75, 0.9} (smoke: three
//     points). Recall must degrade monotonically (tolerance 0.02 — nearby
//     rates can tie) and every shed/backpressure event must surface in the
//     unified drops table: shed_mbrs == drops[shed_overload] and
//     backpressure_drops == drops[backpressure], with no other cause
//     charged. A violation is a wiring bug and fails the bench.
//
// Flags: --smoke (smaller ring, shorter windows), --json PATH
// (BENCH_skew.json location).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"

namespace {

using namespace sdsi;

core::ExperimentConfig skew_scenario(std::size_t nodes, sim::Duration warmup,
                                     sim::Duration measure) {
  core::ExperimentConfig config;
  config.num_nodes = nodes;
  config.seed = 42;
  config.stream_family = core::StreamFamily::kStockMarket;
  config.warmup = warmup;
  config.measure = measure;
  // Reports still in flight when the measurement ends reach their clients
  // during the drain instead of reading as recall loss; the recall curve
  // has always been taken with this 20 s drain.
  config.drain = sim::Duration::seconds(20);

  streams::AdversarialSpec adv;
  adv.pattern_pool = 8;
  adv.zipf_exponent = 1.1;
  adv.zipf_clients = true;
  adv.placement_skew = 2.0;
  streams::FlashCrowd crowd;
  crowd.at_seconds = warmup.as_seconds() + 10.0;
  adv.flash_crowd = crowd;
  config.adversarial = adv;
  return config;
}

struct SkewPoint {
  double message_ratio = 0.0;  // per-node message load p99 / median
  double work_ratio = 0.0;     // per-node index work p99 / median
  double recall = 0.0;
  std::uint64_t shed = 0;
  std::uint64_t backpressure_drops = 0;
  double wall_ms = 0.0;
  bool drops_accounted = true;
};

SkewPoint run_point(const core::ExperimentConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  core::Experiment experiment(config);
  experiment.run();
  const auto stop = std::chrono::steady_clock::now();

  const core::RobustnessReport r = experiment.robustness_report();
  SkewPoint point;
  point.message_ratio = r.message_load_p99_over_median;
  point.work_ratio = r.work_p99_over_median;
  point.recall = r.recall;
  point.shed = r.shed_mbrs;
  point.backpressure_drops = r.backpressure_drops;
  point.wall_ms =
      std::chrono::duration<double>(stop - start).count() * 1e3;

  // Zero unaccounted drops: overload sheds must land in the unified drops
  // table under their own cause, and nothing else may be charged (the
  // scenario configures no link loss, crashes, or partitions).
  std::uint64_t other = 0;
  for (std::size_t c = 0; c < r.drops_by_cause.size(); ++c) {
    const auto cause = static_cast<fault::DropCause>(c);
    if (cause != fault::DropCause::kShedOverload &&
        cause != fault::DropCause::kBackpressure) {
      other += r.drops_by_cause[c];
    }
  }
  const std::uint64_t shed_cause =
      r.drops_by_cause[static_cast<std::size_t>(
          fault::DropCause::kShedOverload)];
  const std::uint64_t bp_cause =
      r.drops_by_cause[static_cast<std::size_t>(
          fault::DropCause::kBackpressure)];
  point.drops_accounted =
      other == 0 && shed_cause == point.shed &&
      bp_cause == point.backpressure_drops;
  if (!point.drops_accounted) {
    std::fprintf(stderr,
                 "unaccounted drops: shed %llu vs cause %llu, "
                 "backpressure %llu vs cause %llu, other causes %llu\n",
                 static_cast<unsigned long long>(point.shed),
                 static_cast<unsigned long long>(shed_cause),
                 static_cast<unsigned long long>(point.backpressure_drops),
                 static_cast<unsigned long long>(bp_cause),
                 static_cast<unsigned long long>(other));
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::consume_flag(argc, argv, "--smoke");
  const std::string json_path = bench::consume_json_flag(argc, argv);

  // The DFT window (256 samples at ~200 ms) takes ~50 s of simulated time to
  // fill, so even the smoke variant needs full-length windows; it saves time
  // through the smaller ring and the shorter shed sweep instead.
  const std::size_t nodes = smoke ? 40 : 60;
  const sim::Duration warmup = sim::Duration::seconds(30);
  const sim::Duration measure = sim::Duration::seconds(60);

  std::printf("=== Adversarial skew bench (%s) ===\n",
              smoke ? "smoke" : "full");
  const core::ExperimentConfig base = skew_scenario(nodes, warmup, measure);
  bench::print_workload_banner(base.workload);
  std::printf(
      "scenario: %zu nodes, stock family, Zipf pattern pool + clients, "
      "placement skew 2.0,\n          flash crowd at %.0f s\n",
      nodes, base.adversarial->flash_crowd->at_seconds);

  bench::JsonBenchReporter reporter("skew");
  bool ok = true;

  // --- Imbalance without overload control ---------------------------------
  const SkewPoint imbalance = run_point(base);
  ok = ok && imbalance.drops_accounted;
  std::printf(
      "load imbalance p99/median: messages %.2f, work %.2f\n",
      imbalance.message_ratio, imbalance.work_ratio);
  const std::string ring = "nodes=" + std::to_string(nodes);
  reporter.add(bench::BenchResult{"work_p99_over_median", ring,
                                  imbalance.work_ratio, imbalance.wall_ms});
  reporter.add(bench::BenchResult{"message_p99_over_median", ring,
                                  imbalance.message_ratio,
                                  imbalance.wall_ms});

  // --- Recall vs forced shed rate -------------------------------------------
  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 0.5, 0.9}
            : std::vector<double>{0.0, 0.25, 0.5, 0.75, 0.9};
  std::printf("\n=== Recall vs forced shed rate ===\n");
  common::TextTable curve({"Shed rate", "Recall", "Shed MBRs"});
  double previous_recall = 1.0;
  // Recall is a ratio of thousands of (query, stream) pairs; 0.02 absorbs
  // the resolution of a single query flipping while still rejecting any
  // real non-monotonicity.
  const double tolerance = 0.02;
  for (const double rate : rates) {
    core::ExperimentConfig config = base;
    config.overload.emplace().forced_shed_rate = rate;
    config.oracle_sample_period = sim::Duration::seconds(5);
    const SkewPoint point = run_point(config);
    ok = ok && point.drops_accounted;
    if (rate > 0.0 && point.shed == 0) {
      std::fprintf(stderr, "forced shed rate %.2f shed nothing\n", rate);
      ok = false;
    }
    if (point.recall > previous_recall + tolerance) {
      std::fprintf(stderr,
                   "recall not monotone: %.4f at rate %.2f exceeds prior "
                   "%.4f beyond tolerance\n",
                   point.recall, rate, previous_recall);
      ok = false;
    }
    previous_recall = point.recall;

    curve.begin_row().add_num(rate, 2);
    curve.add_num(point.recall, 4);
    curve.add_int(static_cast<long long>(point.shed));
    const std::string cfg = ring + " shed_rate=" + std::to_string(rate);
    reporter.add(
        bench::BenchResult{"recall_vs_shed", cfg, point.recall,
                           point.wall_ms});
    reporter.add(bench::BenchResult{"shed_mbrs", cfg,
                                    static_cast<double>(point.shed),
                                    point.wall_ms});
  }
  std::printf("%s", curve.render().c_str());
  std::printf("drop accounting: %s\n",
              ok ? "every drop attributed" : "FAILED");

  if (!json_path.empty() && !reporter.write(json_path)) {
    return 1;
  }
  return ok ? 0 : 1;
}
