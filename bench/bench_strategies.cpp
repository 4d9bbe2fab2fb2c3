// Cross-strategy comparison bench (BENCH_strategies.json): every built-in
// indexing strategy (core/strategy.hpp: dft, ecm, lsh) runs the identical
// Table I workload on the same seeds, and the bench reduces each run into
// the four axes the strategies actually trade against each other:
//
//   recall                    — delivered / oracle-predicted (query, stream)
//                               pairs, fault-free (the cost of lossy
//                               summaries or routing)
//   message_p99_over_median   — per-node delivered-message imbalance (how
//                               evenly the content-to-key map spreads load)
//   hops_mbr / hops_query /   — overlay hops per message class (routing
//   hops_response               locality of the key map)
//   msgs_per_query            — total delivered messages over the
//                               measurement window per posed query (the
//                               multi-probe overhead axis: lsh pays extra
//                               multicasts for its neighbor buckets)
//
// Geometry: the sweep uses a 64-sample window so a full run fits CI; the
// tradeoffs are driven by the key maps and summaries, not the window
// length. docs/STRATEGIES.md renders the resulting table and discusses it;
// tools/make_figures --strategies regenerates that table from this JSON.
//
// Flags: --smoke (one seed, smaller ring), --json PATH.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/strategy.hpp"

namespace {

using namespace sdsi;

struct StrategyPoint {
  double recall = 0.0;
  double message_ratio = 0.0;  // per-node delivered-message p99 / median
  double hops_mbr = 0.0;
  double hops_query = 0.0;
  double hops_response = 0.0;
  double msgs_per_query = 0.0;
  double wall_ms = 0.0;
  std::uint64_t oracle_pairs = 0;
};

core::ExperimentConfig scenario(core::StrategyKind kind, std::size_t nodes,
                                std::uint64_t seed) {
  core::ExperimentConfig config;
  config.num_nodes = nodes;
  config.id_bits = 16;
  config.seed = seed;
  config.strategy = kind;
  config.features.window_size = 64;
  config.features.num_coefficients = 2;
  config.warmup = sim::Duration::seconds(20);
  config.measure = sim::Duration::seconds(30);
  config.oracle_sample_period = sim::Duration::seconds(1);
  // Publications from the last window instants need their notify tick
  // before the reports are read, or every strategy reads ~0.94 recall.
  config.drain = sim::Duration::seconds(5);
  return config;
}

StrategyPoint run_point(const core::ExperimentConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  core::Experiment experiment(config);
  experiment.run();
  const auto stop = std::chrono::steady_clock::now();

  StrategyPoint point;
  const core::RobustnessReport robustness = experiment.robustness_report();
  point.recall = robustness.recall;
  point.oracle_pairs = robustness.oracle_pairs;
  point.message_ratio = robustness.message_load_p99_over_median;
  const core::HopsReport hops = experiment.hops_report();
  point.hops_mbr = hops.mbr;
  point.hops_query = hops.query;
  point.hops_response = hops.response;
  const core::LoadReport load = experiment.load_report();
  const core::QualityReport quality = experiment.quality_report();
  // load.total is delivered msgs/node/s over the measurement window.
  const double total_msgs = load.total *
                            static_cast<double>(config.num_nodes) *
                            experiment.measured_seconds();
  point.msgs_per_query =
      quality.queries_posed == 0
          ? 0.0
          : total_msgs / static_cast<double>(quality.queries_posed);
  point.wall_ms = std::chrono::duration<double>(stop - start).count() * 1e3;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::consume_flag(argc, argv, "--smoke");
  const std::string json_path = bench::consume_json_flag(argc, argv);

  const std::size_t nodes = smoke ? 16 : 32;
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{42}
            : std::vector<std::uint64_t>{42, 43, 44};
  const std::vector<core::StrategyKind> strategies = {
      core::StrategyKind::kDft, core::StrategyKind::kEcm,
      core::StrategyKind::kLsh};

  std::printf("=== Indexing-strategy comparison (%s) ===\n",
              smoke ? "smoke" : "full");
  std::printf("%zu nodes, window 64, seeds:", nodes);
  for (const std::uint64_t seed : seeds) {
    std::printf(" %llu", static_cast<unsigned long long>(seed));
  }
  std::printf("\n\n");

  bench::JsonBenchReporter reporter("strategies");
  bool ok = true;

  common::TextTable table({"Strategy", "Seed", "Recall", "Msg p99/med",
                           "MBR hops", "Query hops", "Msgs/query"});
  for (const core::StrategyKind kind : strategies) {
    for (const std::uint64_t seed : seeds) {
      const core::ExperimentConfig config = scenario(kind, nodes, seed);
      const StrategyPoint point = run_point(config);
      if (point.oracle_pairs == 0) {
        std::fprintf(stderr, "%s seed %llu: oracle saw no pairs\n",
                     core::strategy_name(kind),
                     static_cast<unsigned long long>(seed));
        ok = false;
      }

      table.begin_row().add_cell(core::strategy_name(kind));
      table.add_int(static_cast<long long>(seed));
      table.add_num(point.recall, 4);
      table.add_num(point.message_ratio, 2);
      table.add_num(point.hops_mbr, 2);
      table.add_num(point.hops_query, 2);
      table.add_num(point.msgs_per_query, 1);

      const std::string cfg = std::string("strategy=") +
                              core::strategy_name(kind) +
                              " nodes=" + std::to_string(nodes) +
                              " window=64 seed=" + std::to_string(seed);
      reporter.add(
          bench::BenchResult{"recall", cfg, point.recall, point.wall_ms});
      reporter.add(bench::BenchResult{"message_p99_over_median", cfg,
                                      point.message_ratio, point.wall_ms});
      reporter.add(
          bench::BenchResult{"hops_mbr", cfg, point.hops_mbr, point.wall_ms});
      reporter.add(bench::BenchResult{"hops_query", cfg, point.hops_query,
                                      point.wall_ms});
      reporter.add(bench::BenchResult{"hops_response", cfg,
                                      point.hops_response, point.wall_ms});
      reporter.add(bench::BenchResult{"msgs_per_query", cfg,
                                      point.msgs_per_query, point.wall_ms});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\naxes: recall = delivered/oracle pairs (fault-free); msg p99/med = "
      "per-node\ndelivered-message imbalance; hops = overlay hops per "
      "message class;\nmsgs/query = delivered messages per posed query "
      "(multi-probe overhead).\n");

  if (!json_path.empty() && !reporter.write(json_path)) {
    return 1;
  }
  return ok ? 0 : 1;
}
