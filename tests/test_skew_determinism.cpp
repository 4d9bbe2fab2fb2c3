// Determinism gate of the overload-control layer: the same seeded
// adversarial run — Zipf pattern pool, skewed placement, hot-arc splitting,
// forced shedding, and publish backpressure all active — replayed twice in
// one process must produce identical shed counts, identical
// split/merge/divert decisions, identical per-query matched stream sets,
// and a byte-identical metrics.json. The overload decisions are
// deterministic functions of the seed (the shed accumulator is rng-free),
// so nothing that differs between two runs in one process, such as a static
// or a wall-clock reading, may reach them while the mitigation machinery is
// rewriting the data path. A second test checks that hot-arc splitting
// keeps every match while it moves the work.
//
// Runs under the chaos-smoke label (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "core/experiment.hpp"

namespace sdsi::core {
namespace {

ExperimentConfig skew_config(const std::string& obs_dir) {
  ExperimentConfig config;
  config.num_nodes = 10;
  config.seed = 7777;
  config.substrate = SubstrateKind::kStaticRing;  // cheap under sanitizers
  config.features.window_size = 32;
  config.features.num_coefficients = 2;
  config.workload.stream_period_min = sim::Duration::millis(40);
  config.workload.stream_period_max = sim::Duration::millis(60);
  config.workload.query_rate_per_sec = 3.0;
  config.workload.notify_period = sim::Duration::millis(500);
  config.batching.batch_size = 3;
  config.warmup = sim::Duration::seconds(4);
  config.measure = sim::Duration::seconds(6);
  config.oracle_sample_period = sim::Duration::millis(500);
  config.obs.dir = obs_dir;

  // The full adversarial stack minus the flash crowd (stock-family only):
  // popular patterns + skewed placement concentrate work onto one arc.
  streams::AdversarialSpec adversarial;
  adversarial.pattern_pool = 4;
  adversarial.zipf_exponent = 1.3;
  adversarial.zipf_clients = true;
  adversarial.placement_skew = 2.0;
  config.adversarial = adversarial;

  // Every overload mechanism on at once, with thresholds low enough that
  // all of them fire inside the short window: detector splits (fast
  // hysteresis), forced shedding (deterministic accumulator), and publish
  // backpressure (tiny budget, bounded deferral queue).
  OverloadOptions overload;
  overload.window = sim::Duration::millis(500);
  overload.detector.enter_ratio = 2.0;
  overload.detector.enter_windows = 2;
  overload.detector.exit_ratio = 1.0;
  overload.detector.exit_windows = 3;
  overload.detector.min_median_work = 2;
  overload.split_ways = 3;
  overload.forced_shed_rate = 0.2;
  overload.publish_budget = 3;
  overload.defer_capacity = 8;
  config.overload = overload;
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct RunDigest {
  std::map<QueryId, std::set<StreamId>> matched;
  std::uint64_t queries = 0;
  std::uint64_t matches = 0;
  double recall = 0.0;
  std::uint64_t shed = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t diverted = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t backpressure_drops = 0;
  std::string metrics_json;
};

RunDigest run_once(const std::string& obs_dir) {
  Experiment experiment(skew_config(obs_dir));
  experiment.run();
  RunDigest digest;
  for (const auto& [id, record] : experiment.system().client_records()) {
    digest.matched[id] = std::set<StreamId>(record.matched_streams.begin(),
                                            record.matched_streams.end());
  }
  const QualityReport quality = experiment.quality_report();
  digest.queries = quality.queries_posed;
  digest.matches = quality.matches_reported;
  const RobustnessReport robustness = experiment.robustness_report();
  digest.recall = robustness.recall;
  digest.shed = robustness.shed_mbrs;
  digest.splits = robustness.hot_arc_splits;
  digest.merges = robustness.hot_arc_merges;
  digest.diverted = robustness.split_diverted_stores;
  digest.deferrals = robustness.backpressure_deferrals;
  digest.backpressure_drops = robustness.backpressure_drops;
  digest.metrics_json = slurp(obs_dir + "/metrics.json");
  return digest;
}

TEST(SkewDeterminism, OverloadDecisionsReplayIdentically) {
  const std::string base = ::testing::TempDir() + "sdsi_skew_det";
  const RunDigest first = run_once(base + "_a");

  // The run must actually exercise every mechanism under test, or the
  // equivalence proves nothing.
  ASSERT_GT(first.queries, 0u);
  ASSERT_GT(first.matches, 0u);
  ASSERT_GT(first.shed, 0u) << "forced shedding never fired";
  ASSERT_GT(first.splits, 0u) << "hot-arc detector never split";
  ASSERT_GT(first.diverted, 0u) << "split group diverted nothing";
  ASSERT_GT(first.deferrals, 0u) << "publish budget never deferred";
  ASSERT_FALSE(first.metrics_json.empty());

  const RunDigest replay = run_once(base + "_b");
  EXPECT_EQ(replay.queries, first.queries);
  EXPECT_EQ(replay.matches, first.matches);
  EXPECT_EQ(replay.matched, first.matched);
  EXPECT_EQ(replay.recall, first.recall);
  EXPECT_EQ(replay.shed, first.shed);
  EXPECT_EQ(replay.splits, first.splits);
  EXPECT_EQ(replay.merges, first.merges);
  EXPECT_EQ(replay.diverted, first.diverted);
  EXPECT_EQ(replay.deferrals, first.deferrals);
  EXPECT_EQ(replay.backpressure_drops, first.backpressure_drops);
  // Byte equality of the export document: per-node work vectors, drop
  // causes, imbalance ratios.
  EXPECT_EQ(replay.metrics_json, first.metrics_json);
}

TEST(HotArcSplit, DelegatesReportWhatTheirHotNodeDiverted) {
  // Each (batch, query) pair has one designated reporter. A hot node that
  // diverts a batch to a split delegate no longer stores it, so the
  // delegate must report in its place: splitting moves work, not matches.
  // The reference is the same flash crowd under the detector alone
  // (split_ways 1: same splits, nothing diverted).
  const auto run = [](std::size_t split_ways) {
    ExperimentConfig config;
    config.num_nodes = 60;
    config.seed = 42;
    config.stream_family = StreamFamily::kStockMarket;
    config.warmup = sim::Duration::seconds(30);
    config.measure = sim::Duration::seconds(60);
    config.drain = sim::Duration::seconds(20);
    config.oracle_sample_period = sim::Duration::seconds(5);
    streams::AdversarialSpec adversarial;
    adversarial.pattern_pool = 8;
    adversarial.zipf_exponent = 1.1;
    adversarial.zipf_clients = true;
    adversarial.placement_skew = 2.0;
    streams::FlashCrowd crowd;
    crowd.at_seconds = 40.0;
    adversarial.flash_crowd = crowd;
    config.adversarial = adversarial;
    OverloadOptions overload;
    overload.split_ways = split_ways;
    config.overload = overload;
    Experiment experiment(config);
    experiment.run();
    return experiment.robustness_report();
  };
  const RobustnessReport detect_only = run(1);
  const RobustnessReport split = run(3);
  ASSERT_GT(split.split_diverted_stores, 0u);
  ASSERT_GT(detect_only.oracle_pairs, 1000u);
  EXPECT_GE(split.recall, detect_only.recall);
}

}  // namespace
}  // namespace sdsi::core
