// Determinism gate of the overload-control layer: the same seeded
// adversarial run — Zipf pattern pool, skewed placement, forced shedding,
// and publish backpressure all active — replayed twice in one process must
// produce identical shed and deferral counts, identical per-query matched
// stream sets, and a byte-identical metrics.json. The overload decisions
// are deterministic functions of the seed (the forced shed hashes the node
// and its attempt count and draws no rng), so nothing that differs between
// two runs in one process, such as a static or a wall-clock reading, may
// reach them while the overload layer is rewriting the data path.
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

  // Both overload mechanisms on at once, with thresholds low enough that
  // both fire inside the short window: forced shedding (a hashed draw per
  // store attempt) and publish backpressure (tiny budget, bounded deferral
  // queue).
  OverloadOptions overload;
  overload.window = sim::Duration::millis(500);
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
  ASSERT_GT(first.deferrals, 0u) << "publish budget never deferred";
  ASSERT_FALSE(first.metrics_json.empty());

  const RunDigest replay = run_once(base + "_b");
  EXPECT_EQ(replay.queries, first.queries);
  EXPECT_EQ(replay.matches, first.matches);
  EXPECT_EQ(replay.matched, first.matched);
  EXPECT_EQ(replay.recall, first.recall);
  EXPECT_EQ(replay.shed, first.shed);
  EXPECT_EQ(replay.deferrals, first.deferrals);
  EXPECT_EQ(replay.backpressure_drops, first.backpressure_drops);
  // Byte equality of the export document: per-node work vectors, drop
  // causes, imbalance ratios.
  EXPECT_EQ(replay.metrics_json, first.metrics_json);
}

}  // namespace
}  // namespace sdsi::core
