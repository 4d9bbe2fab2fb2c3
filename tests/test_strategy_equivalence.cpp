// Strategy-equivalence gate: the default ("dft") strategy must produce a
// metrics.json byte-identical to the pinned build.
//
// The fixtures under tests/golden/strategy_v3/ were first generated by
// compiling THIS file with -DSDSI_GOLDEN_GEN against the last pre-strategy
// commit (schema v3) and running the two canonical configs below. The
// declared-additive differences since are the schema_version bump (3 -> 4)
// and the new run.strategy field; normalization strips exactly those two
// lines from both documents and demands byte equality on everything else —
// every counter, every histogram bucket, every per-node load number. All
// three fixtures were regenerated the same way when match reports began to
// travel to their middle node in one overlay trip from one designated range
// node, which moves every report-path count, all four when the middle
// node began to push new matches on arrival, which moves every push count,
// and the three with replication on (heal, heal_crash, chaos_series) when
// the middle node began to mirror each push's matches to its replica set
// in one message instead of one message per filed match. When hot-arc
// splitting was deleted (schema v5), base, heal and heal_crash lost only
// their three zero split counters; chaos_series, which at its old seed and
// 10 s drain matched the splitting build run with split_ways = 1 except for
// those counters and the overload.splits series, moved to its own seed and
// a 3 s drain. When every MBR-ack retry began to wait one fixed timeout and
// the hedged second multicast was deleted, heal, heal_crash and
// chaos_series were regenerated, and chaos_series moved to seed 3: at its
// old seed no publication reached a node in the instant the crash wave
// took it, so failover.detours never fired (seed 3 is the first seed from
// 1 up at which every series in kEventSeries fires). All four were
// regenerated when each batch began to be stored on a stub of its key range
// and each query to walk the placement slack, which moves every range-copy,
// report and heal count (chaos_series also moved because the forced shed
// became a hashed draw per store attempt); failover.detours then left
// kEventSeries, since a unit test now fires it by construction.
//
// Two configs pin two layers:
//   base — the paper pipeline (batching, routing, matching, aggregation,
//          oracle recall) with no reliability machinery;
//   heal — lossy links + acks + refresh + successor replication +
//          anti-entropy, so the strategy key map's replication arc checks
//          (anti-entropy/mirror placement) are pinned too.
//
// A third config, heal_crash, adds one crash wave to heal, so recovering
// nodes run the join handoff and anti-entropy refills the emptied stores.
// Its fixture under tests/golden/churn_v4/ was generated the same way from
// the last commit before the replica-repair rules moved into
// core/arc_sync, and pins those rules byte for byte.
//
// A fourth config, chaos_series, adds overload control (forced shedding
// and a publish budget) and a Zipf pattern pool to heal_crash, with a
// time-series registry attached. Its fixture under tests/golden/obs_v1/
// was generated the same way from the last commit before the middleware
// recorded its heal, replication, failover and overload events through
// MetricsCollector, and pins every registry series of the run, not just
// the measurement-window counters.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/experiment.hpp"
#include "core/obs_export.hpp"

namespace {

using namespace sdsi;

core::ExperimentConfig golden_base_config() {
  core::ExperimentConfig config;
  config.num_nodes = 16;
  config.id_bits = 16;
  config.seed = 20260809;
  config.features.window_size = 64;
  config.features.num_coefficients = 2;
  config.features.normalization = dsp::Normalization::kZNormalize;
  config.warmup = sim::Duration::seconds(20);
  config.measure = sim::Duration::seconds(30);
  config.oracle_sample_period = sim::Duration::seconds(1);
  return config;
}

core::ExperimentConfig golden_heal_config() {
  core::ExperimentConfig config = golden_base_config();
  config.faults.uniform_loss = 0.05;
  config.mbr_acks = true;
  config.response_acks = true;
  config.mbr_refresh_period = sim::Duration::seconds(5);
  config.query_refresh_period = sim::Duration::seconds(5);
  config.replication_factor = 2;
  config.anti_entropy_period = sim::Duration::seconds(4);
  config.drain = sim::Duration::seconds(3);
  return config;
}

core::ExperimentConfig golden_heal_crash_config() {
  core::ExperimentConfig config = golden_heal_config();
  config.faults.crash_waves.push_back(fault::CrashWave{
      sim::SimTime::zero() + config.warmup + sim::Duration::seconds(5), 0.25,
      sim::Duration::seconds(10)});
  return config;
}

/// heal_crash under overload control and a skewed pattern pool, with the
/// time-series registry on: fires every series in kEventSeries. On the
/// 16-bit ring no aggregator of the four pooled patterns fails over, so
/// this config keeps the default 32-bit ids; at the base seed no report
/// detours around a dead hop, so it runs its own seed. A publish budget of
/// 2 defers batches, and a deferral queue of 4 slows the sources
/// (ingest_backpressure).
core::ExperimentConfig golden_chaos_series_config(const std::string& obs_dir) {
  core::ExperimentConfig config = golden_heal_crash_config();
  config.id_bits = core::ExperimentConfig{}.id_bits;
  config.seed = 3;
  core::OverloadOptions overload;
  overload.forced_shed_rate = 0.2;
  overload.publish_budget = 2;
  overload.defer_capacity = 4;
  config.overload = overload;
  streams::AdversarialSpec adversarial;
  adversarial.pattern_pool = 4;
  adversarial.zipf_exponent = 1.3;
  config.adversarial = adversarial;
  config.obs.dir = obs_dir;
  config.obs.window = sim::Duration::seconds(5);
  return config;
}

std::string render_metrics(core::ExperimentConfig config) {
  core::Experiment experiment(std::move(config));
  experiment.run();
  return core::metrics_to_json(experiment).dump(2) + "\n";
}

}  // namespace

#ifdef SDSI_GOLDEN_GEN

// Fixture generator: run each fixture only from the tree that defines it
// (see the file comment).
int main(int argc, char** argv) {
  if (argc != 2) {
    return 2;
  }
  const std::string dir = argv[1];
  std::ofstream(dir + "/base.json") << render_metrics(golden_base_config());
  std::ofstream(dir + "/heal.json") << render_metrics(golden_heal_config());
  std::ofstream(dir + "/heal_crash.json")
      << render_metrics(golden_heal_crash_config());
  const std::filesystem::path obs_dir =
      std::filesystem::temp_directory_path() / "sdsi_golden_chaos_series";
  std::ofstream(dir + "/chaos_series.json")
      << render_metrics(golden_chaos_series_config(obs_dir.string()));
  return 0;
}

#else  // the gate itself

#include <gtest/gtest.h>

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Strips the schema_version line and the run.strategy line (declared
/// additive in v4); everything else must match byte for byte.
std::string normalized(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.find("\"schema_version\":") != std::string::npos ||
        line.find("\"strategy\":") != std::string::npos) {
      continue;
    }
    out += line;
    out += '\n';
  }
  return out;
}

void expect_matches_golden(core::ExperimentConfig config,
                           const std::string& fixture) {
  const std::string golden =
      read_file(std::string(SDSI_GOLDEN_DIR) + "/" + fixture);
  ASSERT_FALSE(golden.empty());
  const std::string current = render_metrics(std::move(config));
  EXPECT_NE(current.find("\"schema_version\": 5"), std::string::npos);
  EXPECT_NE(current.find("\"strategy\": \"dft\""), std::string::npos);
  EXPECT_EQ(normalized(current), normalized(golden))
      << "default-strategy metrics.json diverged from the seed build";
}

TEST(StrategyEquivalence, BaseRunIsByteIdenticalToSeedBuild) {
  expect_matches_golden(golden_base_config(), "strategy_v3/base.json");
}

TEST(StrategyEquivalence, HealingRunIsByteIdenticalToSeedBuild) {
  expect_matches_golden(golden_heal_config(), "strategy_v3/heal.json");
}

TEST(StrategyEquivalence, CrashWaveRunIsByteIdenticalToPreArcSyncBuild) {
  expect_matches_golden(golden_heal_crash_config(), "churn_v4/heal_crash.json");
}

/// Every series the middleware records beside its measurement-window
/// counters; the chaos_series run must fire each one. failover.detours is
/// left out: a detour needs a message to reach a node in the instant the
/// crash wave takes it, which few seeds produce, so
/// ChordCrash.DirectSendDetoursAroundANodeThatCrashedInFlight
/// (test_chord_churn.cpp) fires it by construction instead, and the
/// fixture still pins its count.
constexpr const char* kEventSeries[] = {
    "heal.latency_ms", "heal.retries", "heal.refreshes",
    "replication.puts", "replication.repairs", "replication.handoff_entries",
    "replication.handoff_bytes", "failover.promotions", "failover.latency_ms",
    "overload.shed_mbrs", "overload.backpressure_deferrals",
    "chord.oracle_fallbacks",
};

double series_total(const obs::MetricsRegistry& registry,
                    const std::string& name) {
  if (const auto it = registry.counters().find(name);
      it != registry.counters().end()) {
    return it->second->total();
  }
  if (const auto it = registry.histograms().find(name);
      it != registry.histograms().end()) {
    return static_cast<double>(it->second->histogram().count());
  }
  return 0.0;
}

TEST(StrategyEquivalence, ChaosSeriesRunIsByteIdenticalToPrePortBuild) {
  core::Experiment experiment(golden_chaos_series_config(
      ::testing::TempDir() + "sdsi_golden_chaos_series"));
  experiment.run();
  ASSERT_NE(experiment.registry(), nullptr);
  for (const char* name : kEventSeries) {
    ASSERT_GT(series_total(*experiment.registry(), name), 0.0) << name;
  }
  const std::string golden = read_file(std::string(SDSI_GOLDEN_DIR) +
                                       "/obs_v1/chaos_series.json");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(normalized(core::metrics_to_json(experiment).dump(2) + "\n"),
            normalized(golden))
      << "the registry series or counters diverged from the pinned build";
}

/// The explicit spelling must behave exactly like the default.
TEST(StrategyEquivalence, ExplicitDftSpellingMatchesDefault) {
  core::ExperimentConfig config = golden_base_config();
  config.strategy = core::StrategyKind::kDft;
  const std::string golden =
      read_file(std::string(SDSI_GOLDEN_DIR) + "/strategy_v3/base.json");
  EXPECT_EQ(normalized(render_metrics(std::move(config))),
            normalized(golden));
}

}  // namespace

#endif  // SDSI_GOLDEN_GEN
