// Scheduler determinism gate: the canonical seeded chaos scenario (bursty
// link loss + a crash wave + the self-healing path, as in test_chaos.cpp)
// must replay the golden execution-order digest — the event count, an
// FNV-1a hash of the (when, seq) stream, and the client-visible results.
// The digest was first recorded while an independent binary-heap kernel
// replayed the same run event for event, so it stands in for that
// reference. A change that moves the event order (a new message on the
// wire, a reordered handler) moves the digest and must say why; it was
// re-recorded when match reports began to travel to their middle node in
// one overlay trip from one designated range node, and again when the
// middle node began to push new matches on arrival, each unacked push
// resent by its own timer.
//
// Runs under the chaos-smoke label.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.hpp"

namespace sdsi::core {
namespace {

ExperimentConfig chaos_config(const std::string& obs_dir) {
  ExperimentConfig config;
  config.num_nodes = 50;
  config.seed = 42;
  config.warmup = sim::Duration::seconds(60);
  config.measure = sim::Duration::seconds(60);
  config.oracle_sample_period = sim::Duration::millis(500);
  fault::GilbertElliottParams burst;
  burst.p_good_to_bad = 0.25 * 0.1 / 0.9;  // ~10% stationary loss
  burst.p_bad_to_good = 0.25;
  config.faults.burst_loss = burst;
  fault::CrashWave wave;
  wave.at = sim::SimTime::zero() + config.warmup + sim::Duration::seconds(10);
  wave.fraction = 0.2;
  wave.down_for = sim::Duration::seconds(20);
  config.faults.crash_waves.push_back(wave);
  config.mbr_acks = true;
  config.response_acks = true;
  config.mbr_refresh_period = sim::Duration::millis(1500);
  config.query_refresh_period = sim::Duration::millis(2500);
  config.drain = sim::Duration::millis(3000);
  config.obs.dir = obs_dir;
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
  // The executed-event stream, folded: count plus an FNV-1a hash over every
  // (when_us, seq) pair in execution order.
  std::uint64_t events = 0;
  std::uint64_t order_hash = 1469598103934665603ull;
  std::uint64_t matches = 0;
  double recall = 0.0;
  std::uint64_t mbr_retries = 0;
  std::uint64_t heals = 0;
  std::string metrics_json;
};

RunDigest run_once(const std::string& obs_dir) {
  Experiment experiment(chaos_config(obs_dir));
  RunDigest digest;
  experiment.simulator().set_execution_probe(
      [&digest](sim::SimTime when, SeqNo seq) {
        ++digest.events;
        const auto mix = [&digest](std::uint64_t v) {
          for (int i = 0; i < 8; ++i) {
            digest.order_hash ^= (v >> (i * 8)) & 0xff;
            digest.order_hash *= 1099511628211ull;
          }
        };
        mix(static_cast<std::uint64_t>(when.count_micros()));
        mix(seq);
      });
  experiment.run();
  digest.matches = experiment.quality_report().matches_reported;
  const RobustnessReport robustness = experiment.robustness_report();
  digest.recall = robustness.recall;
  digest.mbr_retries = robustness.mbr_retries;
  digest.heals = robustness.heal_latency_ms.count();
  digest.metrics_json = slurp(obs_dir + "/metrics.json");
  return digest;
}

TEST(SchedulerEquivalence, ChaosRunReplaysGoldenDigest) {
  const RunDigest run = run_once(::testing::TempDir() + "sdsi_sched_eq");

  // The scenario must actually exercise the kernel hard, or the digest pins
  // nothing: tens of thousands of events, real matches, faults, healing.
  ASSERT_GT(run.events, 10000u);
  ASSERT_GT(run.matches, 0u);
  ASSERT_GT(run.mbr_retries, 0u);  // the healing path really fired
  ASSERT_FALSE(run.metrics_json.empty());

  // The golden digest, event for event.
  EXPECT_EQ(run.events, 168028u);
  EXPECT_EQ(run.order_hash, 7006266475241755757ull);
  EXPECT_EQ(run.matches, 328u);
  EXPECT_EQ(run.mbr_retries, 130u);
  EXPECT_EQ(run.heals, 127u);
  EXPECT_EQ(run.recall, 0.95081967213114749);
}

}  // namespace
}  // namespace sdsi::core
