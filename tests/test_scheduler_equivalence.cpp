// Scheduler-backend determinism gate: the canonical seeded chaos scenario
// (bursty link loss + a crash wave + the self-healing path, as in
// test_chaos.cpp) must be bit-identical under the old binary-heap kernel
// (kept as this test's reference) and the calendar-queue kernel —
// the identical event execution order (when, seq) stream, identical
// per-query matched stream sets, and a byte-equal metrics.json.
//
// Runs under both the chaos-smoke and tsan-smoke labels, mirroring
// test_parallel_equivalence.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "core/experiment.hpp"

namespace sdsi::core {
namespace {

ExperimentConfig chaos_config(sim::QueueBackend backend,
                              const std::string& obs_dir) {
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
  config.queue_backend = backend;
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
  std::map<QueryId, std::set<StreamId>> matched;
  std::uint64_t matches = 0;
  double recall = 0.0;
  std::uint64_t mbr_retries = 0;
  std::uint64_t heals = 0;
  std::string metrics_json;
};

RunDigest run_once(sim::QueueBackend backend, const std::string& obs_dir) {
  Experiment experiment(chaos_config(backend, obs_dir));
  const bool want_calendar = backend == sim::QueueBackend::kCalendar;
  EXPECT_EQ(experiment.simulator().using_calendar_queue(), want_calendar);
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
  for (const auto& [id, record] : experiment.system().client_records()) {
    digest.matched[id] = std::set<StreamId>(record.matched_streams.begin(),
                                            record.matched_streams.end());
  }
  digest.matches = experiment.quality_report().matches_reported;
  const RobustnessReport robustness = experiment.robustness_report();
  digest.recall = robustness.recall;
  digest.mbr_retries = robustness.mbr_retries;
  digest.heals = robustness.heals;
  digest.metrics_json = slurp(obs_dir + "/metrics.json");
  return digest;
}

TEST(SchedulerEquivalence, HeapAndCalendarReplayIdentically) {
  const std::string base = ::testing::TempDir() + "sdsi_sched_eq";
  const RunDigest heap = run_once(sim::QueueBackend::kLegacyHeap, base + "_h");
  const RunDigest calendar =
      run_once(sim::QueueBackend::kCalendar, base + "_c");

  // The scenario must actually exercise the kernel hard, or equality proves
  // nothing: tens of thousands of events, real matches, faults, healing.
  ASSERT_GT(heap.events, 10000u);
  ASSERT_GT(heap.matches, 0u);
  ASSERT_GT(heap.mbr_retries, 0u);  // the healing path really fired
  ASSERT_FALSE(heap.metrics_json.empty());

  // Identical event execution order, event for event.
  EXPECT_EQ(calendar.events, heap.events);
  EXPECT_EQ(calendar.order_hash, heap.order_hash);
  // Identical client-visible results.
  EXPECT_EQ(calendar.matched, heap.matched);
  EXPECT_EQ(calendar.matches, heap.matches);
  EXPECT_EQ(calendar.recall, heap.recall);
  EXPECT_EQ(calendar.mbr_retries, heap.mbr_retries);
  EXPECT_EQ(calendar.heals, heap.heals);
  // Byte equality of the whole export document: the backend must be as
  // unobservable as the worker-lane count.
  EXPECT_EQ(calendar.metrics_json, heap.metrics_json);
}

}  // namespace
}  // namespace sdsi::core
