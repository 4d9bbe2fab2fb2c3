// Chaos harness (ctest label: chaos-smoke): the full seeded scenario the
// robustness bench records — ~10% Gilbert-Elliott bursty link loss for the
// whole run plus a crash wave taking 20% of the data centers down for 20
// seconds — asserting the acceptance floors:
//
//   - with the self-healing path (acked MBRs + soft-state refresh), recall
//     vs the fault-free oracle reaches >= 0.95 within two refresh periods
//     of the faults clearing;
//   - with healing disabled the same faults demonstrably degrade recall;
//   - every number is a pure function of the seed (re-running the chaos
//     scenario reproduces recall and counters exactly).
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace sdsi::core {
namespace {

ExperimentConfig chaos_config(bool faults, bool healing) {
  ExperimentConfig config;
  config.num_nodes = 50;
  config.seed = 42;
  config.warmup = sim::Duration::seconds(60);
  config.measure = sim::Duration::seconds(60);
  config.oracle_sample_period = sim::Duration::millis(500);
  if (faults) {
    fault::GilbertElliottParams burst;
    burst.p_good_to_bad = 0.25 * 0.1 / 0.9;  // ~10% stationary loss
    burst.p_bad_to_good = 0.25;
    config.faults.burst_loss = burst;
    fault::CrashWave wave;
    wave.at = sim::SimTime::zero() + config.warmup + sim::Duration::seconds(10);
    wave.fraction = 0.2;
    wave.down_for = sim::Duration::seconds(20);
    config.faults.crash_waves.push_back(wave);
  }
  if (healing) {
    config.mbr_acks = true;
    config.response_acks = true;
    config.mbr_refresh_period = sim::Duration::millis(1500);
    config.query_refresh_period = sim::Duration::millis(2500);
  }
  config.drain = sim::Duration::millis(3000);  // two MBR refresh periods
  return config;
}

RobustnessReport run_chaos(bool faults, bool healing) {
  Experiment experiment(chaos_config(faults, healing));
  experiment.run();
  return experiment.robustness_report();
}

TEST(Chaos, HealedRecallMeetsFloorWhileUnhealedDegrades) {
  const RobustnessReport clean = run_chaos(false, false);
  const RobustnessReport degraded = run_chaos(true, false);
  const RobustnessReport healed = run_chaos(true, true);

  ASSERT_GT(clean.oracle_pairs, 0u);
  ASSERT_GT(healed.oracle_pairs, 0u);

  // The acceptance floor: two refresh periods after the faults cleared, the
  // healed system is back above 0.95 recall...
  EXPECT_GE(healed.recall, 0.95);
  // ...while the same faults without healing sit demonstrably below it.
  EXPECT_LT(degraded.recall, 0.80);
  EXPECT_GT(healed.recall, degraded.recall + 0.10);
  // The fault-free ceiling bounds both.
  EXPECT_GE(clean.recall, healed.recall);

  // The healing machinery did the work (and is observable in the report).
  EXPECT_GT(healed.mbr_retries, 0u);
  EXPECT_GT(healed.mbr_refreshes, 0u);
  EXPECT_GT(healed.heal_latency_ms.count(), 0u);
  EXPECT_GT(healed.heal_latency_ms.mean(), 0.0);
  EXPECT_EQ(healed.crashes, 10u);  // 20% of 50 nodes
  EXPECT_EQ(healed.recoveries, 10u);
  EXPECT_GT(healed.drops_by_cause[static_cast<std::size_t>(
                fault::DropCause::kBurstLoss)],
            0u);
  // Healing traffic gets dropped too, so the healed run observes more
  // total drops than the run that sends each batch once.
  EXPECT_EQ(degraded.mbr_retries, 0u);
  EXPECT_EQ(degraded.mbr_refreshes, 0u);

  // Dedup keeps duplicate delivery bounded even under aggressive refresh.
  EXPECT_LT(healed.duplicate_delivery_rate, 0.5);
  EXPECT_EQ(clean.duplicate_delivery_rate, 0.0);
}

TEST(Chaos, SeededScenarioIsExactlyReproducible) {
  const RobustnessReport a = run_chaos(true, true);
  const RobustnessReport b = run_chaos(true, true);
  EXPECT_EQ(a.recall, b.recall);
  EXPECT_EQ(a.oracle_pairs, b.oracle_pairs);
  EXPECT_EQ(a.delivered_pairs, b.delivered_pairs);
  EXPECT_EQ(a.duplicate_delivery_rate, b.duplicate_delivery_rate);
  EXPECT_EQ(a.duplicate_stores, b.duplicate_stores);
  EXPECT_EQ(a.mbr_retries, b.mbr_retries);
  EXPECT_EQ(a.mbr_refreshes, b.mbr_refreshes);
  EXPECT_EQ(a.mbr_acks, b.mbr_acks);
  EXPECT_EQ(a.heal_latency_ms.count(), b.heal_latency_ms.count());
  EXPECT_EQ(a.heal_latency_ms.mean(), b.heal_latency_ms.mean());
  EXPECT_EQ(a.drops_by_cause, b.drops_by_cause);
}

}  // namespace
}  // namespace sdsi::core
