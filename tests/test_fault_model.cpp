// The fault library: Gilbert-Elliott burst loss, key-range partitions,
// latency jitter, and the injector's crash/recover waves — all seeded and
// bit-reproducible.
#include <gtest/gtest.h>

#include <vector>

#include "fault/injector.hpp"
#include "fault/model.hpp"
#include "sim/simulator.hpp"

namespace sdsi::fault {
namespace {

sim::SimTime at_seconds(double s) {
  return sim::SimTime::zero() + sim::Duration::seconds(s);
}

TEST(GilbertElliott, StationaryLossRateMatchesTheory) {
  FaultPlan plan;
  GilbertElliottParams burst;
  burst.p_good_to_bad = 0.05;
  burst.p_bad_to_good = 0.25;
  plan.burst_loss = burst;
  LinkFaultModel model(plan, common::IdSpace(16), common::Pcg32(1, 1),
                       common::Pcg32(1, 0x33));

  const double expected =
      burst.p_good_to_bad / (burst.p_good_to_bad + burst.p_bad_to_good);
  constexpr int kSamples = 60'000;
  int drops = 0;
  for (int i = 0; i < kSamples; ++i) {
    const auto cause = model.sample_drop(static_cast<Key>(i), at_seconds(0));
    if (cause.has_value()) {
      EXPECT_EQ(*cause, DropCause::kBurstLoss);
      ++drops;
    }
  }
  EXPECT_NEAR(static_cast<double>(drops) / kSamples, expected, 0.02);
}

TEST(GilbertElliott, LossesArriveInBursts) {
  // Mean run length of consecutive drops must track 1 / p_bad_to_good —
  // far above the ~1 an i.i.d. model at the same rate would show.
  FaultPlan plan;
  GilbertElliottParams burst;
  burst.p_good_to_bad = 0.02;
  burst.p_bad_to_good = 0.2;  // mean burst of 5 transmissions
  plan.burst_loss = burst;
  LinkFaultModel model(plan, common::IdSpace(16), common::Pcg32(2, 2),
                       common::Pcg32(2, 0x33));

  int bursts = 0;
  int dropped = 0;
  bool in_run = false;
  for (int i = 0; i < 200'000; ++i) {
    const bool drop = model.sample_drop(0, at_seconds(0)).has_value();
    if (drop) {
      ++dropped;
      bursts += in_run ? 0 : 1;
    }
    in_run = drop;
  }
  ASSERT_GT(bursts, 0);
  const double mean_burst = static_cast<double>(dropped) / bursts;
  EXPECT_NEAR(mean_burst, 5.0, 1.0);
}

TEST(LinkFaultModel, UniformLossRateMatches) {
  FaultPlan plan;
  plan.uniform_loss = 0.3;
  LinkFaultModel model(plan, common::IdSpace(16), common::Pcg32(3, 3),
                       common::Pcg32(3, 0x33));
  int drops = 0;
  constexpr int kSamples = 20'000;
  for (int i = 0; i < kSamples; ++i) {
    const auto cause = model.sample_drop(0, at_seconds(0));
    if (cause.has_value()) {
      EXPECT_EQ(*cause, DropCause::kUniformLoss);
      ++drops;
    }
  }
  EXPECT_NEAR(static_cast<double>(drops) / kSamples, 0.3, 0.02);
}

TEST(LinkFaultModel, PartitionBlacksOutKeyRangeDuringWindow) {
  FaultPlan plan;
  KeyRangePartition partition;
  partition.lo = 100;
  partition.hi = 200;
  partition.from = at_seconds(10);
  partition.until = at_seconds(20);
  plan.partitions.push_back(partition);
  LinkFaultModel model(plan, common::IdSpace(16), common::Pcg32(4, 4),
                       common::Pcg32(4, 0x33));

  // In range + in window: always dropped, deterministically.
  EXPECT_EQ(model.sample_drop(150, at_seconds(15)), DropCause::kPartition);
  EXPECT_EQ(model.sample_drop(100, at_seconds(10)), DropCause::kPartition);
  // Outside the window or the range: never dropped (no other process).
  EXPECT_FALSE(model.sample_drop(150, at_seconds(5)).has_value());
  EXPECT_FALSE(model.sample_drop(150, at_seconds(20)).has_value());
  EXPECT_FALSE(model.sample_drop(99, at_seconds(15)).has_value());
  EXPECT_FALSE(model.sample_drop(201, at_seconds(15)).has_value());
}

TEST(LinkFaultModel, PartitionRangeWrapsTheRing) {
  FaultPlan plan;
  KeyRangePartition partition;
  partition.lo = 60'000;  // clockwise [60000, 100] in a 16-bit space
  partition.hi = 100;
  partition.from = at_seconds(0);
  partition.until = at_seconds(100);
  plan.partitions.push_back(partition);
  LinkFaultModel model(plan, common::IdSpace(16), common::Pcg32(5, 5),
                       common::Pcg32(5, 0x33));
  EXPECT_EQ(model.sample_drop(65'000, at_seconds(1)), DropCause::kPartition);
  EXPECT_EQ(model.sample_drop(50, at_seconds(1)), DropCause::kPartition);
  EXPECT_FALSE(model.sample_drop(30'000, at_seconds(1)).has_value());
}

TEST(LinkFaultModel, JitterStaysWithinBoundAndZeroWithout) {
  FaultPlan plan;
  plan.jitter = LatencyJitter{sim::Duration::millis(40)};
  LinkFaultModel model(plan, common::IdSpace(16), common::Pcg32(6, 6),
                       common::Pcg32(6, 0x33));
  for (int i = 0; i < 1000; ++i) {
    const sim::Duration jitter = model.sample_jitter();
    EXPECT_GE(jitter, sim::Duration());
    EXPECT_LE(jitter, sim::Duration::millis(40));
  }

  LinkFaultModel plain(FaultPlan{}, common::IdSpace(16), common::Pcg32(6, 6),
                      common::Pcg32(6, 0x33));
  EXPECT_EQ(plain.sample_jitter(), sim::Duration());
}

TEST(LinkFaultModel, SameSeedSameDropSequence) {
  FaultPlan plan;
  plan.uniform_loss = 0.1;
  GilbertElliottParams burst;
  plan.burst_loss = burst;
  LinkFaultModel a(plan, common::IdSpace(16), common::Pcg32(7, 7),
                   common::Pcg32(7, 0x33));
  LinkFaultModel b(plan, common::IdSpace(16), common::Pcg32(7, 7),
                   common::Pcg32(7, 0x33));
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(a.sample_drop(static_cast<Key>(i), at_seconds(0)),
              b.sample_drop(static_cast<Key>(i), at_seconds(0)));
  }
}

// --- Injector ---------------------------------------------------------------

struct FakeMembership {
  std::vector<bool> alive;
  int maintenance_calls = 0;

  explicit FakeMembership(std::size_t n) : alive(n, true) {}

  MembershipHooks hooks() {
    MembershipHooks hooks;
    hooks.alive_nodes = [this] {
      std::vector<NodeIndex> out;
      for (NodeIndex i = 0; i < alive.size(); ++i) {
        if (alive[i]) {
          out.push_back(i);
        }
      }
      return out;
    };
    hooks.crash = [this](NodeIndex node) { alive[node] = false; };
    hooks.recover = [this](NodeIndex node) { alive[node] = true; };
    hooks.maintenance = [this](int rounds) { maintenance_calls += rounds; };
    return hooks;
  }

  std::size_t alive_count() const {
    std::size_t count = 0;
    for (const bool a : alive) {
      count += a ? 1 : 0;
    }
    return count;
  }
};

TEST(FaultInjector, CrashWaveTakesDownFractionThenRecovers) {
  sim::Simulator sim;
  FakeMembership membership(20);
  FaultPlan plan;
  CrashWave wave;
  wave.at = at_seconds(5);
  wave.fraction = 0.25;
  wave.down_for = sim::Duration::seconds(10);
  wave.maintenance_rounds = 3;
  plan.crash_waves.push_back(wave);

  FaultInjector injector(sim, plan, membership.hooks(), common::Pcg32(8, 8));
  injector.arm();

  sim.run_until(at_seconds(6));
  EXPECT_EQ(membership.alive_count(), 15u);  // floor(0.25 * 20) crashed
  EXPECT_EQ(injector.crashes_executed(), 5u);
  EXPECT_EQ(injector.currently_down().size(), 5u);
  EXPECT_GE(membership.maintenance_calls, 3);

  sim.run_until(at_seconds(16));
  EXPECT_EQ(membership.alive_count(), 20u);
  EXPECT_EQ(injector.recoveries_executed(), 5u);
  EXPECT_TRUE(injector.currently_down().empty());
  EXPECT_EQ(injector.ever_crashed().size(), 5u);
  EXPECT_EQ(injector.faults_clear_at(), at_seconds(15));
}

TEST(FaultInjector, PermanentWaveNeverRecovers) {
  sim::Simulator sim;
  FakeMembership membership(10);
  FaultPlan plan;
  CrashWave wave;
  wave.at = at_seconds(1);
  wave.fraction = 0.2;
  wave.down_for = sim::Duration();  // stay down
  plan.crash_waves.push_back(wave);

  FaultInjector injector(sim, plan, membership.hooks(), common::Pcg32(9, 9));
  injector.arm();
  sim.run_until(at_seconds(60));
  EXPECT_EQ(membership.alive_count(), 8u);
  EXPECT_EQ(injector.recoveries_executed(), 0u);
  EXPECT_EQ(injector.currently_down().size(), 2u);
}

TEST(FaultInjector, SameSeedCrashesSameNodes) {
  auto run = [] {
    sim::Simulator sim;
    FakeMembership membership(30);
    FaultPlan plan;
    CrashWave wave;
    wave.at = at_seconds(2);
    wave.fraction = 0.3;
    wave.down_for = sim::Duration::seconds(5);
    plan.crash_waves.push_back(wave);
    FaultInjector injector(sim, plan, membership.hooks(),
                           common::Pcg32(10, 10));
    injector.arm();
    sim.run_until(at_seconds(3));
    std::vector<NodeIndex> down(injector.currently_down().begin(),
                                injector.currently_down().end());
    return down;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sdsi::fault
