// The Section V experiment harness: determinism, report consistency, and the
// qualitative shapes the paper's figures rest on (small scale, fast).
#include <gtest/gtest.h>

#include <numeric>

#include "core/experiment.hpp"

namespace sdsi::core {
namespace {

ExperimentConfig quick(std::size_t nodes, std::uint64_t seed = 42) {
  ExperimentConfig config;
  config.num_nodes = nodes;
  config.seed = seed;
  config.warmup = sim::Duration::seconds(30);
  config.measure = sim::Duration::seconds(20);
  return config;
}

TEST(Experiment, ProducesTrafficAndResponses) {
  Experiment exp(quick(30));
  exp.run();
  const QualityReport quality = exp.quality_report();
  EXPECT_GT(quality.queries_posed, 20u);
  EXPECT_GT(quality.responses_received, 0u);
  const LoadReport load = exp.load_report();
  EXPECT_GT(load.total, 0.0);
  EXPECT_GT(load.per_component[static_cast<std::size_t>(
                LoadComponent::kMbrSource)],
            0.0);
}

TEST(Experiment, LoadReportComponentsSumToTotal) {
  Experiment exp(quick(20));
  exp.run();
  const LoadReport load = exp.load_report();
  const double sum = std::accumulate(load.per_component.begin(),
                                     load.per_component.end(), 0.0);
  EXPECT_NEAR(load.total, sum, 1e-9);
  EXPECT_EQ(load.per_node_total.size(), 20u);
  // Per-node totals aggregate to N * average.
  const double per_node_sum = std::accumulate(
      load.per_node_total.begin(), load.per_node_total.end(), 0.0);
  EXPECT_NEAR(per_node_sum / 20.0, load.total, 1e-9);
}

TEST(Experiment, DeterministicForSameSeed) {
  Experiment a(quick(15, 7));
  Experiment b(quick(15, 7));
  a.run();
  b.run();
  EXPECT_EQ(a.simulator().executed_events(), b.simulator().executed_events());
  EXPECT_EQ(a.load_report().per_node_total, b.load_report().per_node_total);
  EXPECT_EQ(a.quality_report().responses_received,
            b.quality_report().responses_received);
}

TEST(Experiment, DifferentSeedsDiffer) {
  Experiment a(quick(15, 1));
  Experiment b(quick(15, 2));
  a.run();
  b.run();
  EXPECT_NE(a.simulator().executed_events(), b.simulator().executed_events());
}

TEST(Experiment, HopsAreLogScaleOnChord) {
  Experiment exp(quick(40));
  exp.run();
  const HopsReport hops = exp.hops_report();
  // log2(40) ~ 5.3; average routed hops should be around half that.
  EXPECT_GT(hops.mbr, 1.0);
  EXPECT_LT(hops.mbr, 6.0);
  // Range-forwarded copies travel exactly one ring hop.
  EXPECT_NEAR(hops.mbr_internal, 1.0, 1e-9);
}

TEST(Experiment, StaticRingSubstrateHasSingleHopRouting) {
  ExperimentConfig config = quick(20);
  config.substrate = SubstrateKind::kStaticRing;
  Experiment exp(config);
  exp.run();
  const HopsReport hops = exp.hops_report();
  EXPECT_LE(hops.mbr, 1.0);
  const OverheadReport overhead = exp.overhead_report();
  EXPECT_EQ(overhead.mbr_transit, 0.0);  // no overlay relays on one-hop DHT
}

TEST(Experiment, QueryInternalGrowsWithRadius) {
  // Fig 7(b) vs 7(a): doubling the radius roughly doubles the number of
  // nodes a query covers.
  ExperimentConfig narrow = quick(40);
  narrow.workload.query_radius = 0.1;
  ExperimentConfig wide = quick(40);
  wide.workload.query_radius = 0.2;
  Experiment a(narrow);
  Experiment b(wide);
  a.run();
  b.run();
  const double narrow_internal = a.overhead_report().query_internal;
  const double wide_internal = b.overhead_report().query_internal;
  EXPECT_GT(wide_internal, 1.4 * narrow_internal);
}

TEST(Experiment, LoadIsNotHeavyTailed) {
  // Fig 6(b): the distribution of load across nodes must not be heavy
  // tailed (max bounded by a small multiple of the mean).
  Experiment exp(quick(40));
  exp.run();
  const LoadReport load = exp.load_report();
  const double mean = load.total;
  double max = 0.0;
  for (const double rate : load.per_node_total) {
    max = std::max(max, rate);
  }
  EXPECT_LT(max, 8.0 * mean);
}

TEST(Experiment, BidirectionalMulticastReducesQueryLatency) {
  ExperimentConfig seq = quick(40);
  seq.multicast = routing::MulticastStrategy::kSequential;
  ExperimentConfig bidir = quick(40);
  bidir.multicast = routing::MulticastStrategy::kBidirectional;
  Experiment a(seq);
  Experiment b(bidir);
  a.run();
  b.run();
  // Same coverage -> same internal message counts (query radius identical).
  EXPECT_NEAR(a.overhead_report().query_internal,
              b.overhead_report().query_internal, 1.0);
  // Cumulative range-walk delay shrinks with the bidirectional strategy
  // (copies fan out from the middle instead of walking end to end).
  const double seq_lat = a.metrics().query().range_latency_ms.max();
  const double bi_lat = b.metrics().query().range_latency_ms.max();
  EXPECT_LT(bi_lat, seq_lat);
}

TEST(Experiment, QualityFirstResponseWithinLifespanScale) {
  Experiment exp(quick(25));
  exp.run();
  const QualityReport quality = exp.quality_report();
  if (quality.responses_received > 0) {
    EXPECT_GT(quality.mean_first_response_ms, 0.0);
    // A match pass runs every NPER and its matches are pushed on arrival
    // at the middle node, so the first response arrives within a few NPERs.
    EXPECT_LT(quality.mean_first_response_ms, 60000.0);
  }
}

TEST(Experiment, EveryMatchReachesItsClientWithinTwoRoutesOfItsDetection) {
  // Table I on 300 Chord nodes, where a radius-0.1 query spans ~30 range
  // nodes. Each report takes one overlay trip to its middle node, which
  // pushes it on arrival, so a pair reaches its client within two routes of
  // its detecting pass, however far apart the range node and the middle
  // node sit.
  ExperimentConfig config;
  config.num_nodes = 300;
  config.seed = 7;
  config.warmup = sim::Duration::seconds(30);
  config.measure = sim::Duration::seconds(60);
  Experiment exp(config);
  exp.run();
  const obs::LogHistogram& delivery = exp.metrics().match_delivery_ms();
  ASSERT_GE(delivery.count(), 1000u);
  EXPECT_EQ(exp.quality_report().match_delivery_pairs, delivery.count());
  EXPECT_LE(delivery.max(), 1500.0);
}

class ExperimentScale : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExperimentScale, RunsToCompletionAtEveryPaperScale) {
  ExperimentConfig config = quick(GetParam());
  config.warmup = sim::Duration::seconds(28);
  config.measure = sim::Duration::seconds(10);
  Experiment exp(config);
  exp.run();
  EXPECT_GT(exp.simulator().executed_events(), 1000u);
  const OverheadReport overhead = exp.overhead_report();
  EXPECT_GE(overhead.query_internal, 0.0);
  EXPECT_GE(overhead.mbr_transit, 0.0);
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, ExperimentScale,
                         ::testing::Values(10, 50, 100));

}  // namespace
}  // namespace sdsi::core
