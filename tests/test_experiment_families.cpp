// Experiment variants: stream families, message loss, and the
// adaptive-precision flag — everything the CLI exposes must run and stay
// deterministic.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace sdsi::core {
namespace {

ExperimentConfig quick(std::size_t nodes, std::uint64_t seed = 42) {
  ExperimentConfig config;
  config.num_nodes = nodes;
  config.seed = seed;
  config.warmup = sim::Duration::seconds(60);
  config.measure = sim::Duration::seconds(15);
  return config;
}

class FamilyRuns : public ::testing::TestWithParam<StreamFamily> {};

TEST_P(FamilyRuns, ProducesTrafficAndBalancedLoad) {
  ExperimentConfig config = quick(30);
  config.stream_family = GetParam();
  Experiment experiment(config);
  experiment.run();
  const LoadReport load = experiment.load_report();
  EXPECT_GT(load.per_component[static_cast<std::size_t>(
                LoadComponent::kMbrSource)],
            0.5);
  const QualityReport quality = experiment.quality_report();
  EXPECT_GT(quality.queries_posed, 10u);
  EXPECT_GT(quality.responses_received, 0u);
}

TEST_P(FamilyRuns, Deterministic) {
  ExperimentConfig config = quick(15, 9);
  config.stream_family = GetParam();
  Experiment a(config);
  Experiment b(config);
  a.run();
  b.run();
  EXPECT_EQ(a.simulator().executed_events(), b.simulator().executed_events());
  EXPECT_EQ(a.load_report().per_node_total, b.load_report().per_node_total);
}

INSTANTIATE_TEST_SUITE_P(Families, FamilyRuns,
                         ::testing::Values(StreamFamily::kRandomWalk,
                                           StreamFamily::kStockMarket,
                                           StreamFamily::kHostLoad));

TEST(ExperimentVariants, MessageLossDegradesGracefully) {
  ExperimentConfig lossy = quick(25);
  lossy.faults.uniform_loss = 0.05;
  Experiment experiment(lossy);
  experiment.run();
  EXPECT_GT(experiment.routing_system().drop_count(
                fault::DropCause::kUniformLoss),
            0u);
  // The system keeps producing answers.
  EXPECT_GT(experiment.quality_report().responses_received, 0u);
}

TEST(ExperimentVariants, AdaptivePrecisionCutsMbrRate) {
  ExperimentConfig fixed = quick(25);
  ExperimentConfig adaptive = quick(25);
  AdaptivePrecisionController::Options controller;
  controller.target_rate = 0.5;
  adaptive.adaptive_precision = controller;
  Experiment a(fixed);
  Experiment b(adaptive);
  a.run();
  b.run();
  const auto rate = [](const Experiment& e) {
    return e.load_report().per_component[static_cast<std::size_t>(
        LoadComponent::kMbrSource)];
  };
  EXPECT_LT(rate(b), 0.7 * rate(a));
}

TEST(ExperimentVariants, TwoStreamsPerNode) {
  // Beyond the paper's 1-stream-per-node setup: a node can source several.
  ExperimentConfig config = quick(10);
  Experiment experiment(config);
  experiment.run();
  MiddlewareSystem& system = experiment.system();
  // Add a second stream on node 0 post-hoc and drive it.
  system.register_stream(0, 9999);
  for (int i = 0; i < 600; ++i) {
    system.post_stream_value(0, 9999, static_cast<Sample>(i));
  }
  EXPECT_EQ(experiment.system().node(0).streams.size(), 2u);
  EXPECT_GT(experiment.system().node(0).streams.at(9999).batch_seq, 0u);
}

}  // namespace
}  // namespace sdsi::core
