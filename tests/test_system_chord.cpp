// Middleware-over-Chord integration: the same end-to-end guarantees as the
// StaticRing suite, but across real multi-hop overlay routing — plus churn
// scenarios where data centers crash and join mid-stream.
#include <gtest/gtest.h>

#include "chord/network.hpp"
#include "core/system.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kWindow = 16;

MiddlewareConfig small_config() {
  MiddlewareConfig config;
  config.features.window_size = kWindow;
  config.features.num_coefficients = 2;
  config.batching.batch_size = 3;
  config.mbr_lifespan = sim::Duration::seconds(30);
  config.notify_period = sim::Duration::millis(500);
  return config;
}

struct Harness {
  sim::Simulator sim;
  chord::ChordNetwork net;
  MiddlewareSystem system;

  explicit Harness(std::size_t nodes,
                   const MiddlewareConfig& middleware = small_config())
      : net(sim,
            [] {
              chord::ChordConfig config;
              config.id_bits = 32;
              config.successor_list_length = 4;
              return config;
            }()),
        system((net.bootstrap(
                    routing::hash_node_ids(nodes, common::IdSpace(32), 99)),
                net),
               middleware) {
    system.start();
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + sim::Duration::seconds(seconds));
  }

  void feed_exponential(NodeIndex node, StreamId stream, double gamma,
                        int samples) {
    double value = 1.0;
    for (int i = 0; i < samples; ++i) {
      value *= gamma;
      system.post_stream_value(node, stream, value);
    }
  }

  dsp::FeatureVector exponential_features(double gamma) const {
    std::vector<Sample> window(kWindow);
    double value = 1.0;
    for (Sample& x : window) {
      value *= gamma;
      x = value;
    }
    return dsp::extract_features(window, small_config().features);
  }
};

TEST(ChordMiddleware, SimilarityGroundTruthOverMultiHopRouting) {
  Harness h(12);
  const double gammas[6] = {1.02, 1.06, 1.10, 1.14, 1.22, 1.30};
  for (NodeIndex i = 0; i < 6; ++i) {
    h.system.register_stream(i, 600 + i);
    h.feed_exponential(i, 600 + i, gammas[i], 50);
  }
  h.run_for(3.0);

  const dsp::FeatureVector probe = h.exponential_features(1.12);
  const double radius = 0.12;
  std::unordered_set<StreamId> expected;
  for (NodeIndex i = 0; i < 6; ++i) {
    if (h.exponential_features(gammas[i]).distance(probe) <= radius) {
      expected.insert(600 + i);
    }
  }
  ASSERT_FALSE(expected.empty());

  const QueryId id = h.system.subscribe_similarity(
      9, probe, radius, sim::Duration::seconds(60));
  h.run_for(8.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_EQ(record->matched_streams, expected);
  EXPECT_GT(record->responses_received, 0u);
}

TEST(ChordMiddleware, InnerProductAcrossTheOverlay) {
  Harness h(10);
  h.system.register_stream(3, 700);
  h.feed_exponential(3, 700, 1.05, 40);
  const QueryId id = h.system.subscribe_latest_value(
      8, 700, sim::Duration::seconds(20));
  h.run_for(5.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_GT(record->inner_updates, 0u);
  // Last value: 1.05^40 ~ 7.04; the synopsis reconstruction is approximate.
  EXPECT_NEAR(record->last_inner_value, std::pow(1.05, 40), 1.5);
}

TEST(ChordMiddleware, ResponsesTraverseMultipleHops) {
  Harness h(16);
  h.system.register_stream(0, 800);
  h.feed_exponential(0, 800, 1.1, 50);
  (void)h.system.subscribe_similarity(
      11, h.exponential_features(1.1), 0.1, sim::Duration::seconds(30));
  h.run_for(6.0);
  const auto& metrics = h.system.metrics();
  EXPECT_GT(metrics.response().delivered, 0u);
  // With 16 nodes the overlay forces real multi-hop routes somewhere.
  EXPECT_GT(metrics.mbr().hops_routed.mean(), 1.0);
}

TEST(ChordMiddleware, SurvivesCrashOfUninvolvedNode) {
  Harness h(12);
  h.system.register_stream(0, 900);
  h.feed_exponential(0, 900, 1.1, 40);
  const QueryId id = h.system.subscribe_similarity(
      1, h.exponential_features(1.1), 0.08, sim::Duration::seconds(60));
  h.run_for(3.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  const std::uint64_t responses_before = record->responses_received;
  EXPECT_GT(responses_before, 0u);

  // Crash a node that is neither source, client, nor (usually) the home of
  // the summaries, then repair and stream on. A push carries only new
  // matches, so a second matching stream shows that matching still works.
  h.net.crash(7);
  h.net.run_maintenance_rounds(4);
  h.feed_exponential(0, 900, 1.1, 20);
  h.system.register_stream(0, 901);
  h.feed_exponential(0, 901, 1.1, 40);
  h.run_for(4.0);
  EXPECT_TRUE(record->matched_streams.contains(901));
  EXPECT_GT(record->responses_received, responses_before);
}

TEST(ChordMiddleware, JoinedNodeServesNewStreams) {
  Harness h(8);
  h.system.register_stream(0, 910);
  h.feed_exponential(0, 910, 1.1, 40);
  h.run_for(2.0);

  const NodeIndex newcomer = h.net.join(
      h.net.id_space().wrap(0xDEADBEEFCAFEull), /*via=*/0);
  h.net.run_maintenance_rounds(4);
  h.system.attach_node(newcomer);

  h.system.register_stream(newcomer, 911);
  h.feed_exponential(newcomer, 911, 1.1, 40);
  const QueryId id = h.system.subscribe_similarity(
      2, h.exponential_features(1.1), 0.08, sim::Duration::seconds(30));
  h.run_for(5.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_TRUE(record->matched_streams.contains(910));
  EXPECT_TRUE(record->matched_streams.contains(911));
}

TEST(ChordMiddleware, JoinedNodeDrainsItsDeferralsOnItsOwnWindow) {
  // Overload control runs on each node's own window timer, so a data center
  // that joins after start() needs a window of its own, or batches it
  // defers under backpressure never publish.
  MiddlewareConfig config = small_config();
  OverloadOptions overload;
  overload.publish_budget = 1;
  overload.defer_capacity = 8;
  config.overload = overload;
  Harness h(8, config);
  h.run_for(1.0);

  const NodeIndex newcomer = h.net.join(
      h.net.id_space().wrap(0xDEADBEEFCAFEull), /*via=*/0);
  h.net.run_maintenance_rounds(4);
  h.system.attach_node(newcomer);
  const std::uint64_t routed = h.system.mbrs_routed();
  h.system.register_stream(newcomer, 930);
  // kWindow + 2 samples close one batch and every 3 more close another:
  // four batches, of which one publishes and three defer.
  h.feed_exponential(newcomer, 930, 1.1, static_cast<int>(kWindow) + 11);
  EXPECT_EQ(h.system.mbrs_routed(), routed + 1);
  EXPECT_EQ(h.system.ingest_backpressure(newcomer), 3.0 / 8.0);

  // One deferred batch publishes per 2 s window.
  h.run_for(7.0);
  EXPECT_EQ(h.system.mbrs_routed(), routed + 4);
  EXPECT_EQ(h.system.ingest_backpressure(newcomer), 0.0);
}

TEST(ChordMiddleware, DeterministicAcrossRuns) {
  auto run = [] {
    Harness h(10);
    for (NodeIndex i = 0; i < 5; ++i) {
      h.system.register_stream(i, 920 + i);
      h.feed_exponential(i, 920 + i, 1.03 + 0.04 * i, 40);
    }
    (void)h.system.subscribe_similarity(7, h.exponential_features(1.08), 0.1,
                                        sim::Duration::seconds(30));
    h.run_for(6.0);
    return h.sim.executed_events();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sdsi::core
