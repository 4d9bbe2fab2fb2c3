// Middleware-level churn robustness: the specific failure paths the churn
// bench exposed, pinned as regression tests — dead nodes' timers must
// no-op, responses to crashed clients must be dropped by the arc's new
// owner, and client-side retry/refresh timers must stop firing.
#include <gtest/gtest.h>

#include "chord/network.hpp"
#include "core/system.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kWindow = 16;

MiddlewareConfig config_with_refresh() {
  MiddlewareConfig config;
  config.features.window_size = kWindow;
  config.features.num_coefficients = 2;
  config.batching.batch_size = 3;
  config.mbr_lifespan = sim::Duration::seconds(10);
  config.notify_period = sim::Duration::millis(500);
  config.query_refresh_period = sim::Duration::seconds(1);
  return config;
}

struct Harness {
  sim::Simulator sim;
  chord::ChordNetwork net;
  MiddlewareSystem system;

  explicit Harness(std::size_t nodes)
      : net(sim,
            [] {
              chord::ChordConfig chord_config;
              chord_config.successor_list_length = 4;
              return chord_config;
            }()),
        system((net.bootstrap(
                    routing::hash_node_ids(nodes, common::IdSpace(32), 5)),
                net),
               config_with_refresh()) {
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
    return dsp::extract_features(window, config_with_refresh().features);
  }
};

TEST(MiddlewareChurn, DeadNodesTickHarmlessly) {
  Harness h(10);
  h.system.register_stream(0, 100);
  h.feed_exponential(0, 100, 1.1, 40);
  (void)h.system.subscribe_similarity(1, h.exponential_features(1.1), 0.5,
                                      sim::Duration::seconds(60));
  h.run_for(2.0);
  // Crash half the ring; their middleware ticks keep firing but must no-op.
  for (NodeIndex victim = 5; victim < 10; ++victim) {
    h.net.crash(victim);
  }
  h.net.run_maintenance_rounds(4);
  h.run_for(10.0);  // would SDSI_CHECK-abort without the liveness guard
  EXPECT_EQ(h.net.alive_count(), 5u);
}

TEST(MiddlewareChurn, ResponseToCrashedClientIsDroppedByNewArcOwner) {
  Harness h(10);
  h.system.register_stream(0, 200);
  h.feed_exponential(0, 200, 1.1, 40);
  const QueryId id = h.system.subscribe_similarity(
      3, h.exponential_features(1.1), 0.5, sim::Duration::seconds(120));
  h.run_for(3.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_GT(record->responses_received, 0u);
  const std::uint64_t before = record->responses_received;

  // The client dies; pushes now land on whichever node covers its old arc
  // and must be silently discarded there. A second matching stream makes
  // sure a push really leaves after the crash.
  h.net.crash(3);
  h.net.run_maintenance_rounds(4);
  const std::uint64_t pushes_at_crash = h.system.metrics().response().delivered;
  h.feed_exponential(0, 200, 1.1, 10);
  h.system.register_stream(0, 201);
  h.feed_exponential(0, 201, 1.1, 40);
  h.run_for(6.0);
  EXPECT_GT(h.system.metrics().response().delivered, pushes_at_crash);
  EXPECT_EQ(record->responses_received, before);  // no ghost deliveries
}

TEST(MiddlewareChurn, RefreshTimerStopsWhenClientDies) {
  Harness h(8);
  (void)h.system.subscribe_similarity(2, h.exponential_features(1.1), 0.1,
                                      sim::Duration::seconds(120));
  h.run_for(3.0);
  h.net.crash(2);
  h.net.run_maintenance_rounds(4);
  const std::uint64_t sent_at_crash = h.system.metrics().query().originated;
  h.run_for(5.0);
  // No refresh traffic from a dead client (the periodic task cancels).
  EXPECT_EQ(h.system.metrics().query().originated, sent_at_crash);
}

TEST(MiddlewareChurn, LocationRetryStopsWhenClientDies) {
  Harness h(8);
  // Query a stream that never registers: the retry loop arms...
  (void)h.system.subscribe_inner_product(4, 999, {1.0}, {1.0},
                                         sim::Duration::seconds(60));
  h.run_for(2.0);
  h.net.crash(4);
  h.net.run_maintenance_rounds(4);
  h.run_for(5.0);  // ...and must fizzle once the client is gone
  SUCCEED();       // reaching here without an SDSI_CHECK abort is the test
}

TEST(MiddlewareChurn, SurvivingQueriesKeepWorkingThroughMassChurn) {
  Harness h(12);
  h.system.register_stream(0, 300);
  h.feed_exponential(0, 300, 1.12, 40);
  const QueryId id = h.system.subscribe_similarity(
      1, h.exponential_features(1.12), 0.3, sim::Duration::seconds(120));
  h.run_for(3.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  const std::uint64_t before = record->responses_received;
  EXPECT_GT(before, 0u);

  // Crash a third of the ring (sparing source 0 and client 1), keep going.
  h.net.crash(5);
  h.net.crash(7);
  h.net.crash(9);
  h.net.crash(11);
  h.net.run_maintenance_rounds(5);
  h.feed_exponential(0, 300, 1.12, 30);
  // A push carries only new matches: a second matching stream shows the
  // survivors still match and push.
  h.system.register_stream(0, 301);
  h.feed_exponential(0, 301, 1.12, 40);
  h.run_for(8.0);
  EXPECT_GT(record->responses_received, before);
  EXPECT_TRUE(record->matched_streams.contains(300));
  EXPECT_TRUE(record->matched_streams.contains(301));
}

}  // namespace
}  // namespace sdsi::core
