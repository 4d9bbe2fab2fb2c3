// Stream lifecycle and the inner-product sugar APIs: unregister semantics,
// directory tombstones, point queries and moving averages.
#include <gtest/gtest.h>

#include "core/mapper.hpp"
#include "core/system.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kWindow = 16;

MiddlewareConfig small_config() {
  MiddlewareConfig config;
  config.features.window_size = kWindow;
  config.features.num_coefficients = 2;
  config.batching.batch_size = 4;
  config.mbr_lifespan = sim::Duration::seconds(30);
  config.notify_period = sim::Duration::millis(500);
  return config;
}

struct Harness {
  sim::Simulator sim;
  routing::StaticRing ring;
  MiddlewareSystem system;

  explicit Harness(std::size_t nodes)
      : ring(sim, common::IdSpace(16),
             routing::hash_node_ids(nodes, common::IdSpace(16), 33)),
        system(ring, small_config()) {
    system.start();
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + sim::Duration::seconds(seconds));
  }

  void feed_ramp(NodeIndex node, StreamId stream, int samples,
                 double slope = 1.0, double start = 0.0) {
    for (int i = 0; i < samples; ++i) {
      system.post_stream_value(node, stream,
                               start + slope * static_cast<double>(i));
    }
  }
};

TEST(StreamLifecycle, UnregisterFlushesPartialBatch) {
  Harness h(6);
  h.system.register_stream(0, 10);
  // Window fills at kWindow; two more samples leave a partial batch of 2.
  h.feed_ramp(0, 10, static_cast<int>(kWindow) + 2);
  const std::uint64_t before = h.system.mbrs_routed();
  h.system.unregister_stream(0, 10);
  EXPECT_EQ(h.system.mbrs_routed(), before + 1);  // the flush shipped it
  EXPECT_FALSE(h.system.node(0).streams.contains(10));
}

TEST(StreamLifecycle, UnregisterTombstonesDirectory) {
  Harness h(6);
  h.system.register_stream(2, 20);
  h.run_for(1.0);
  // The directory holder knows the stream...
  const Key key = key_for_stream(h.ring.id_space(), 20);
  const NodeIndex holder = h.ring.find_successor_oracle(key);
  EXPECT_TRUE(h.system.node(holder).location_directory.contains(20));
  h.system.unregister_stream(2, 20);
  h.run_for(1.0);
  // ...and forgets it after the tombstone.
  EXPECT_FALSE(h.system.node(holder).location_directory.contains(20));
}

TEST(StreamLifecycle, QueriesAfterUnregisterGetNothing) {
  Harness h(6);
  h.system.register_stream(1, 30);
  h.feed_ramp(1, 30, 40);
  h.run_for(1.0);
  h.system.unregister_stream(1, 30);
  h.run_for(1.0);
  const QueryId id = h.system.subscribe_latest_value(
      3, 30, sim::Duration::seconds(5));
  h.run_for(3.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_EQ(record->inner_updates, 0u);  // unknown stream: dropped cleanly
}

TEST(StreamLifecycle, ReregisterAfterUnregisterWorks) {
  Harness h(6);
  h.system.register_stream(1, 40);
  h.feed_ramp(1, 40, 30);
  h.system.unregister_stream(1, 40);
  h.run_for(1.0);
  // Same id, different node.
  h.system.register_stream(4, 40);
  h.feed_ramp(4, 40, 40);
  h.run_for(1.0);
  const QueryId id = h.system.subscribe_latest_value(
      0, 40, sim::Duration::seconds(10));
  h.run_for(3.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_GT(record->inner_updates, 0u);
  EXPECT_NEAR(record->last_inner_value, 39.0, 8.0);  // ramp 0..39
}

TEST(InnerProductSugar, LatestValueTracksTheStream) {
  Harness h(6);
  h.system.register_stream(2, 50);
  h.feed_ramp(2, 50, 64);  // last value 63
  const QueryId id = h.system.subscribe_latest_value(
      5, 50, sim::Duration::seconds(20));
  h.run_for(2.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  ASSERT_GT(record->inner_updates, 0u);
  // A pure ramp is band-unlimited but nearly linear: the k=2 synopsis
  // reconstructs ramps imperfectly, so allow a tolerance.
  EXPECT_NEAR(record->last_inner_value, 63.0, 10.0);

  // Push further values: the continuous query tracks them.
  h.feed_ramp(2, 50, 16, 1.0, 64.0);  // now last value 79
  h.run_for(2.0);
  EXPECT_NEAR(record->last_inner_value, 79.0, 12.0);
}

TEST(InnerProductSugar, MovingAverageMatchesDirectComputation) {
  Harness h(6);
  h.system.register_stream(1, 60);
  // Constant stream: every average is exact regardless of synopsis error...
  // except a constant window has no features; use a slow ramp instead and
  // check against the true mean with a tolerance.
  h.feed_ramp(1, 60, 64, 0.5);
  const QueryId id = h.system.subscribe_moving_average(
      4, 60, 8, sim::Duration::seconds(20));
  h.run_for(2.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  ASSERT_GT(record->inner_updates, 0u);
  double expected = 0.0;
  for (int i = 56; i < 64; ++i) {
    expected += 0.5 * i / 8.0;
  }
  EXPECT_NEAR(record->last_inner_value, expected, 2.0);
}

TEST(InnerProductSugar, MovingAverageRejectsOversizedWindow) {
  Harness h(4);
  h.system.register_stream(0, 70);
  EXPECT_DEATH(h.system.subscribe_moving_average(1, 70, kWindow + 1,
                                                 sim::Duration::seconds(5)),
               "");
}

}  // namespace
}  // namespace sdsi::core
