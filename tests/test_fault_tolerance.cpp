// Failure injection: message loss in the overlay and subscription-holder
// crashes, and the soft-state mechanisms (periodic MBRs, responses, query
// refresh) that heal them.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>

#include "chord/network.hpp"
#include "core/system.hpp"
#include "fault/model.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kWindow = 16;

MiddlewareConfig base_config() {
  MiddlewareConfig config;
  config.features.window_size = kWindow;
  config.features.num_coefficients = 2;
  config.batching.batch_size = 3;
  config.mbr_lifespan = sim::Duration::seconds(10);
  config.notify_period = sim::Duration::millis(500);
  return config;
}

struct Harness {
  sim::Simulator sim;
  chord::ChordNetwork net;
  MiddlewareSystem system;

  Harness(std::size_t nodes, MiddlewareConfig config)
      : net(sim,
            [] {
              chord::ChordConfig chord_config;
              chord_config.successor_list_length = 4;
              return chord_config;
            }()),
        system((net.bootstrap(
                    routing::hash_node_ids(nodes, common::IdSpace(32), 13)),
                net),
               config) {
    system.start();
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + sim::Duration::seconds(seconds));
  }

  dsp::FeatureVector exponential_features(double gamma) const {
    std::vector<Sample> window(kWindow);
    double value = 1.0;
    for (Sample& x : window) {
      value *= gamma;
      x = value;
    }
    return dsp::extract_features(window, base_config().features);
  }

  /// Drives a pure oscillation at a frequency beyond the retained
  /// coefficients: its features sit at the origin, far from every
  /// exponential stream's feature point.
  void start_sine_stream(NodeIndex node, StreamId stream) {
    system.register_stream(node, stream);
    auto tick = std::make_shared<int>(0);
    sim.schedule_periodic(
        sim.now() + sim::Duration::millis(100), sim::Duration::millis(100),
        [this, node, stream, tick] {
          const double x =
              5.0 + std::sin(2.0 * std::numbers::pi * 3.0 * (*tick)++ /
                             static_cast<double>(kWindow));
          system.post_stream_value(node, stream, x);
        });
  }

  /// Drives one exponential stream as a periodic process.
  void start_stream(NodeIndex node, StreamId stream, double gamma) {
    system.register_stream(node, stream);
    auto value = std::make_shared<double>(1.0);
    sim.schedule_periodic(sim.now() + sim::Duration::millis(100),
                          sim::Duration::millis(100),
                          [this, node, stream, gamma, value] {
                            *value *= gamma;
                            if (*value > 1e12) {
                              *value = 1.0;  // keep doubles finite; the
                                             // normalized shape is unchanged
                            }
                            system.post_stream_value(node, stream, *value);
                          });
  }
};

/// A fault model that drops each transmission with probability `p`, drawn
/// from `rng`, and injects nothing else.
std::shared_ptr<fault::LinkFaultModel> uniform_loss(
    const routing::RoutingSystem& net, double p, common::Pcg32 rng) {
  fault::FaultPlan plan;
  plan.uniform_loss = p;
  return std::make_shared<fault::LinkFaultModel>(plan, net.id_space(), rng,
                                                 rng);
}

TEST(MessageLoss, SamplerRespectsProbability) {
  sim::Simulator sim;
  routing::StaticRing ring(sim, common::IdSpace(16),
                           routing::hash_node_ids(4, common::IdSpace(16), 1));
  ring.set_fault_model(uniform_loss(ring, 0.25, common::Pcg32(1, 1)));
  int delivered = 0;
  ring.set_deliver([&](NodeIndex, const routing::Message&) { ++delivered; });
  constexpr int kSends = 4000;
  for (int i = 0; i < kSends; ++i) {
    routing::Message msg;
    msg.kind = static_cast<routing::MsgKind>(1);
    ring.send(0, static_cast<Key>(i * 13) & ring.id_space().mask(),
              std::move(msg));
  }
  sim.run_all();
  EXPECT_EQ(delivered + static_cast<int>(ring.total_drops()), kSends);
  EXPECT_NEAR(static_cast<double>(ring.total_drops()) / kSends, 0.25, 0.03);
}

TEST(MessageLoss, ZeroProbabilityDropsNothing) {
  sim::Simulator sim;
  routing::StaticRing ring(sim, common::IdSpace(16),
                           routing::hash_node_ids(4, common::IdSpace(16), 1));
  ring.set_fault_model(uniform_loss(ring, 0.0, common::Pcg32(1, 1)));
  for (int i = 0; i < 100; ++i) {
    routing::Message msg;
    msg.kind = static_cast<routing::MsgKind>(1);
    ring.send(0, static_cast<Key>(i), std::move(msg));
  }
  sim.run_all();
  EXPECT_EQ(ring.total_drops(), 0u);
}

TEST(MessageLoss, SoftStateStillDetectsSimilarity) {
  // 10% of all transmissions vanish. Because summaries are shipped
  // periodically (every batch) and responses push periodically, the
  // continuous query still converges on the right answer.
  MiddlewareConfig config = base_config();
  config.query_refresh_period = sim::Duration::seconds(2);
  Harness h(10, config);
  h.net.set_fault_model(uniform_loss(h.net, 0.10, common::Pcg32(7, 7)));
  h.start_stream(0, 100, 1.10);
  h.start_sine_stream(1, 101);
  h.run_for(5.0);
  const QueryId id = h.system.subscribe_similarity(
      4, h.exponential_features(1.10), 0.08, sim::Duration::seconds(60));
  h.run_for(20.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_GT(h.net.drop_count(fault::DropCause::kUniformLoss), 0u);
  EXPECT_TRUE(record->matched_streams.contains(100));
  EXPECT_FALSE(record->matched_streams.contains(101));
  EXPECT_GT(record->responses_received, 0u);
}

TEST(QueryRefresh, HealsSubscriptionAfterHolderCrash) {
  // The node covering the query range crashes. Without refresh, the
  // successor that takes over its arc never learns about the query; with
  // soft-state refresh the subscription reappears and matching resumes.
  for (const bool refresh_enabled : {false, true}) {
    MiddlewareConfig config = base_config();
    if (refresh_enabled) {
      config.query_refresh_period = sim::Duration::seconds(1);
    }
    Harness h(10, config);
    h.start_stream(0, 200, 1.12);
    h.run_for(4.0);

    const dsp::FeatureVector probe = h.exponential_features(1.12);
    const QueryId id = h.system.subscribe_similarity(
        1, probe, 0.02, sim::Duration::seconds(120));
    h.run_for(3.0);
    const ClientQueryRecord* record = h.system.client_record(id);
    EXPECT_TRUE(record->matched_streams.contains(200));

    // Crash the subscription holder (the node covering the probe's key).
    const Key key = h.system.strategy().key_map().key_for(probe);
    const NodeIndex holder = h.net.find_successor_oracle(key);
    if (holder == 0 || holder == 1) {
      continue;  // degenerate layout for this seed; scenario not applicable
    }
    h.net.crash(holder);
    h.net.run_maintenance_rounds(4);

    // A NEW stream with the same profile starts after the crash. Its MBRs
    // land on the arc's new owner.
    h.start_stream(3, 201, 1.12);
    h.run_for(10.0);

    if (refresh_enabled) {
      EXPECT_TRUE(record->matched_streams.contains(201))
          << "refresh failed to reinstall the subscription";
    } else {
      EXPECT_FALSE(record->matched_streams.contains(201))
          << "without refresh the new arc owner cannot know the query";
    }
  }
}

TEST(QueryRefresh, StopsAfterLifespan) {
  MiddlewareConfig config = base_config();
  config.query_refresh_period = sim::Duration::millis(500);
  Harness h(8, config);
  (void)h.system.subscribe_similarity(0, h.exponential_features(1.1), 0.05,
                                      sim::Duration::seconds(2));
  h.run_for(4.0);
  const std::uint64_t queries_sent = h.system.metrics().query().originated;
  h.run_for(4.0);
  // No further refresh traffic once the query expired.
  EXPECT_EQ(h.system.metrics().query().originated, queries_sent);
}

}  // namespace
}  // namespace sdsi::core
