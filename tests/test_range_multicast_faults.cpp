// Range multicast under faults, in both flavors (Sec IV-C sequential walk,
// Sec VI-B bidirectional fan-out): transmission loss inside the multicast
// and a crash of a covering node mid-stream. The self-healing path (acked
// publication + soft-state refresh) must restore full coverage — queries
// keep matching (no false dismissals) and redeliveries never double-count
// (no duplicate stores reaching the client).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chord/network.hpp"
#include "core/system.hpp"
#include "fault/model.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kWindow = 16;

MiddlewareConfig healing_config(routing::MulticastStrategy strategy) {
  MiddlewareConfig config;
  config.features.window_size = kWindow;
  config.features.num_coefficients = 2;
  config.batching.batch_size = 3;
  config.mbr_lifespan = sim::Duration::seconds(15);
  config.notify_period = sim::Duration::millis(500);
  config.multicast = strategy;
  config.mbr_ack.enabled = true;
  config.mbr_ack.timeout = sim::Duration::millis(400);
  config.response_ack.enabled = true;
  config.mbr_refresh_period = sim::Duration::seconds(1);
  config.query_refresh_period = sim::Duration::seconds(1);
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
        system((net.bootstrap(routing::hash_node_ids(nodes, common::IdSpace(32),
                                                     13)),
                net),
               config) {
    system.start();
    // Background stabilization, as every churn scenario runs it.
    sim.schedule_periodic(sim.now() + sim::Duration::millis(500),
                          sim::Duration::millis(500),
                          [this] { net.run_maintenance_rounds(1); });
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
    dsp::FeatureConfig features;
    features.window_size = kWindow;
    features.num_coefficients = 2;
    return dsp::extract_features(window, features);
  }

  void start_stream(NodeIndex node, StreamId stream, double gamma) {
    system.register_stream(node, stream);
    auto value = std::make_shared<double>(1.0);
    sim.schedule_periodic(sim.now() + sim::Duration::millis(100),
                          sim::Duration::millis(100),
                          [this, node, stream, gamma, value] {
                            if (!net.is_alive(node)) {
                              return;
                            }
                            *value *= gamma;
                            if (*value > 1e12) {
                              *value = 1.0;
                            }
                            system.post_stream_value(node, stream, *value);
                          });
  }

  /// Alternates kWindow-sized blocks of two very different exponential
  /// shapes. The sliding window sweeps the routing coordinate between the
  /// two feature points on every phase change, so batch bounding boxes
  /// regularly straddle arc boundaries — the MBR range multicast actually
  /// spans several nodes (internal copies exist to lose).
  void start_two_phase_stream(NodeIndex node, StreamId stream) {
    system.register_stream(node, stream);
    auto value = std::make_shared<double>(1.0);
    auto step = std::make_shared<int>(0);
    sim.schedule_periodic(
        sim.now() + sim::Duration::millis(100), sim::Duration::millis(100),
        [this, node, stream, value, step] {
          if (!net.is_alive(node)) {
            return;
          }
          const double gamma =
              ((*step)++ / static_cast<int>(2 * kWindow)) % 2 == 0 ? 1.05
                                                                   : 1.60;
          *value *= gamma;
          if (*value > 1e9) {
            *value = 1.0;
          }
          system.post_stream_value(node, stream, *value);
        });
  }
};

class RangeMulticastFaults
    : public ::testing::TestWithParam<routing::MulticastStrategy> {};

TEST_P(RangeMulticastFaults, LossInsideMulticastHealsWithoutDuplicates) {
  Harness h(16, healing_config(GetParam()));
  // 30% of all transmissions vanish — enough to regularly swallow copies
  // inside a range multicast (the walk dies mid-range and downstream
  // coverage is lost until a retry or refresh re-sends the batch).
  fault::FaultPlan plan;
  plan.uniform_loss = 0.30;
  h.net.set_fault_model(std::make_shared<fault::LinkFaultModel>(
      plan, h.net.id_space(), common::Pcg32(9, 9), common::Pcg32(9, 9)));
  h.start_two_phase_stream(0, 100);
  h.run_for(10.0);

  // The probe sits exactly on the stream's slow phase: any batch holding a
  // pure slow-phase window contains the probe point (distance zero), so a
  // miss can only come from lost, unhealed state.
  const QueryId id = h.system.subscribe_similarity(
      7, h.exponential_features(1.05), 0.08, sim::Duration::seconds(60));
  h.run_for(20.0);

  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_TRUE(record->matched_streams.contains(100))
      << "healing must prevent a false dismissal under 30% loss";
  EXPECT_EQ(record->match_events, record->matched_streams.size())
      << "retries/refreshes must not double-count a matched stream";
  EXPECT_GT(h.net.drop_count(fault::DropCause::kUniformLoss), 0u);
  // The multicast actually spanned nodes (internal copies existed to lose).
  EXPECT_GT(h.system.metrics().mbr().range_internal, 0u);
}

TEST_P(RangeMulticastFaults, CoveringNodeCrashMidStreamHealsAfterRefresh) {
  Harness h(16, healing_config(GetParam()));
  h.start_stream(0, 200, 1.12);
  h.run_for(5.0);

  const dsp::FeatureVector probe = h.exponential_features(1.12);
  const QueryId id = h.system.subscribe_similarity(
      5, probe, 0.08, sim::Duration::seconds(60));
  h.run_for(3.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  ASSERT_TRUE(record->matched_streams.contains(200));
  const std::uint64_t events_before = record->match_events;

  // Crash the node covering the stream's content key while batches keep
  // closing: multicasts in flight lose a covering replica, stored state on
  // the crashed arc is gone.
  const Key key = h.system.strategy().key_map().key_for(probe);
  const NodeIndex holder = h.net.find_successor_oracle(key);
  // The crash must spare the stream's source (0) and the client (5); a
  // layout change that puts the key on either fails here, not silently.
  ASSERT_NE(holder, 0u) << "degenerate layout: the key is on the source";
  ASSERT_NE(holder, 5u) << "degenerate layout: the key is on the client";
  h.net.crash(holder);
  h.run_for(5.0);  // ring heals around the crash; retries re-route batches
  NodeIndex via = 0;
  while (via == holder || !h.net.is_alive(via)) {
    ++via;
  }
  h.net.recover(holder, via);
  h.system.reset_node_soft_state(holder);
  h.run_for(10.0);  // refresh repopulates the recovered arc

  // The query keeps matching the live stream across crash and recovery
  // (responses keep arriving), and dedup holds end to end.
  EXPECT_TRUE(record->matched_streams.contains(200));
  EXPECT_GE(record->match_events, events_before);
  EXPECT_EQ(record->match_events, record->matched_streams.size());

  // New data posed after recovery must still match: no false dismissal
  // from the restarted (initially empty) arc owner.
  h.start_stream(3, 201, 1.12);
  h.run_for(10.0);
  EXPECT_TRUE(record->matched_streams.contains(201))
      << "subscription refresh must reinstall the query on the healed arc";
}

INSTANTIATE_TEST_SUITE_P(
    BothStrategies, RangeMulticastFaults,
    ::testing::Values(routing::MulticastStrategy::kSequential,
                      routing::MulticastStrategy::kBidirectional),
    [](const ::testing::TestParamInfo<routing::MulticastStrategy>& param) {
      return param.param == routing::MulticastStrategy::kSequential
                 ? "Sequential"
                 : "Bidirectional";
    });

}  // namespace
}  // namespace sdsi::core
