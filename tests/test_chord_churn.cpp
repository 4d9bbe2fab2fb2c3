// Chord adaptivity: protocol joins, graceful leaves, crashes, and the
// stabilization machinery repairing the ring — the paper's claim that the
// substrate "accommodates dynamic changes without blocking normal operation".
#include <gtest/gtest.h>

#include <set>

#include "chord/network.hpp"
#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "obs/timeseries.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::chord {
namespace {

using routing::Message;

NodeIndex by_id(const ChordNetwork& net, Key id) {
  for (NodeIndex i = 0; i < net.num_nodes(); ++i) {
    if (net.node_id(i) == id) {
      return i;
    }
  }
  return kInvalidNode;
}

/// True when every alive node's successor/predecessor/finger state matches
/// the ground truth ring.
bool fully_converged(const ChordNetwork& net) {
  for (NodeIndex i = 0; i < net.num_nodes(); ++i) {
    if (!net.is_alive(i)) {
      continue;
    }
    const NodeState& state = net.state(i);
    const NodeIndex succ = net.find_successor_oracle(
        net.id_space().wrap(state.id + 1));
    if (state.successor != succ) {
      return false;
    }
    for (unsigned f = 0; f < net.id_space().bits(); ++f) {
      const Key start = net.id_space().finger_start(state.id, f);
      if (state.fingers.get(f) != net.find_successor_oracle(start)) {
        return false;
      }
    }
  }
  return true;
}

TEST(ChordJoin, NewNodeIntegratesAfterStabilization) {
  sim::Simulator sim;
  ChordConfig config;
  config.id_bits = 8;
  ChordNetwork net(sim, config);
  net.bootstrap(std::vector<Key>{10, 80, 160, 230});

  const NodeIndex newcomer = net.join(100, by_id(net, 10));
  EXPECT_TRUE(net.is_alive(newcomer));
  // Immediately after join the newcomer knows its successor...
  EXPECT_EQ(net.node_id(net.state(newcomer).successor), 160u);
  // ...and after a few maintenance rounds the whole ring is consistent.
  net.run_maintenance_rounds(4);
  EXPECT_TRUE(fully_converged(net));
  EXPECT_EQ(net.node_id(net.find_successor_oracle(90)), 100u);
}

TEST(ChordJoin, ManySequentialJoinsConverge) {
  sim::Simulator sim;
  ChordConfig config;
  config.id_bits = 16;
  ChordNetwork net(sim, config);
  net.bootstrap(std::vector<Key>{7});
  common::Pcg32 rng(3, 3);
  std::set<Key> used{7};
  for (int i = 0; i < 40; ++i) {
    Key id;
    do {
      id = net.id_space().wrap(rng.next64());
    } while (used.contains(id));
    used.insert(id);
    net.join(id, 0);
    net.run_maintenance_rounds(2);
  }
  net.run_maintenance_rounds(4);
  EXPECT_EQ(net.alive_count(), 41u);
  EXPECT_TRUE(fully_converged(net));
}

TEST(ChordLeave, GracefulDepartureSplicesRing) {
  sim::Simulator sim;
  ChordConfig config;
  config.id_bits = 8;
  ChordNetwork net(sim, config);
  net.bootstrap(std::vector<Key>{10, 80, 160, 230});
  const NodeIndex n80 = by_id(net, 80);
  net.leave(n80);
  EXPECT_FALSE(net.is_alive(n80));
  EXPECT_EQ(net.alive_count(), 3u);
  // Keys node 80 covered now belong to 160.
  EXPECT_EQ(net.node_id(net.find_successor_oracle(50)), 160u);
  const NodeIndex n10 = by_id(net, 10);
  EXPECT_EQ(net.node_id(net.state(n10).successor), 160u);
  net.run_maintenance_rounds(3);
  EXPECT_TRUE(fully_converged(net));
}

TEST(ChordCrash, StabilizationRepairsAroundFailedNode) {
  sim::Simulator sim;
  ChordConfig config;
  config.id_bits = 8;
  config.successor_list_length = 3;
  ChordNetwork net(sim, config);
  net.bootstrap(std::vector<Key>{10, 80, 160, 230});
  const NodeIndex n160 = by_id(net, 160);
  net.crash(n160);
  // Peers still hold stale pointers; routing survives via successor lists.
  const NodeIndex n80 = by_id(net, 80);
  const auto trace = net.trace_lookup(n80, 100);
  EXPECT_EQ(net.node_id(trace.result), 230u);
  net.run_maintenance_rounds(4);
  EXPECT_TRUE(fully_converged(net));
}

TEST(ChordCrash, MultipleSimultaneousCrashes) {
  sim::Simulator sim;
  ChordConfig config;
  config.id_bits = 16;
  config.successor_list_length = 4;
  ChordNetwork net(sim, config);
  net.bootstrap(routing::hash_node_ids(20, common::IdSpace(16), 5));
  // Crash three non-adjacent nodes at once.
  net.crash(2);
  net.crash(9);
  net.crash(15);
  EXPECT_EQ(net.alive_count(), 17u);
  net.run_maintenance_rounds(6);
  EXPECT_TRUE(fully_converged(net));
  // All keys route correctly afterwards.
  common::Pcg32 rng(1, 1);
  for (int i = 0; i < 100; ++i) {
    const Key key = net.id_space().wrap(rng.next64());
    const auto trace = net.trace_lookup(0, key);
    EXPECT_EQ(trace.result, net.find_successor_oracle(key));
  }
}

TEST(ChordCrash, MessagesToCrashedCoverageRerouteAfterRepair) {
  sim::Simulator sim;
  ChordConfig config;
  config.id_bits = 8;
  ChordNetwork net(sim, config);
  net.bootstrap(std::vector<Key>{10, 80, 160, 230});
  std::vector<std::pair<NodeIndex, Message>> deliveries;
  net.set_deliver([&](NodeIndex at, const Message& msg) {
    deliveries.emplace_back(at, msg);
  });
  net.crash(by_id(net, 160));
  net.run_maintenance_rounds(4);
  Message msg;
  msg.kind = static_cast<routing::MsgKind>(1);
  net.send(by_id(net, 10), 100, std::move(msg));  // key 100 was 160's
  sim.run_all();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(net.node_id(deliveries[0].first), 230u);
}

/// A four-node ring whose metrics hook counts into a MetricsCollector with
/// a time-series registry attached, as the middleware's hosts run it.
struct DetourRig {
  sim::Simulator sim;
  ChordNetwork net{sim, ChordConfig{.id_bits = 8}};
  core::MetricsCollector metrics{4};
  obs::MetricsRegistry registry{&sim, {}};
  std::vector<Key> deliveries;  // ids of the nodes that took a message

  DetourRig() {
    net.bootstrap(std::vector<Key>{10, 80, 160, 230});
    metrics.set_clock(&sim);
    metrics.set_registry(&registry);
    net.set_metrics_hook(&metrics);
    net.set_deliver([this](NodeIndex at, const Message&) {
      deliveries.push_back(net.node_id(at));
    });
  }

  /// Sends one digest from node 10 straight to node 160, and crashes 160
  /// while the transmission is on the wire.
  void send_to_node_crashing_in_flight(bool reroute_on_dead) {
    Message msg;
    msg.kind = routing::MsgKind::kNeighborExchange;
    msg.reroute_on_dead = reroute_on_dead;
    net.send_direct(by_id(net, 10), by_id(net, 160), std::move(msg));
    net.crash(by_id(net, 160));
    sim.run_all();
  }

  double detour_series() const {
    const auto it = registry.counters().find("failover.detours");
    return it == registry.counters().end() ? 0.0 : it->second->total();
  }
};

TEST(ChordCrash, DirectSendDetoursAroundANodeThatCrashedInFlight) {
  // The dead node's first live successor inherits its arc, and takes the
  // message; the detour is counted once in both sinks.
  DetourRig rig;
  rig.send_to_node_crashing_in_flight(/*reroute_on_dead=*/true);
  EXPECT_EQ(rig.deliveries, std::vector<Key>{230});
  EXPECT_EQ(rig.metrics.robustness().report_detours, 1u);
  EXPECT_EQ(rig.detour_series(), 1.0);
  EXPECT_EQ(rig.metrics.total_drops(), 0u);
}

TEST(ChordCrash, DirectSendWithoutRerouteDropsAtTheDeadNode) {
  DetourRig rig;
  rig.send_to_node_crashing_in_flight(/*reroute_on_dead=*/false);
  EXPECT_TRUE(rig.deliveries.empty());
  EXPECT_EQ(rig.metrics.drops(fault::DropCause::kDeadNode), 1u);
  EXPECT_EQ(rig.metrics.total_drops(), 1u);
  EXPECT_EQ(rig.metrics.robustness().report_detours, 0u);
  EXPECT_EQ(rig.detour_series(), 0.0);
}

TEST(ChordChurn, RoutingUnderContinuousChurnNeverMisdelivers) {
  // Interleave sends with joins/leaves; every delivered message must land on
  // the node that covered the key at delivery time (or be dropped, never
  // misdelivered to a node that knows nothing about the arc).
  sim::Simulator sim;
  ChordConfig config;
  config.id_bits = 16;
  config.successor_list_length = 4;
  ChordNetwork net(sim, config);
  net.bootstrap(routing::hash_node_ids(24, common::IdSpace(16), 8));
  common::Pcg32 rng(44, 4);

  std::uint64_t delivered = 0;
  net.set_deliver([&](NodeIndex at, const Message& msg) {
    ++delivered;
    // Deliverer must cover the key per its own (stale but repaired) view.
    const NodeState& state = net.state(at);
    if (state.predecessor != kInvalidNode &&
        net.is_alive(state.predecessor)) {
      EXPECT_TRUE(net.id_space().in_half_open(
          msg.target_key, net.node_id(state.predecessor), state.id))
          << "misdelivery at node " << state.id;
    }
  });

  std::set<Key> used;
  for (NodeIndex i = 0; i < net.num_nodes(); ++i) {
    used.insert(net.node_id(i));
  }
  std::uint64_t sent = 0;
  for (int round = 0; round < 30; ++round) {
    // One membership change per round.
    if (round % 3 == 0) {
      Key id;
      do {
        id = net.id_space().wrap(rng.next64());
      } while (used.contains(id));
      used.insert(id);
      NodeIndex via = 0;
      while (!net.is_alive(via)) {
        ++via;
      }
      net.join(id, via);
    } else if (net.alive_count() > 8) {
      NodeIndex victim;
      do {
        victim = static_cast<NodeIndex>(
            rng.bounded(static_cast<std::uint32_t>(net.num_nodes())));
      } while (!net.is_alive(victim));
      if (round % 3 == 1) {
        net.leave(victim);
      } else {
        net.crash(victim);
      }
    }
    net.run_maintenance_rounds(2);
    for (int s = 0; s < 10; ++s) {
      NodeIndex from;
      do {
        from = static_cast<NodeIndex>(
            rng.bounded(static_cast<std::uint32_t>(net.num_nodes())));
      } while (!net.is_alive(from));
      Message msg;
      msg.kind = static_cast<routing::MsgKind>(1);
      net.send(from, net.id_space().wrap(rng.next64()), std::move(msg));
      ++sent;
    }
    sim.run_all();
  }
  // The vast majority must get through; churn may drop a few in flight.
  EXPECT_GE(delivered + net.total_drops(), sent);
  EXPECT_GT(delivered, sent * 9 / 10);
}

}  // namespace
}  // namespace sdsi::chord
