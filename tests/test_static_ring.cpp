// RoutingSystem mechanics on the idealized ring: key routing, direct sends,
// and — most importantly — range multicast coverage in both strategies.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::routing {
namespace {

struct Delivery {
  NodeIndex at;
  Message msg;
  sim::SimTime when;
};

struct Harness {
  sim::Simulator sim;
  StaticRing ring;
  std::vector<Delivery> deliveries;

  Harness(common::IdSpace space, std::vector<Key> ids)
      : ring(sim, space, std::move(ids)) {
    ring.set_deliver([this](NodeIndex at, const Message& msg) {
      deliveries.push_back({at, msg, sim.now()});
    });
  }

  std::set<NodeIndex> delivered_nodes() const {
    std::set<NodeIndex> nodes;
    for (const Delivery& d : deliveries) {
      nodes.insert(d.at);
    }
    return nodes;
  }
};

// The Figure 1 ring: m = 5, nodes at 1, 8, 11, 14, 20, 23.
std::vector<Key> figure1_ids() { return {1, 8, 11, 14, 20, 23}; }

TEST(StaticRing, OracleMatchesPaperKeyAssignment) {
  Harness h(common::IdSpace(5), figure1_ids());
  // "Keys with identifiers 13 and 17 are assigned to nodes 14 and 20", and
  // key 26 wraps to node 1.
  EXPECT_EQ(h.ring.node_id(h.ring.find_successor_oracle(13)), 14u);
  EXPECT_EQ(h.ring.node_id(h.ring.find_successor_oracle(17)), 20u);
  EXPECT_EQ(h.ring.node_id(h.ring.find_successor_oracle(26)), 1u);
  // Exact hit: key 8 belongs to node 8.
  EXPECT_EQ(h.ring.node_id(h.ring.find_successor_oracle(8)), 8u);
}

TEST(StaticRing, NeighborsFollowRingOrder) {
  Harness h(common::IdSpace(5), figure1_ids());
  const NodeIndex n8 = h.ring.find_successor_oracle(8);
  const NodeIndex n11 = h.ring.find_successor_oracle(11);
  const NodeIndex n1 = h.ring.find_successor_oracle(1);
  const NodeIndex n23 = h.ring.find_successor_oracle(23);
  EXPECT_EQ(h.ring.successor_index(n8), n11);
  EXPECT_EQ(h.ring.predecessor_index(n8), n1);
  EXPECT_EQ(h.ring.successor_index(n23), n1);  // wrap
  EXPECT_EQ(h.ring.predecessor_index(n1), n23);
}

TEST(StaticRing, SendDeliversAtSuccessorWithOneHop) {
  Harness h(common::IdSpace(5), figure1_ids());
  Message msg;
  msg.kind = static_cast<routing::MsgKind>(1);
  h.ring.send(0, 13, std::move(msg));
  h.sim.run_all();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.ring.node_id(h.deliveries[0].at), 14u);
  EXPECT_EQ(h.deliveries[0].msg.hops, 1);
  EXPECT_DOUBLE_EQ(h.deliveries[0].when.as_millis(), 50.0);
}

TEST(StaticRing, SelfSendIsLocalAndImmediate) {
  Harness h(common::IdSpace(5), figure1_ids());
  const NodeIndex n14 = h.ring.find_successor_oracle(14);
  Message msg;
  msg.kind = static_cast<routing::MsgKind>(1);
  h.ring.send(n14, 13, std::move(msg));  // node 14 covers key 13
  h.sim.run_all();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].at, n14);
  EXPECT_EQ(h.deliveries[0].msg.hops, 0);
  EXPECT_DOUBLE_EQ(h.deliveries[0].when.as_millis(), 0.0);
}

TEST(StaticRing, SendDirectTakesOneHop) {
  Harness h(common::IdSpace(5), figure1_ids());
  Message msg;
  msg.kind = static_cast<routing::MsgKind>(2);
  h.ring.send_direct(0, 3, std::move(msg));
  h.sim.run_all();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].at, 3u);
  EXPECT_EQ(h.deliveries[0].msg.hops, 1);
}

TEST(StaticRing, MessageMetadataPropagates) {
  Harness h(common::IdSpace(5), figure1_ids());
  Message msg;
  msg.kind = static_cast<routing::MsgKind>(42);
  msg.payload = std::make_shared<const int>(7);
  h.ring.send(0, 17, std::move(msg));
  h.sim.run_all();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.deliveries[0].msg.kind, static_cast<routing::MsgKind>(42));
  EXPECT_EQ(h.deliveries[0].msg.origin, 0u);
  EXPECT_EQ(h.deliveries[0].msg.target_key, 17u);
  const auto payload = std::any_cast<std::shared_ptr<const int>>(
      h.deliveries[0].msg.payload);
  EXPECT_EQ(*payload, 7);
}

TEST(StaticRing, RangeMulticastPaperExample) {
  // "A message sent to range [10, 19] needs to be delivered at N11, N14 and
  // N20" (Figure 3a: keys K10 and K19).
  Harness h(common::IdSpace(5), figure1_ids());
  Message msg;
  msg.kind = static_cast<routing::MsgKind>(3);
  h.ring.send_range(0, 10, 19, std::move(msg),
                    MulticastStrategy::kSequential);
  h.sim.run_all();
  std::set<Key> ids;
  for (const Delivery& d : h.deliveries) {
    ids.insert(h.ring.node_id(d.at));
  }
  EXPECT_EQ(ids, (std::set<Key>{11, 14, 20}));
}

TEST(StaticRing, RangeMulticastBidirectionalSameCoverage) {
  Harness h(common::IdSpace(5), figure1_ids());
  Message msg;
  msg.kind = static_cast<routing::MsgKind>(3);
  h.ring.send_range(0, 10, 19, std::move(msg),
                    MulticastStrategy::kBidirectional);
  h.sim.run_all();
  std::set<Key> ids;
  for (const Delivery& d : h.deliveries) {
    ids.insert(h.ring.node_id(d.at));
  }
  EXPECT_EQ(ids, (std::set<Key>{11, 14, 20}));
}

TEST(StaticRing, BidirectionalHalvesPropagationDepth) {
  // 16-node ring, range spanning 9 nodes: sequential walks 8 forward hops
  // after the first delivery; bidirectional fans out ~4 in each direction.
  std::vector<Key> ids;
  for (Key i = 0; i < 16; ++i) {
    ids.push_back(i * 16);  // m=8 ring, evenly spaced
  }
  const auto run = [&](MulticastStrategy strategy) {
    Harness h(common::IdSpace(8), ids);
    Message msg;
    msg.kind = static_cast<routing::MsgKind>(1);
    h.ring.send_range(0, 16, 144, std::move(msg), strategy);
    h.sim.run_all();
    double last = 0.0;
    for (const Delivery& d : h.deliveries) {
      last = std::max(last, d.when.as_millis());
    }
    return std::pair{h.deliveries.size(), last};
  };
  const auto [seq_count, seq_time] = run(MulticastStrategy::kSequential);
  const auto [bi_count, bi_time] = run(MulticastStrategy::kBidirectional);
  EXPECT_EQ(seq_count, 9u);
  EXPECT_EQ(bi_count, 9u);
  EXPECT_LT(bi_time, 0.7 * seq_time);
}

TEST(StaticRing, FullCircleRangeReachesEveryNode) {
  std::vector<Key> ids{5, 50, 100, 150, 200, 250};
  Harness h(common::IdSpace(8), ids);
  Message msg;
  msg.kind = static_cast<routing::MsgKind>(1);
  const Key self = h.ring.node_id(2);
  h.ring.send_range(2, h.ring.id_space().wrap(self + 1), self, std::move(msg),
                    MulticastStrategy::kSequential);
  h.sim.run_all();
  EXPECT_EQ(h.delivered_nodes().size(), ids.size());
}

TEST(StaticRing, RangeRunningTheLongWayReachesEveryNode) {
  // [10, 220] starts below the first id and ends above the last, so both
  // ends fall on node 50's arc (200, 50] while the range runs the long way
  // round through every other node.
  const std::vector<Key> ids{50, 100, 150, 200};
  for (const MulticastStrategy strategy :
       {MulticastStrategy::kSequential, MulticastStrategy::kBidirectional}) {
    Harness h(common::IdSpace(8), ids);
    Message msg;
    msg.kind = static_cast<routing::MsgKind>(1);
    h.ring.send_range(1, 10, 220, std::move(msg), strategy);
    h.sim.run_all();
    EXPECT_EQ(h.delivered_nodes().size(), ids.size())
        << "strategy=" << static_cast<int>(strategy);
  }
}

TEST(StaticRing, SingleNodeRangeNoForwarding) {
  Harness h(common::IdSpace(5), figure1_ids());
  Message msg;
  msg.kind = static_cast<routing::MsgKind>(1);
  h.ring.send_range(0, 12, 13, std::move(msg),
                    MulticastStrategy::kSequential);
  h.sim.run_all();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.ring.node_id(h.deliveries[0].at), 14u);
  EXPECT_FALSE(h.deliveries[0].msg.range_internal);
}

TEST(StaticRing, RangeInternalFlagSetOnForwardedCopies) {
  Harness h(common::IdSpace(5), figure1_ids());
  Message msg;
  msg.kind = static_cast<routing::MsgKind>(1);
  h.ring.send_range(0, 10, 19, std::move(msg),
                    MulticastStrategy::kSequential);
  h.sim.run_all();
  int internal = 0;
  for (const Delivery& d : h.deliveries) {
    internal += d.msg.range_internal ? 1 : 0;
  }
  EXPECT_EQ(internal, 2);  // N14 and N20 receive forwarded copies
}

class RangeCoverageProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RangeCoverageProperty, MulticastCoversExactlyTheOracleNodeSet) {
  // Random rings and random ranges: the delivered node set must equal
  // { successor(k) : k in [lo, hi] }, for both strategies, with exactly one
  // delivery per node.
  common::Pcg32 rng(GetParam(), 17);
  const common::IdSpace space(16);
  const std::size_t n = 3 + rng.bounded(20);
  std::set<Key> unique_ids;
  while (unique_ids.size() < n) {
    unique_ids.insert(space.wrap(rng.next64()));
  }
  std::vector<Key> ids(unique_ids.begin(), unique_ids.end());
  const Key lo = space.wrap(rng.next64());
  const Key hi = space.wrap(lo + rng.bounded(1 << 14));

  // Oracle: nodes covering keys in [lo, hi] == successor(lo) up to
  // successor(hi) along the ring.
  std::set<NodeIndex> expected;
  {
    Harness probe(space, ids);
    NodeIndex current = probe.ring.find_successor_oracle(lo);
    const NodeIndex last = probe.ring.find_successor_oracle(hi);
    expected.insert(current);
    while (current != last) {
      current = probe.ring.successor_index(current);
      expected.insert(current);
    }
  }

  for (const MulticastStrategy strategy :
       {MulticastStrategy::kSequential, MulticastStrategy::kBidirectional}) {
    Harness h(space, ids);
    Message msg;
    msg.kind = static_cast<routing::MsgKind>(1);
    h.ring.send_range(0, lo, hi, std::move(msg), strategy);
    h.sim.run_all();
    EXPECT_EQ(h.delivered_nodes(), expected)
        << "seed=" << GetParam() << " strategy=" << static_cast<int>(strategy)
        << " lo=" << lo << " hi=" << hi;
    EXPECT_EQ(h.deliveries.size(), expected.size()) << "duplicate deliveries";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeCoverageProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(HashNodeIds, DistinctAndInSpace) {
  const common::IdSpace space(10);
  const auto ids = hash_node_ids(500, space, 1);
  std::set<Key> seen(ids.begin(), ids.end());
  EXPECT_EQ(seen.size(), 500u);
  for (const Key id : ids) {
    EXPECT_EQ(id, space.wrap(id));
  }
}

TEST(HashNodeIds, SaltChangesAssignment) {
  const common::IdSpace space(32);
  EXPECT_NE(hash_node_ids(5, space, 1), hash_node_ids(5, space, 2));
}

}  // namespace
}  // namespace sdsi::routing
