// The Pastry-style prefix-routing substrate: digit machinery, routing-table
// structure, lookup correctness, and interchangeability with Chord under the
// RoutingSystem interface.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "routing/prefix_ring.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::routing {
namespace {

struct Harness {
  sim::Simulator sim;
  PrefixRing ring;
  std::vector<std::pair<NodeIndex, Message>> deliveries;

  Harness(std::vector<Key> ids, unsigned id_bits = 8, unsigned digit_bits = 2)
      : ring(sim, common::IdSpace(id_bits), std::move(ids), digit_bits) {
    ring.set_deliver([this](NodeIndex at, const Message& msg) {
      deliveries.emplace_back(at, msg);
    });
  }
};

TEST(PrefixRing, SharedPrefixDigits) {
  Harness h({0x00, 0x55, 0xAA, 0xFF});
  // 8-bit ids, 2-bit digits -> 4 digits per id.
  EXPECT_EQ(h.ring.digits_per_id(), 4u);
  EXPECT_EQ(h.ring.shared_prefix_digits(0x00, 0x00), 4u);
  EXPECT_EQ(h.ring.shared_prefix_digits(0x00, 0xFF), 0u);
  // 0b01010101 vs 0b01010110: digits 01 01 01 01 vs 01 01 01 10.
  EXPECT_EQ(h.ring.shared_prefix_digits(0x55, 0x56), 3u);
  // 0b01010101 vs 0b01100101: first digit 01 == 01, second 01 != 10.
  EXPECT_EQ(h.ring.shared_prefix_digits(0x55, 0x65), 1u);
}

TEST(PrefixRing, OracleAndNeighborsMatchRingOrder) {
  Harness h({10, 80, 160, 230});
  EXPECT_EQ(h.ring.node_id(h.ring.find_successor_oracle(100)), 160u);
  EXPECT_EQ(h.ring.node_id(h.ring.find_successor_oracle(231)), 10u);  // wrap
  const NodeIndex n80 = h.ring.find_successor_oracle(80);
  EXPECT_EQ(h.ring.node_id(h.ring.successor_index(n80)), 160u);
  EXPECT_EQ(h.ring.node_id(h.ring.predecessor_index(n80)), 10u);
  // The replica set: the base chain walk over successor_index, which stops
  // before it wraps back to the node itself.
  const auto successor_ids = [&](std::size_t count) {
    std::vector<Key> ids;
    for (const NodeIndex n : h.ring.successors(n80, count)) {
      ids.push_back(h.ring.node_id(n));
    }
    return ids;
  };
  EXPECT_EQ(successor_ids(2), (std::vector<Key>{160, 230}));
  EXPECT_EQ(successor_ids(5), (std::vector<Key>{160, 230, 10}));
}

TEST(PrefixRing, RoutingTableEntriesShareExpectedPrefix) {
  common::Pcg32 rng(3, 3);
  std::set<Key> ids;
  const common::IdSpace space(16);
  while (ids.size() < 40) {
    ids.insert(space.wrap(rng.next64()));
  }
  Harness h(std::vector<Key>(ids.begin(), ids.end()), 16, 4);
  for (NodeIndex n = 0; n < h.ring.num_nodes(); ++n) {
    for (unsigned row = 0; row < h.ring.digits_per_id(); ++row) {
      for (unsigned digit = 0; digit < 16; ++digit) {
        const NodeIndex entry = h.ring.table_entry(n, row, digit);
        if (entry == kInvalidNode) {
          continue;
        }
        // The entry shares exactly `row` digits and has `digit` next.
        EXPECT_EQ(h.ring.shared_prefix_digits(h.ring.node_id(n),
                                              h.ring.node_id(entry)),
                  row);
      }
    }
  }
}

TEST(PrefixRing, LookupAgreesWithOracleEverywhere) {
  common::Pcg32 rng(5, 5);
  std::set<Key> ids;
  const common::IdSpace space(16);
  while (ids.size() < 30) {
    ids.insert(space.wrap(rng.next64()));
  }
  Harness h(std::vector<Key>(ids.begin(), ids.end()), 16, 4);
  for (int i = 0; i < 500; ++i) {
    const Key key = space.wrap(rng.next64());
    const auto from = static_cast<NodeIndex>(
        rng.bounded(static_cast<std::uint32_t>(h.ring.num_nodes())));
    const auto trace = h.ring.trace_lookup(from, key);
    EXPECT_EQ(trace.result, h.ring.find_successor_oracle(key))
        << "key=" << key;
  }
}

TEST(PrefixRing, SingleNodeCoversEverything) {
  Harness h({42});
  const auto trace = h.ring.trace_lookup(0, 7);
  EXPECT_EQ(trace.result, 0u);
  EXPECT_EQ(trace.hops, 0);
}

TEST(PrefixRing, MessageRoutingDeliversWithHopLatency) {
  Harness h({10, 80, 160, 230});
  Message msg;
  msg.kind = static_cast<routing::MsgKind>(1);
  const NodeIndex n10 = h.ring.find_successor_oracle(10);
  h.ring.send(n10, 100, std::move(msg));
  h.sim.run_all();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.ring.node_id(h.deliveries[0].first), 160u);
  EXPECT_GE(h.deliveries[0].second.hops, 1);
  // Delivery time == hops * 50ms.
  EXPECT_DOUBLE_EQ(h.sim.now().as_millis(),
                   50.0 * h.deliveries[0].second.hops);
}

TEST(PrefixRing, RangeMulticastCoversOracleSet) {
  common::Pcg32 rng(9, 9);
  std::set<Key> ids;
  const common::IdSpace space(16);
  while (ids.size() < 20) {
    ids.insert(space.wrap(rng.next64()));
  }
  Harness h(std::vector<Key>(ids.begin(), ids.end()), 16, 4);
  const Key lo = 1000;
  const Key hi = 20000;
  std::set<NodeIndex> expected;
  {
    NodeIndex current = h.ring.find_successor_oracle(lo);
    const NodeIndex last = h.ring.find_successor_oracle(hi);
    expected.insert(current);
    while (current != last) {
      current = h.ring.successor_index(current);
      expected.insert(current);
    }
  }
  Message msg;
  msg.kind = static_cast<routing::MsgKind>(1);
  h.ring.send_range(0, lo, hi, std::move(msg),
                    MulticastStrategy::kBidirectional);
  h.sim.run_all();
  std::set<NodeIndex> got;
  for (const auto& [at, m] : h.deliveries) {
    got.insert(at);
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(h.deliveries.size(), expected.size());
}

class PrefixHopScaling : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrefixHopScaling, HopsAreLogBase16) {
  const std::size_t n = GetParam();
  sim::Simulator sim;
  // 32-bit ids, 4-bit digits
  PrefixRing ring(sim, common::IdSpace(32),
                  hash_node_ids(n, common::IdSpace(32), 4));
  common::Pcg32 rng(n, 6);
  double total = 0.0;
  constexpr int kLookups = 300;
  for (int i = 0; i < kLookups; ++i) {
    const auto from = static_cast<NodeIndex>(
        rng.bounded(static_cast<std::uint32_t>(n)));
    const Key key = ring.id_space().wrap(rng.next64());
    const auto trace = ring.trace_lookup(from, key);
    ASSERT_NE(trace.result, kInvalidNode);
    EXPECT_EQ(trace.result, ring.find_successor_oracle(key));
    total += trace.hops;
  }
  const double mean = total / kLookups;
  // log16(N) + small leaf-set finish overhead.
  EXPECT_LT(mean, std::log2(static_cast<double>(n)) / 4.0 + 2.5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrefixHopScaling,
                         ::testing::Values(50, 200, 500));

TEST(PrefixRing, FlatterPathsThanChordAtScale) {
  // The substrate-diversity argument: with b = 4, prefix routing resolves
  // four bits per hop vs Chord's expected one.
  constexpr std::size_t kNodes = 500;
  sim::Simulator sim;
  PrefixRing ring(sim, common::IdSpace(32),
                  hash_node_ids(kNodes, common::IdSpace(32), 4));
  common::Pcg32 rng(1, 1);
  double total = 0.0;
  constexpr int kLookups = 500;
  for (int i = 0; i < kLookups; ++i) {
    const auto from = static_cast<NodeIndex>(rng.bounded(kNodes));
    total += ring.trace_lookup(from, ring.id_space().wrap(rng.next64())).hops;
  }
  // Chord averages ~4.5-5.5 hops at N=500; prefix routing should be ~2-3.
  EXPECT_LT(total / kLookups, 4.0);
}

}  // namespace
}  // namespace sdsi::routing
