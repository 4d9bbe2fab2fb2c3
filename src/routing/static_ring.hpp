// Idealized one-hop routing substrate.
//
// Implements the RoutingSystem interface with perfect global knowledge:
// every key-routed message reaches successor(key) in exactly one hop. It
// exists to (a) unit-test the middleware in isolation from Chord's routing
// behavior, and (b) serve as the "ideal DHT" lower bound in ablation benches
// (how much of the system cost is overlay transit vs. inherent). PrefixRing
// keeps this ring, its neighbors and its direct sends, and overrides only
// how a key-routed message travels.
#pragma once

#include <vector>

#include "routing/api.hpp"
#include "routing/ring_table.hpp"

namespace sdsi::routing {

class StaticRing : public RoutingSystem {
 public:
  /// `node_ids` are distinct ring identifiers; the node with index i gets
  /// node_ids[i]. Indices are the simulator-level handles the application
  /// uses. Every hop costs kHopLatency.
  StaticRing(sim::Simulator& simulator, common::IdSpace space,
             std::vector<Key> node_ids);

  std::size_t num_nodes() const final { return table_.size(); }
  bool is_alive(NodeIndex node) const final { return node < table_.size(); }
  Key node_id(NodeIndex node) const final { return table_.id(node); }
  NodeIndex successor_index(NodeIndex node) const final {
    return table_.successor_index(node);
  }
  NodeIndex predecessor_index(NodeIndex node) const final {
    return table_.predecessor_index(node);
  }
  NodeIndex find_successor_oracle(Key key) const final {
    return table_.successor_of_key(key);
  }

 protected:
  void route_to_key(NodeIndex from, Key key, Message msg) override;
  void route_direct(NodeIndex from, NodeIndex to, Message msg) final;

 private:
  RingTable table_;
};

/// Derives `count` distinct node identifiers the way Chord does: SHA-1 of the
/// node's address ("node:<i>:<attempt>") truncated to the ring width,
/// re-hashing on collision.
std::vector<Key> hash_node_ids(std::size_t count, const common::IdSpace& space,
                               std::uint64_t salt = 0);

}  // namespace sdsi::routing
