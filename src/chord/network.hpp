// The Chord content-based routing protocol over the discrete-event simulator.
//
// This is our reimplementation of the substrate the paper ran on (the MIT
// Chord simulator): consistent hashing onto an m-bit identifier circle,
// per-node finger tables giving O(log N) lookups, and the join / leave /
// stabilize machinery that makes the ring adapt to membership changes.
// Key-routed messages travel recursively, hop by hop, with a constant 50 ms
// per-hop delay (routing::kHopLatency), exactly as the paper states its
// simulator does.
//
// Two ways to form a ring:
//  - bootstrap(ids): instantly installs globally consistent state (used by
//    the performance experiments, which run on a stable ring);
//  - join()/leave()/crash() + periodic stabilization (used by the adaptivity
//    tests to show the ring repairing itself, Sec II-B.1 / VII).
#pragma once

#include <span>
#include <vector>

#include "chord/node_state.hpp"
#include "routing/api.hpp"

namespace sdsi::chord {

struct ChordConfig {
  /// Ring width m. Experiments use 32; Figure-1 tests use 5.
  unsigned id_bits = 32;

  /// Successor-list length r (fault tolerance of routing).
  std::size_t successor_list_length = 4;
};

class ChordNetwork final : public routing::RoutingSystem {
 public:
  using Message = routing::Message;

  ChordNetwork(sim::Simulator& simulator, ChordConfig config);

  const ChordConfig& config() const noexcept { return config_; }

  // --- Ring construction -------------------------------------------------

  /// Creates node slots for every id and installs globally consistent
  /// successor/predecessor/finger state. Ids must be distinct.
  void bootstrap(std::span<const Key> ids);

  /// Recomputes all routing state of alive nodes from the ground truth
  /// (oracle repair; tests use it to model "stabilization has converged").
  void rebuild_routing_state();

  // --- Membership protocol ------------------------------------------------

  /// Protocol join: the new node asks `via` to look up its own id, adopts
  /// the result as successor, and lets stabilization integrate it fully.
  /// Returns the new node's index.
  NodeIndex join(Key id, NodeIndex via);

  /// Graceful departure: hands its keys' coverage to the successor by
  /// patching neighbors before going down.
  void leave(NodeIndex node);

  /// Crash failure: the node silently vanishes; peers discover it through
  /// stabilization and successor lists.
  void crash(NodeIndex node);

  /// Restart of a crashed node under its old identifier: it re-enters the
  /// ring the way join() does (asks `via` to look up its own id, adopts the
  /// result as successor) and lets stabilization re-integrate it. Its
  /// routing state is rebuilt from scratch — and the middleware above must
  /// treat its soft state as lost (see MiddlewareSystem::
  /// reset_node_soft_state).
  void recover(NodeIndex node, NodeIndex via);

  /// One stabilization round at `node`: verify successor, adopt a closer
  /// one, notify it, refresh the successor list.
  void stabilize(NodeIndex node);

  /// Refreshes finger i of `node` by a local-state lookup.
  void fix_finger(NodeIndex node, unsigned finger);

  /// Runs `rounds` full sweeps of stabilize + fix all fingers over all alive
  /// nodes (convergence helper for tests).
  void run_maintenance_rounds(int rounds);

  // --- Introspection ------------------------------------------------------

  /// Executes the lookup algorithm over current protocol state without
  /// sending messages or advancing time. This is what Figure 1(b) depicts.
  routing::LookupTrace trace_lookup(NodeIndex from, Key key) const;

  const NodeState& state(NodeIndex node) const {
    SDSI_CHECK(node < nodes_.size());
    return nodes_[node];
  }

  std::size_t alive_count() const noexcept { return alive_count_; }

  // --- RoutingSystem interface ---------------------------------------------

  std::size_t num_nodes() const override { return nodes_.size(); }
  bool is_alive(NodeIndex node) const override {
    return node < nodes_.size() && nodes_[node].alive;
  }
  Key node_id(NodeIndex node) const override {
    SDSI_CHECK(node < nodes_.size());
    return nodes_[node].id;
  }
  NodeIndex successor_index(NodeIndex node) const override;
  NodeIndex predecessor_index(NodeIndex node) const override;
  NodeIndex find_successor_oracle(Key key) const override;

  /// The node's protocol successor list, filtered to live entries — the
  /// replica set the replication layer mirrors onto. Unlike the base
  /// chain-walk this reflects what the node actually knows mid-churn.
  std::vector<NodeIndex> successors(NodeIndex node,
                                    std::size_t count) const override;

 protected:
  void route_to_key(NodeIndex from, Key key, Message msg) override;
  void route_direct(NodeIndex from, NodeIndex to, Message msg) override;

 private:
  /// Safety valve: a routed message that exceeds this hop count is dropped
  /// under kHopLimit (can only happen mid-churn).
  static constexpr int kMaxRouteHops = 512;

  NodeIndex create_node(Key id);

  /// First alive entry of `node`'s successor list (patches the successor
  /// pointer if the head died).
  NodeIndex live_successor(NodeIndex node) const;

  /// Largest finger of `node` strictly inside (node, key), skipping dead
  /// entries; falls back to the live successor.
  NodeIndex closest_preceding_node(NodeIndex node, Key key) const;

  /// Lookup step shared by trace_lookup and the message path. Returns the
  /// next node to visit; sets `final_here` when `current` is the
  /// responsible node.
  NodeIndex next_hop(NodeIndex current, Key key, bool& final_here) const;

  /// Continues routing `msg` from `current` (already charged for arriving
  /// there).
  void route_step(NodeIndex current, Key key, Message msg);

  /// A transmission with reroute_on_dead found `dead` down on arrival:
  /// forward to the first live entry of the dead node's successor list (the
  /// node that inherits its arc) instead of dropping. Drops with
  /// kDeadAggregator only when the whole list is gone.
  void detour_around_dead(NodeIndex dead, Message msg);

  void refresh_successor_list(NodeIndex node);
  void rebuild_oracle();

  ChordConfig config_;
  std::vector<NodeState> nodes_;
  std::vector<std::pair<Key, NodeIndex>> oracle_;  // sorted alive nodes
  std::size_t alive_count_ = 0;
};

}  // namespace sdsi::chord
