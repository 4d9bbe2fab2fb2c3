// TransportRing: the routing::RoutingSystem of one socket ring member,
// `self`, built over the address book every process derives (NetRing), the
// member's Transport and its FailureDetector. net::NetNode owns one, and its
// core::MiddlewareNode sends and receives through it. is_alive(n) is
// n == self or the detector's usable(n), so successor and predecessor
// lookups step past dead peers, and the Sec IV-C walk
// (RoutingSystem::forward_range_copies) takes each arc from the live
// predecessor: a dead peer's live successor covers its arc. route_to_key
// sends one frame to the key's first live successor, route_direct one frame
// to the peer; a frame to self loops back through deliver_at. receive()
// hands each decoded frame to deliver_at, which runs the deliver upcall and
// forwards the walk. Nothing here schedules: every send leaves at once. The
// Simulator it is built with is its clock, and the node's timers run on that
// same Simulator.
#pragma once

#include <cstdint>
#include <utility>

#include "net/failure_detector.hpp"
#include "net/ring.hpp"
#include "net/transport.hpp"
#include "routing/api.hpp"

namespace sdsi::net {

class TransportRing final : public routing::RoutingSystem {
 public:
  /// The ring, transport and detector must outlive this object. Trace ids
  /// are (self + 1) << 40 | n, unique across the ring's processes.
  TransportRing(sim::Simulator& clock, const NetRing& ring, NodeIndex self,
                Transport& transport, const FailureDetector& detector);

  std::size_t num_nodes() const override { return ring_.size(); }
  bool is_alive(NodeIndex node) const override {
    return node < ring_.size() && (node == self_ || detector_.usable(node));
  }
  Key node_id(NodeIndex node) const override { return ring_.id(node); }
  NodeIndex successor_index(NodeIndex node) const override {
    return first_live(ring_.successor_index(node), true);
  }
  NodeIndex predecessor_index(NodeIndex node) const override {
    return first_live(ring_.predecessor_index(node), false);
  }
  NodeIndex find_successor_oracle(Key key) const override {
    return ring_.successor_of_key(key);
  }

  /// Transport side: one decoded frame addressed to this member.
  void receive(routing::Message msg) { deliver_at(self_, std::move(msg)); }

  /// Frames the transport refused (no route to the peer).
  std::uint64_t send_failures() const noexcept { return send_failures_; }
  /// Dead peers the successor and predecessor walks stepped past.
  std::uint64_t dead_steps() const noexcept { return dead_steps_; }

 protected:
  void route_to_key(NodeIndex from, Key key, routing::Message msg) override;
  void route_direct(NodeIndex from, NodeIndex to,
                    routing::Message msg) override;

 private:
  /// `node` when it is alive, else the next live node past it, walking
  /// successors when `up` (self is always alive, so the walk ends).
  NodeIndex first_live(NodeIndex node, bool up) const;
  void transmit(NodeIndex to, routing::Message msg);

  const NetRing& ring_;
  NodeIndex self_;
  Transport& transport_;
  const FailureDetector& detector_;
  std::uint64_t send_failures_ = 0;
  mutable std::uint64_t dead_steps_ = 0;
};

}  // namespace sdsi::net
