#include "net/transport_ring.hpp"

#include <utility>

namespace sdsi::net {

TransportRing::TransportRing(sim::Simulator& clock, const NetRing& ring,
                             NodeIndex self, Transport& transport,
                             const FailureDetector& detector)
    : RoutingSystem(clock, ring.space(), sim::Duration()),
      ring_(ring),
      self_(self),
      transport_(transport),
      detector_(detector) {
  set_trace_id_base((static_cast<std::uint64_t>(self) + 1) << 40);
}

NodeIndex TransportRing::first_live(NodeIndex node, bool up) const {
  while (!is_alive(node)) {
    ++dead_steps_;
    node = up ? ring_.successor_index(node) : ring_.predecessor_index(node);
  }
  return node;
}

void TransportRing::route_to_key(NodeIndex /*from: self*/, Key key,
                                 routing::Message msg) {
  transmit(first_live(ring_.successor_of_key(key), true), std::move(msg));
}

void TransportRing::route_direct(NodeIndex /*from: self*/, NodeIndex to,
                                 routing::Message msg) {
  transmit(to, std::move(msg));
}

void TransportRing::transmit(NodeIndex to, routing::Message msg) {
  if (to == self_) {
    deliver_at(self_, std::move(msg));
    return;
  }
  msg.hops = 1;
  if (!transport_.send(to, msg)) {
    ++send_failures_;
  }
}

}  // namespace sdsi::net
