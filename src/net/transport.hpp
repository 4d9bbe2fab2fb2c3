// The pluggable transport boundary: how a NetNode's frames reach its peers.
//
// Two implementations exist (docs/ARCHITECTURE.md "Transport layer"):
//  - SimTransport: in-process fabric over the discrete-event kernel —
//    deterministic, instant, used by the equivalence tests;
//  - SocketTransport: epoll-based async TCP with length-prefixed v1 frames,
//    per-peer write queues and reconnect-with-backoff (tools/sdsi_node).
//
// A transport moves already-addressed frames between node endpoints; all
// routing decisions (successor lookup, range-multicast fan-out) stay above
// it in net::TransportRing, the routing::RoutingSystem NetNode sends
// through, and every frame crosses the v1 codec of net/wire.hpp regardless
// of implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "common/types.hpp"
#include "routing/message.hpp"

namespace sdsi::net {

class Transport {
 public:
  /// Upcall for every frame that arrives addressed to this endpoint. The
  /// message has already crossed the wire codec (decode validated it).
  using DeliverFn = std::function<void(routing::Message&&)>;

  virtual ~Transport() = default;

  /// Queues one message to `peer` (a node index in the ring's address book).
  /// Returns false when the peer is unknown; delivery is asynchronous and
  /// at-most-once — a transport does not retransmit, the middleware's
  /// soft-state machinery owns end-to-end reliability.
  virtual bool send(NodeIndex peer, const routing::Message& msg) = 0;

  /// Queues pre-encoded frame bytes to `peer` verbatim, bypassing this
  /// endpoint's encoder. This is the seam the fault-injection layer uses to
  /// put damaged or delayed bytes on the wire: the receiving endpoint runs
  /// its normal codec and must survive (and account for) whatever arrives.
  /// Default: unsupported.
  virtual bool send_raw(NodeIndex peer, std::span<const std::uint8_t> frame) {
    (void)peer;
    (void)frame;
    return false;
  }

  virtual void set_deliver(DeliverFn fn) = 0;

  /// Drives I/O forward (connect/read/write/deliver), waiting at most
  /// `budget_ms` for readiness. SimTransport delivers through the sim
  /// scheduler instead and ignores the budget.
  virtual void poll(int budget_ms) = 0;

  /// Endpoints this transport can address (including self).
  virtual std::size_t peer_count() const = 0;
};

}  // namespace sdsi::net
