// SimTransport: the Transport interface over the discrete-event kernel.
//
// A SimFabric owns the shared medium: the simulator clock plus the endpoint
// registry. Each SimTransport is one node's endpoint. send() pushes the
// frame through the v1 wire codec — encode, decode, and a re-encode that
// must reproduce the bytes, so the receiver only ever sees what survived
// serialization and the codec is checked on every live frame — then schedules
// delivery at the peer after the configured hop latency, using the same
// pooled-deferral idiom as RoutingSystem::schedule_msg.
//
// Determinism: with a deterministic simulator and a fixed send order,
// delivery order is fixed too, which is what lets the sim-vs-socket
// equivalence test compare matched sets across transports.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/model.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace sdsi::net {

class SimTransport;

/// The shared in-process medium a set of SimTransports communicates over.
class SimFabric {
 public:
  SimFabric(sim::Simulator& simulator, sim::Duration hop_latency)
      : sim_(simulator), hop_latency_(hop_latency) {}

  sim::Simulator& simulator() noexcept { return sim_; }
  sim::Duration hop_latency() const noexcept { return hop_latency_; }

  /// Total frames/bytes that crossed the fabric (all endpoints).
  std::uint64_t frames_sent() const noexcept { return frames_; }
  std::uint64_t bytes_sent() const noexcept { return bytes_; }

  /// Raw frames (send_raw) the receiving side's codec rejected — the sim
  /// fabric's analogue of SocketTransportStats::decode_rejects.
  std::uint64_t decode_rejects() const noexcept { return decode_rejects_; }

  /// Observer for fabric-level losses (today only kMalformedFrame from a
  /// rejected raw frame); lets an in-process chaos run route transport
  /// drops into the same accounting as the injected ones.
  void set_drop_hook(std::function<void(fault::DropCause)> hook) {
    drop_hook_ = std::move(hook);
  }

 private:
  friend class SimTransport;

  void attach(NodeIndex peer, SimTransport* endpoint) {
    if (peer >= endpoints_.size()) {
      endpoints_.resize(peer + 1, nullptr);
    }
    endpoints_[peer] = endpoint;
  }

  sim::Simulator& sim_;
  sim::Duration hop_latency_;
  std::vector<SimTransport*> endpoints_;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t decode_rejects_ = 0;
  std::function<void(fault::DropCause)> drop_hook_;
};

class SimTransport final : public Transport {
 public:
  /// Registers this endpoint as `self` on the fabric. The fabric must
  /// outlive every endpoint attached to it.
  SimTransport(SimFabric& fabric, NodeIndex self);

  NodeIndex self() const noexcept { return self_; }

  bool send(NodeIndex peer, const routing::Message& msg) override;
  /// Raw bytes cross the fabric exactly like a socket hop: the receiving
  /// side decodes them, and a reject is a counted drop (never an abort) —
  /// this is the path fault-injected corruption rides.
  bool send_raw(NodeIndex peer, std::span<const std::uint8_t> frame) override;
  void set_deliver(DeliverFn fn) override { deliver_ = std::move(fn); }
  /// No-op: deliveries ride the sim scheduler (run the simulator instead).
  void poll(int budget_ms) override { (void)budget_ms; }
  std::size_t peer_count() const override { return fabric_.endpoints_.size(); }

 private:
  /// One hop to `peer`: decode at the receiver, then deliver after the hop
  /// latency. `own_frame` marks bytes send() just encoded, which must
  /// decode and re-encode to themselves; other bytes may be rejected.
  bool carry(NodeIndex peer, std::span<const std::uint8_t> frame,
             bool own_frame);

  SimFabric& fabric_;
  NodeIndex self_;
  DeliverFn deliver_;
};

}  // namespace sdsi::net
