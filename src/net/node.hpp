// NetNode: one socket ring member, a facade over one core::MiddlewareNode
// (the node object the simulator runs), so the whole protocol, middle-node
// aggregation and its failover included, exists once for both hosts. It
// poses both of the paper's query types: similarity queries, routed by
// content, and inner-product queries, whose source node the h2 location
// service resolves. It owns what the node needs: a TransportRing over the
// transport and the failure detector's live ring view, a sim::Simulator
// that is both routing clock and timer wheel, the strategy, the mapper, a
// MetricsCollector (the node's event counters, not a routing hook) and the
// retry rng. It adds only heartbeats, the FailureDetector and the trust
// boundary in deliver(). Each call first advances the Simulator to the
// caller's `now`, firing the timers due by then.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/node.hpp"
#include "net/failure_detector.hpp"
#include "net/transport_ring.hpp"
#include "sim/simulator.hpp"

namespace sdsi::net {

/// The self-healing layers: acked publications and pushes, MBR and query
/// refresh, successor replication, anti-entropy, heartbeats and failure
/// detection. Off by default, as in the fault-free equivalence gate.
struct NetReliabilityConfig {
  bool enabled = false;
  FailureDetectorConfig detector;
  /// Re-multicast cadence of every live publication and local query.
  std::int64_t refresh_period_ms = 800;
};

/// Acks of publications and pushes: a resend every 250 ms, no backoff or
/// jitter, at most 10 resends.
inline constexpr core::RetryPolicy kAckPolicy{
    .enabled = true, .timeout = sim::Duration::millis(250),
    .max_backoff = sim::Duration::millis(250), .jitter = sim::Duration(),
    .max_attempts = 10};

/// Anti-entropy cadence, and the live successors mirroring each entry.
inline constexpr std::int64_t kAntiEntropyPeriodMs = 600;
inline constexpr std::size_t kReplication = 2;

struct NetNodeConfig {
  dsp::FeatureConfig features;
  core::StrategyKind strategy = core::StrategyKind::kDft;
  core::MbrBatcher::Options batching;
  sim::Duration mbr_lifespan = sim::Duration::seconds(3600);
  NetReliabilityConfig reliability;
  /// Process incarnation, bumped on every restart; rides in heartbeats.
  std::uint64_t epoch = 0;
};

class NetNode final : private core::NodeHost {
 public:
  struct Counters {
    std::uint64_t mbrs_published = 0;
    std::uint64_t queries_posed = 0;
    std::uint64_t mbrs_stored = 0;  // at the source and per fresh frame
    std::uint64_t send_failures = 0;  // transport had no route to the peer
    std::uint64_t shape_rejects = 0;  // frames trusted() dropped
    // Reliability layer (all zero unless enabled):
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t heartbeats_received = 0;
    std::uint64_t detours = 0;  // dead peers the ring walks stepped past
    std::uint64_t mbr_retransmits = 0;
    std::uint64_t refresh_rounds = 0;
    std::uint64_t mbr_refreshes = 0;
    std::uint64_t query_refreshes = 0;
    std::uint64_t response_retransmits = 0;
    std::uint64_t response_acks_received = 0;  // response_ack frames
    std::uint64_t replica_puts_sent = 0;
    std::uint64_t anti_entropy_rounds = 0;
  };

  /// The ring and transport must outlive the node; the caller wires
  /// transport.set_deliver to deliver(). Timers hold its address.
  NetNode(const NetRing& ring, NodeIndex self, Transport& transport,
          NetNodeConfig config);

  /// Feeds one sample of a local stream, registered on its first sample.
  void publish_value(StreamId stream, Sample value, sim::SimTime now);

  /// Poses a continuous similarity query; `id` must be unique ring-wide.
  void subscribe_similarity(core::QueryId id, dsp::FeatureVector features,
                            double radius, sim::Duration lifespan,
                            sim::SimTime now);

  /// Poses a continuous inner-product query (Sec IV-D) over `stream`, whose
  /// source the h2 location service resolves; `id` must be unique
  /// ring-wide. `index` and `weights` must match in length and fit the
  /// window, as MiddlewareSystem::subscribe_inner_product requires.
  void subscribe_inner_product(core::QueryId id, StreamId stream,
                               std::vector<double> index,
                               std::vector<double> weights,
                               sim::Duration lifespan, sim::SimTime now);

  /// The NPER pass (MiddlewareNode::periodic_tick).
  void tick(sim::SimTime now);

  /// Reliability drivers (no-ops unless enabled) for every poll loop pass,
  /// each on its own cadence of `now_ms`, the detector's wall clock:
  /// heartbeat_tick advances the detector and pings every peer, dead ones
  /// too; reliability_tick runs the MBR refresh and the anti-entropy
  /// digest. Ack retries and query refreshes run on the node's timers.
  void heartbeat_tick(std::int64_t now_ms, sim::SimTime now);
  void reliability_tick(std::int64_t now_ms, sim::SimTime now);
  /// Rejoin repair: asks the live successor for this node's arc.
  void request_handoff(sim::SimTime now);

  const FailureDetector& detector() const noexcept { return detector_; }

  /// Transport upcall: drops untrusted frames, feeds heartbeats to the
  /// detector and hands the rest to the routing layer and the node.
  void deliver(routing::Message&& msg, sim::SimTime now);

  /// Per locally-posed similarity query, the matched stream ids.
  const std::map<core::QueryId, std::set<StreamId>>& results() const noexcept {
    return results_;
  }
  /// Per locally-posed inner-product query, its latest answer (none until
  /// the source's first answer arrives).
  const std::map<core::QueryId, double>& inner_values() const noexcept {
    return inner_values_;
  }

  Counters counters() const noexcept;
  const core::IndexStore& store() const noexcept { return node_.store; }

 private:
  // core::NodeHost
  void on_publish(const core::MbrPayload& payload) override;
  void on_response(const core::ResponsePayload& response) override;

  bool reliable() const noexcept { return config_.reliability.enabled; }

  /// Whether `msg` could come from a well-behaved ring member: every node
  /// its payload names is in the ring (kInvalidNode only as a sentinel),
  /// summaries have this strategy's shape, inner products fit the window,
  /// and only publications and subscriptions claim a key range.
  bool trusted(const routing::Message& msg) const;

  NetNodeConfig config_;
  core::MiddlewareConfig middleware_;
  std::unique_ptr<core::IndexingStrategy> strategy_;
  core::MetricsCollector metrics_;
  common::Pcg32 rng_;
  FailureDetector detector_;  // idle unless config_.reliability.enabled
  sim::Simulator clock_;
  TransportRing routing_;
  core::MiddlewareNode node_;
  std::map<core::QueryId, std::set<StreamId>> results_;
  std::set<core::QueryId> inner_posed_;
  std::map<core::QueryId, double> inner_values_;
  Counters counters_;

  std::int64_t clock_ms_ = 0;  // last wall clock seen by a reliability tick
  std::int64_t last_heartbeat_ms_ = -1;
  std::uint64_t heartbeat_seq_ = 0;
  std::int64_t last_refresh_ms_ = 0;
  std::int64_t last_anti_entropy_ms_ = 0;
};

}  // namespace sdsi::net
