// NetNode: the paper's data-center pipeline bound to a pluggable Transport —
// the process that actually "breaks out of the simulator".
//
// One NetNode is one ring member: it summarizes its local streams
// (StreamSummarizer -> MbrBatcher), sends closed MBRs and similarity
// subscriptions over the content ring (Eq. 6 ranges, sequential range
// multicast), stores and matches what lands on it (IndexStore), and reports
// matches. It routes through its TransportRing, a routing::RoutingSystem
// over the transport and the failure detector's live ring view, so the
// Sec IV-C walk, the detour past dead peers and the successor lookups are
// the ones every simulated substrate runs; its handlers are that routing
// layer's deliver upcall. Replica repair (handoff, anti-entropy digests,
// backfill) runs the store-side functions the sim middleware shares
// (core/arc_sync.hpp), as does its ack/retransmit/refresh bookkeeping
// (core/resend.hpp).
//
// Scope (documented divergence from the sim middleware, see
// docs/ARCHITECTURE.md "Transport layer"): a detecting node responds to the
// query's client DIRECTLY instead of aggregating reports at the range's
// middle node first, and there are no inner-product queries and no overload
// control. The client-visible matched (stream, query) sets are invariant to
// the report route on a fault-free run — the per-node IndexStore dedup plus
// the client-side stream-set dedup make it invisible — which is exactly the
// property the sim-vs-socket equivalence test pins.
//
// Clocking: callers pass `now` (the sim clock under SimTransport, a
// wall-clock-derived SimTime in sdsi_node), and each call advances the
// node's sim::Simulator to it; that Simulator is the routing layer's clock
// and schedules nothing. Lifespans only need to be long relative to the run
// for equivalence to hold.
#pragma once

#include <any>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/batcher.hpp"
#include "core/index_store.hpp"
#include "core/mapper.hpp"
#include "core/node.hpp"
#include "core/query.hpp"
#include "core/resend.hpp"
#include "core/strategy.hpp"
#include "net/failure_detector.hpp"
#include "net/ring.hpp"
#include "net/transport.hpp"
#include "net/transport_ring.hpp"
#include "sim/simulator.hpp"

namespace sdsi::net {

/// The self-healing layers over a real transport. Off by default: the plain
/// pipeline stays byte-identical for the fault-free equivalence gate. When
/// enabled, the node runs the full soft-state reliability stack the sim
/// middleware has had all along — heartbeats + failure detection, acked
/// publications with retransmit, periodic refresh, successor replication,
/// anti-entropy digests, and rejoin handoff — so a lossy socket ring
/// converges back to the fault-free matched set.
struct NetReliabilityConfig {
  bool enabled = false;
  FailureDetectorConfig detector;
  /// Full soft-state refresh cadence: every tracked publication and every
  /// locally-posed query is re-multicast (receiver dedup keeps it
  /// idempotent), healing range replicas an ack cannot vouch for.
  std::int64_t refresh_period_ms = 800;
};

/// Ack timing of publications and response pushes on the wall clock: a
/// resend every 250 ms, at most 10 resends. NetNode resends by polling the
/// ledgers, and polled resends read only `timeout` and `max_attempts`: they
/// never back off or jitter, whatever the rest of the policy holds.
inline constexpr core::RetryPolicy kAckPolicy{
    .timeout = sim::Duration::millis(250), .max_attempts = 10};

/// Cadence of the anti-entropy digests to the live ring neighbors.
inline constexpr std::int64_t kAntiEntropyPeriodMs = 600;

/// Live successors that mirror each entry landed on a node.
inline constexpr std::size_t kReplication = 2;

struct NetNodeConfig {
  dsp::FeatureConfig features;
  /// Summary/index/routing-key strategy (core/strategy.hpp); the default
  /// dft keeps the socket path digest-identical to pre-strategy builds.
  core::StrategyOptions strategy;
  core::MbrBatcher::Options batching;
  sim::Duration mbr_lifespan = sim::Duration::seconds(3600);
  NetReliabilityConfig reliability;
  /// Process incarnation, bumped on every restart (rides in heartbeats so
  /// peers detect the rejoin and push repair state).
  std::uint64_t epoch = 0;
};

class NetNode {
 public:
  struct Counters {
    std::uint64_t mbrs_published = 0;
    std::uint64_t queries_posed = 0;
    std::uint64_t mbrs_stored = 0;
    std::uint64_t subscriptions_stored = 0;
    std::uint64_t responses_sent = 0;
    std::uint64_t send_failures = 0;  // transport had no route to the peer
    /// Frames dropped unread because a summary in them has another shape
    /// than this ring's strategy produces (core::IndexingStrategy::
    /// coefficients()): matching it would read past the MBR. A frame of
    /// any kind but mbr_update and similarity_query that claims a key range
    /// is dropped here too, so that it cannot start a range walk.
    std::uint64_t shape_rejects = 0;
    // Reliability layer (all zero unless config.reliability.enabled):
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t heartbeats_received = 0;
    std::uint64_t detours = 0;  // dead peers the ring walks stepped past
    std::uint64_t mbr_acks_sent = 0;
    std::uint64_t mbr_acks_received = 0;
    std::uint64_t mbr_retransmits = 0;
    std::uint64_t refresh_rounds = 0;
    std::uint64_t mbr_refreshes = 0;
    std::uint64_t query_refreshes = 0;
    std::uint64_t response_retransmits = 0;
    std::uint64_t response_acks_sent = 0;
    std::uint64_t response_acks_received = 0;
    std::uint64_t replica_puts_sent = 0;
    std::uint64_t replica_entries_stored = 0;  // new to the store only
    std::uint64_t anti_entropy_rounds = 0;
    std::uint64_t anti_entropy_requests = 0;
    std::uint64_t repair_entries_sent = 0;
    std::uint64_t handoff_requests_sent = 0;
    std::uint64_t handoff_entries_sent = 0;
  };

  /// The ring and transport must outlive the node. The caller wires
  /// transport.set_deliver to deliver() (the node needs `now` per delivery,
  /// which the Transport interface does not carry). Not movable: the routing
  /// layer's upcall holds `this`.
  NetNode(const NetRing& ring, NodeIndex self, Transport& transport,
          NetNodeConfig config);

  NodeIndex self() const noexcept { return self_; }

  /// Feeds one raw sample of a locally sourced stream; a closed MBR batch
  /// is stored locally and range-multicast over the ring (the sim's
  /// post_stream_value step, core::summarize_value).
  void publish_value(StreamId stream, Sample value, sim::SimTime now);

  /// Poses a continuous similarity query from this node. `id` must be
  /// globally unique (the equivalence driver assigns the same ids the sim
  /// middleware would).
  void subscribe_similarity(core::QueryId id, dsp::FeatureVector features,
                            double radius, sim::Duration lifespan,
                            sim::SimTime now);

  /// Periodic driver (the paper's NPER tick): runs one match pass and
  /// pushes fresh matches to their clients.
  void tick(sim::SimTime now);

  /// Reliability drivers (no-ops unless config.reliability.enabled).
  /// `now_ms` is the node's monotone wall clock (the failure detector's
  /// time base); `now` is the logical clock the store runs on. Call both
  /// ticks frequently (every poll loop iteration) — each applies its own
  /// cadence internally.
  ///
  /// heartbeat_tick: advances the detector and emits the periodic
  /// heartbeat fan-out (every peer, dead ones included — that is how a
  /// restart is noticed).
  void heartbeat_tick(std::int64_t now_ms, sim::SimTime now);
  /// reliability_tick: forgets lapsed publications and queries, retransmits
  /// unacked publications and response pushes under kAckPolicy, runs the
  /// periodic soft-state refresh, and exchanges anti-entropy digests with
  /// the ring neighbors (plus any peer whose rejoin was just observed).
  void reliability_tick(std::int64_t now_ms, sim::SimTime now);
  /// Rejoin repair: asks both live ring neighbors for every stored entry
  /// whose key range intersects this node's owned arc. sdsi_node calls it
  /// once at startup when epoch > 0.
  void request_handoff(sim::SimTime now);

  const FailureDetector& detector() const noexcept { return detector_; }

  /// Transport upcall: one decoded frame addressed to this node. Frames
  /// that fail the shape check are dropped here; the rest enter the routing
  /// layer, which runs the handlers and forwards the range walk.
  void deliver(routing::Message&& msg, sim::SimTime now);

  /// Client-side results: per locally-posed query, the set of matched
  /// stream ids (the equivalence test's comparison object).
  const std::map<core::QueryId, std::set<StreamId>>& results() const noexcept {
    return results_;
  }

  Counters counters() const noexcept;
  const core::IndexStore& store() const noexcept { return store_; }

 private:
  /// One locally-posed query, kept for the periodic re-subscription sweep.
  struct OwnQuery {
    std::shared_ptr<const core::SimilarityQueryPayload> payload;
    Key lo = 0;
    Key hi = 0;
  };

  bool reliable() const noexcept { return config_.reliability.enabled; }
  /// The ack ledgers' time base: the wall clock of the last tick.
  sim::SimTime retry_clock() const noexcept {
    return sim::SimTime::from_micros(clock_ms_ * 1000);
  }

  /// Whether every summary `msg` carries (MBRs, query features) has the
  /// shape of this node's strategy, and only those two kinds claim a key
  /// range. The codec cannot check it: it does not know the ring's strategy.
  bool well_shaped(const routing::Message& msg) const;
  /// The routing layer's deliver upcall: dispatches one message by kind.
  void handle(const routing::Message& msg);
  void publish_mbr(core::LocalStream& local, dsp::Mbr mbr);
  void handle_mbr(const routing::Message& msg);
  void handle_similarity_query(const routing::Message& msg);
  void handle_response(const routing::Message& msg);
  void handle_heartbeat(const routing::Message& msg);
  void handle_mbr_ack(const routing::Message& msg);
  void handle_response_ack(const routing::Message& msg);
  void handle_replica_put(const routing::Message& msg);
  void handle_handoff_request(const routing::Message& msg);
  void handle_anti_entropy_digest(const routing::Message& msg);
  void handle_anti_entropy_request(const routing::Message& msg);

  /// Sequential range multicast of one payload over [lo, hi]: publish,
  /// subscribe, probe ranges, retransmit and refresh all send through here
  /// (receiver-side dedup keeps every resend idempotent).
  void send_range(routing::MsgKind kind, std::any payload, Key lo, Key hi);
  /// Point-to-point frame to a specific ring member (no range machinery).
  void send_direct(NodeIndex peer, routing::MsgKind kind, std::any payload);
  /// Mirrors `put` to the live successor set, skipping `holder`, which
  /// keeps its own copy.
  void mirror(core::ReplicaPutPayload put, NodeIndex holder);
  /// Sends a repair put (digest push-back or backfill) to `peer` unless it
  /// is empty.
  void send_repair(NodeIndex peer, core::ReplicaPutPayload put);
  /// Sends an anti-entropy digest of this store's entries that intersect
  /// `peer`'s owned arc.
  void send_digest_to(NodeIndex peer);

  NodeIndex self_;
  NetNodeConfig config_;
  std::unique_ptr<core::IndexingStrategy> strategy_;
  /// Scratch for multi-range probe sets (single-threaded message loop).
  std::vector<std::pair<Key, Key>> range_scratch_;
  core::IndexStore store_;
  std::unordered_map<StreamId, core::LocalStream> streams_;
  std::map<core::QueryId, std::set<StreamId>> results_;
  Counters counters_;
  FailureDetector detector_;  // idle unless config_.reliability.enabled
  sim::Simulator clock_;      // the routing layer's clock; schedules nothing
  TransportRing routing_;

  // Reliability state (idle unless config_.reliability.enabled).
  std::int64_t clock_ms_ = 0;  // last wall clock seen by a reliability tick
  std::int64_t last_heartbeat_ms_ = -1;
  std::uint64_t heartbeat_seq_ = 0;
  std::int64_t last_refresh_ms_ = 0;
  std::int64_t last_anti_entropy_ms_ = 0;
  core::PublicationLedger published_;
  core::PushLedger unacked_responses_;
  std::vector<OwnQuery> own_queries_;
  std::set<NodeIndex> pending_repair_;  // rejoined peers owed a digest
};

}  // namespace sdsi::net
