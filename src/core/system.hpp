// The distributed stream-indexing middleware (the paper's contribution).
//
// MiddlewareSystem wires one MiddlewareNode per data center on top of any
// RoutingSystem and exposes the application-view primitives of Figure 5:
//
//   update(summary, stream)      -> post_stream_value / register_stream
//   subscribe(pattern)           -> subscribe_similarity
//   subscribe(inner_product)     -> subscribe_inner_product
//   periodic push_similarity_info / push_inner_product_info  (automatic)
//
// Internally it implements Sec IV end to end: Eq. 6 content keys, MBR
// batching and range replication, similarity matching with no false
// dismissals, middle-node aggregation, the h2 location service, and the
// periodic notification machinery of Table I.
#pragma once

#include <any>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/hot_arc.hpp"
#include "core/mapper.hpp"
#include "core/metrics.hpp"
#include "core/node.hpp"
#include "core/resend.hpp"
#include "core/strategy.hpp"
#include "routing/api.hpp"

namespace sdsi::core {

/// Overload-control knobs (adversarial-skew extension). Three cooperating
/// mechanisms, each individually disableable:
///  - hot-arc splitting: the detector flags nodes running persistently hot
///    (by index work) and fans their arc out across `split_ways - 1` virtual
///    successor delegates via the replication machinery;
///  - load shedding: a bounded per-window ingest budget; overflow stores are
///    dropped as accounted fault::DropCause::kShedOverload (never silent);
///  - ingest backpressure: a per-source publish budget defers closed batches
///    into a bounded FIFO instead of flooding the ring; queue overflow drops
///    the oldest batch as accounted kBackpressure.
struct OverloadOptions {
  /// Hot-arc detector hysteresis (core/hot_arc.hpp).
  HotArcConfig detector;

  /// Detector window: per-node work counters are read + reset, transitions
  /// applied, and deferred publications drained at this period.
  sim::Duration window = sim::Duration::millis(2000);

  /// A hot node's arc is split this many ways: itself plus split_ways - 1
  /// successor-list delegates. 1 disables splitting (detect-only).
  std::size_t split_ways = 3;

  /// Max MBR stores a node accepts per detector window; past it, deliveries
  /// shed as kShedOverload. 0 = unbounded (shedding off).
  std::uint64_t ingest_capacity = 0;

  /// Deterministic forced shed fraction in [0, 1): every store attempt
  /// advances a per-node accumulator by this much and sheds on overflow.
  /// Drives the recall-vs-shed-rate degradation curve without any rng.
  double forced_shed_rate = 0.0;

  /// Max MBR publications per source per window before deferral; 0 =
  /// unbounded (backpressure off).
  std::uint64_t publish_budget = 0;

  /// Bound of the per-source deferral queue; overflow drops the oldest
  /// deferred batch as kBackpressure.
  std::size_t defer_capacity = 64;
};

struct MiddlewareConfig {
  /// Window/coefficient/normalization scheme (Sec III-C).
  dsp::FeatureConfig features;

  /// Indexing strategy: summary + content-to-key map (core/strategy.hpp).
  /// The default ("dft") is the paper's pipeline, byte-identical to the
  /// pre-strategy code; "ecm" and "lsh" are the PAPERS.md alternatives.
  StrategyOptions strategy;

  /// MBR batching (Sec IV-G / VI-A).
  MbrBatcher::Options batching;

  /// Range multicast flavor (Sec IV-C sequential vs Sec VI-B bidirectional).
  routing::MulticastStrategy multicast =
      routing::MulticastStrategy::kSequential;

  /// BSPAN: lifespan of a stored MBR.
  sim::Duration mbr_lifespan = sim::Duration::millis(5000);

  /// NPER: period of matching, report digests, and response pushes.
  sim::Duration notify_period = sim::Duration::millis(2000);

  /// Soft-state refresh of similarity subscriptions: the client re-routes
  /// each live query over its key range at this period, so nodes that
  /// joined (or recovered) inside the range pick the subscription up and
  /// lost query copies heal. Zero disables (the paper's one-shot install).
  sim::Duration query_refresh_period = sim::Duration();

  /// When set, every stream runs the Sec VI-A closed loop: its batcher is
  /// forced to adaptive mode and a per-stream AdaptivePrecisionController
  /// retunes the extent budget against the observed emission rate.
  std::optional<AdaptivePrecisionController::Options> adaptive_precision;

  // --- Self-healing data path (fault-tolerance extension) -----------------

  /// Acked MBR publication: the landing node of each range multicast
  /// confirms storage; unacked batches are retransmitted under this policy.
  RetryPolicy mbr_ack;

  /// Acked match-bearing response pushes: unacked pushes are retransmitted
  /// verbatim on later ticks under this policy (timeout + max_attempts; the
  /// notify period is the effective backoff base).
  RetryPolicy response_ack;

  /// Soft-state refresh of published MBRs: each source re-routes its live
  /// unexpired batches (and re-registers its streams with the location
  /// service) at this period, healing state lost to drops or node crashes —
  /// the MBR-side mirror of query_refresh_period. Zero disables.
  sim::Duration mbr_refresh_period = sim::Duration();

  /// Seed of the middleware's own randomness (retry jitter); fixed default
  /// keeps runs reproducible.
  std::uint64_t rng_seed = 0x5d51c0de;

  // --- Replication & failover (churn-tolerance extension) -----------------

  /// Successor-list replication degree r: every stored MBR batch, similarity
  /// subscription, and partial aggregation is mirrored to the key owner's r
  /// next live successors, so a crash promotes a replica instead of waiting
  /// for the soft-state refresh period. Zero disables the whole layer.
  std::size_t replication_factor = 0;

  /// Anti-entropy period: each node periodically sends a compact
  /// (stream, batch_seq) / query-id digest of its owned arc to its replica
  /// set; peers backfill gaps in both directions (idempotent via store
  /// dedup). Zero disables. Only active when replication_factor > 0.
  sim::Duration anti_entropy_period = sim::Duration();

  // --- Overload control (adversarial-skew extension) ----------------------

  /// Hot-arc splitting, load shedding, and ingest backpressure; nullopt
  /// (the default) disables the whole layer with zero overhead and leaves
  /// every existing run byte-identical.
  std::optional<OverloadOptions> overload;
};

/// What a client has observed for one of its continuous queries.
struct ClientQueryRecord {
  QueryId id = 0;
  NodeIndex client = kInvalidNode;
  bool inner_product = false;
  sim::SimTime issued_at;
  sim::SimTime expires;
  std::uint64_t responses_received = 0;
  /// Distinct matched streams reported across all responses (content-level
  /// dedup: a retransmitted or doubly-aggregated match never counts twice,
  /// so self-healing cannot inflate this).
  std::uint64_t match_events = 0;
  /// Match entries suppressed because their stream was already counted.
  std::uint64_t duplicate_match_events = 0;
  std::unordered_set<StreamId> matched_streams;
  double last_inner_value = 0.0;
  std::uint64_t inner_updates = 0;
  std::optional<sim::SimTime> first_response_at;
};

class MiddlewareSystem {
 public:
  /// Creates one middleware node per routing node and registers the deliver
  /// upcall and metrics hook on `routing`.
  MiddlewareSystem(routing::RoutingSystem& routing, MiddlewareConfig config);

  const MiddlewareConfig& config() const noexcept { return config_; }
  const SummaryMapper& mapper() const noexcept { return mapper_; }
  const IndexingStrategy& strategy() const noexcept { return *strategy_; }
  MetricsCollector& metrics() noexcept { return metrics_; }
  const MetricsCollector& metrics() const noexcept { return metrics_; }
  routing::RoutingSystem& routing() noexcept { return routing_; }

  /// Starts the periodic per-node machinery (expiry, matching, digests,
  /// response pushes). Node ticks are staggered across one period so the
  /// event load spreads out as it would with unsynchronized clocks.
  void start();

  // --- Application-view primitives (Fig 5) --------------------------------

  /// Declares `stream` to originate at `node` and registers it with the h2
  /// location service.
  void register_stream(NodeIndex node, StreamId stream);

  /// Retires a stream: flushes and routes the final partial MBR, drops the
  /// local state, and tombstones the h2 directory entry so future location
  /// lookups report the stream unknown.
  void unregister_stream(NodeIndex node, StreamId stream);

  /// Feeds one new data value of `stream` into its source node. Emits and
  /// routes an MBR whenever the batcher closes one.
  void post_stream_value(NodeIndex node, StreamId stream, Sample value);

  /// Poses a continuous similarity query (Sec IV-E). Returns its id.
  QueryId subscribe_similarity(NodeIndex client, dsp::FeatureVector features,
                               double radius, sim::Duration lifespan);

  /// Convenience: extracts features from a raw query sequence first.
  QueryId subscribe_similarity_window(NodeIndex client,
                                      std::span<const Sample> window,
                                      double radius, sim::Duration lifespan);

  /// Poses a continuous inner-product query (Sec IV-D). Returns its id.
  QueryId subscribe_inner_product(NodeIndex client, StreamId stream,
                                  std::vector<double> index,
                                  std::vector<double> weights,
                                  sim::Duration lifespan);

  /// Point query: the stream's most recent value ("simple point and range
  /// queries can be expressed as inner product queries").
  QueryId subscribe_latest_value(NodeIndex client, StreamId stream,
                                 sim::Duration lifespan) {
    return subscribe_inner_product(client, stream, {1.0}, {1.0}, lifespan);
  }

  /// Moving average of the last `n` values (the paper's "average closing
  /// price over the last month" / "weighted average of the last 20 body
  /// temperature measurements" examples).
  QueryId subscribe_moving_average(NodeIndex client, StreamId stream,
                                   std::size_t n, sim::Duration lifespan) {
    SDSI_CHECK(n >= 1);
    return subscribe_inner_product(
        client, stream, std::vector<double>(n, 1.0),
        std::vector<double>(n, 1.0 / static_cast<double>(n)), lifespan);
  }

  // --- Observability -------------------------------------------------------

  /// Attaches middleware state (and the periodic tick, once started) to a
  /// data center that joined the ring after construction. Idempotent; the
  /// paper's "seamless addition of new data centers".
  void attach_node(NodeIndex index);

  /// Ownership handoff for a node that just (re)joined the ring: asks its
  /// successor for every entry whose key range intersects the arc the node
  /// now owns. No-op when replication is disabled. Call after the routing
  /// substrate has integrated the node (join/recover).
  void handle_node_join(NodeIndex index);

  /// Models the state loss of a crash: wipes everything the node held as
  /// soft state (stored MBRs and subscriptions, aggregations, buffered
  /// reports, location directory/cache, pending resolutions, publication
  /// records). Local streams survive — a restarted data center still owns
  /// its data sources (warm restart) and re-registers them on the next
  /// refresh. Call when a crashed node recovers into the ring.
  void reset_node_soft_state(NodeIndex index);

  const MiddlewareNode& node(NodeIndex index) const {
    SDSI_CHECK(index < nodes_.size());
    return nodes_[index];
  }
  MiddlewareNode& node_mutable(NodeIndex index) {
    SDSI_CHECK(index < nodes_.size());
    return nodes_[index];
  }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }

  const ClientQueryRecord* client_record(QueryId id) const;
  const std::unordered_map<QueryId, ClientQueryRecord>& client_records()
      const noexcept {
    return client_records_;
  }

  /// Total MBRs routed since construction.
  std::uint64_t mbrs_routed() const noexcept { return mbrs_routed_; }

  // --- Overload control ----------------------------------------------------

  /// Whether the overload-control layer is configured.
  bool overload_on() const noexcept { return config_.overload.has_value(); }

  /// Source-side backpressure level in [0, 1]: how full the node's deferral
  /// queue is. Generators consult this to stretch their emission gaps
  /// (slow down) instead of having the middleware drop their batches.
  double ingest_backpressure(NodeIndex node) const;

  /// The hot-arc detector; meaningful only when overload_on().
  const HotArcDetector& hot_arc_detector() const noexcept { return hot_arc_; }

  // --- Observation hooks (recall-oracle feeding) --------------------------

  /// Called synchronously whenever a source closes and routes an MBR batch
  /// (first publication only — not retries or refreshes).
  using MbrPublishHook = std::function<void(const MbrPayload&)>;
  /// Called synchronously whenever a similarity query is posed.
  using QueryPoseHook =
      std::function<void(std::shared_ptr<const SimilarityQuery>)>;
  void set_publish_hook(MbrPublishHook hook) {
    publish_hook_ = std::move(hook);
  }
  void set_query_hook(QueryPoseHook hook) { query_hook_ = std::move(hook); }

 private:
  using Message = routing::Message;

  // --- The port: every message the middleware originates ------------------
  //
  // Each message shape is built in one of these three places (the overload
  // layer's synthetic drop envelope aside).

  /// Routes `payload` through the overlay to the node covering `key`.
  void send_to_key(NodeIndex from, Key key, MsgKind kind, std::any payload,
                   bool reroute_on_dead = false);

  /// Sends `payload` straight to node `to`; with `reroute_on_dead` a dead
  /// `to` detours to its successor list.
  void send_to_node(NodeIndex from, NodeIndex to, MsgKind kind,
                    std::any payload, bool reroute_on_dead);

  /// Range-multicasts `payload` over [lo, hi] with the configured multicast
  /// flavor (trace_id 0 lets routing mint one). With replication on, a
  /// landing copy whose terminal hop died in flight detours to the
  /// successor-list replica, which stores and acks, cutting the retry tail
  /// short.
  void send_to_range(NodeIndex from, Key lo, Key hi, MsgKind kind,
                     std::any payload, std::uint64_t trace_id = 0);

  void on_deliver(NodeIndex at, const Message& msg);
  void handle_mbr(NodeIndex at, const Message& msg);
  void handle_similarity_query(NodeIndex at, const Message& msg);
  void handle_inner_query(NodeIndex at, const Message& msg);
  void handle_response(NodeIndex at, const Message& msg);
  void handle_mbr_ack(NodeIndex at, const Message& msg);
  void handle_response_ack(NodeIndex at, const Message& msg);
  void handle_neighbor_digest(NodeIndex at, const Message& msg);
  void handle_location_put(NodeIndex at, const Message& msg);
  void handle_location_get(NodeIndex at, const Message& msg);
  void handle_location_reply(NodeIndex at, const Message& msg);
  void handle_replica_put(NodeIndex at, const Message& msg);
  void handle_handoff_request(NodeIndex at, const Message& msg);
  void handle_anti_entropy_digest(NodeIndex at, const Message& msg);
  void handle_anti_entropy_request(NodeIndex at, const Message& msg);
  void handle_aggregator_replica(NodeIndex at, const Message& msg);

  /// The NPER periodic body for one node: the match pass, then
  /// aggregator-replica promotion, publication pruning, filing the fresh
  /// matches, report digests to the middle keys, response pushes and
  /// inner-product answers.
  void periodic_tick(NodeIndex index);

  /// The designated-reporter rule, the match pass's report filter: `at`
  /// reports a (batch, subscription) candidate only when it covers the
  /// candidate's nearest_overlap_key (or is a split delegate of the hot
  /// node that does), or when no batch range meets a query range (never a
  /// dismissal).
  bool designated_reporter(NodeIndex at, const IndexStore::StoredMbr& entry,
                           const IndexStore::Subscription& sub);

  /// Sends the node's buffered reports toward their aggregators: one
  /// digest per middle key, routed through the overlay to the node that
  /// covers the key. Reports of lapsed queries are dropped.
  void send_report_digests(NodeIndex index, sim::SimTime now);

  /// nodes_[index], growing the table for late joiners.
  MiddlewareNode& state_of(NodeIndex index);

  /// Starts the node's NPER tick, MBR refresh and anti-entropy digests (the
  /// last two when configured), each `slot` / `slots` of its period late.
  void schedule_node(NodeIndex index, std::int64_t slot, std::int64_t slots);

  /// Routes the MBR just closed for (node, stream): the backpressure gate
  /// (defer when the source's publish budget is spent) in front of
  /// publish_mbr.
  void route_mbr(NodeIndex source, LocalStream& stream, dsp::Mbr mbr);

  /// The actual publication body: assigns the batch_seq, stores locally,
  /// range-multicasts, and arms acks/refresh tracking.
  void publish_mbr(NodeIndex source, LocalStream& stream, dsp::Mbr mbr);

  /// Files a detected match either into the local aggregator (if this node
  /// covers the middle key) or into the outgoing digest buffer.
  void file_match_report(NodeIndex at, MatchReport report);

  /// Whether `node` covers `key` (key in (pred, node]).
  bool covers_key(NodeIndex node, Key key) const;

  /// Sends the inner-product query to its (resolved) source node.
  void dispatch_inner_query(NodeIndex client,
                            std::shared_ptr<const InnerProductQuery> query,
                            NodeIndex source);

  /// Re-asks the location service about a stream whose first resolution
  /// came back unknown (registration racing through the overlay).
  void retry_location_get(NodeIndex client, StreamId stream);

  /// Sends `client`'s inner-product queries waiting on `stream` to its
  /// resolved `source` and ends the stream's location retries.
  void drain_inner_queries(NodeIndex client, StreamId stream,
                           NodeIndex source);

  /// Records the ack of (stream, batch_seq) at `source`, and the heal latency
  /// when it is the first ack of a retransmitted publication.
  void note_mbr_ack(NodeIndex source, StreamId stream, std::uint64_t seq);

  /// (Re)arms the ack timeout of a tracked publication.
  void arm_mbr_retry(NodeIndex source, PublicationLedger::Publication& pub);
  void on_mbr_ack_timeout(NodeIndex source, StreamId stream,
                          std::uint64_t seq);

  /// Emits a self-healing (retry/heal/refresh) or replication (replicate/
  /// handoff/repair/failover) trace event when a trace sink is attached.
  /// Self-healing events pass their publication's trace id.
  void emit_trace(obs::TraceEventKind event, NodeIndex node, StreamId stream,
                  std::uint64_t seq, std::uint64_t trace_id = 0);

  /// Soft-state refresh body for one node: re-route every live published
  /// batch and re-register local streams with the location service.
  void refresh_node_mbrs(NodeIndex index);

  // --- Replication & failover helpers -------------------------------------

  /// Whether the replication layer is on.
  bool replication_on() const noexcept {
    return config_.replication_factor > 0;
  }

  /// Mirrors one just-stored MBR batch to `at`'s replica set. Called by the
  /// key-range owner only (the node covering the range's hi end), so each
  /// batch is mirrored once per publication.
  void mirror_mbr(NodeIndex at, const IndexStore::StoredMbr& entry);

  /// Mirrors one just-installed subscription to `at`'s replica set.
  void mirror_subscription(NodeIndex at, const IndexStore::Subscription& sub);

  /// The shared body of the two mirrors: sends `put` to `at`'s replica set
  /// and traces it under (trace_stream, trace_seq).
  void mirror_put(NodeIndex at, ReplicaPutPayload put, StreamId trace_stream,
                  std::uint64_t trace_seq);

  /// Mirrors one freshly filed match of a locally aggregated query to the
  /// middle key's replica set (incremental AggregatorRecord replication).
  void mirror_aggregation(NodeIndex at, QueryId query,
                          const AggregatorRecord& record, Key middle_key,
                          const SimilarityMatch& match);

  /// Promotes expired-owner mirrors: any AggregationReplica whose middle key
  /// now falls on this node's arc becomes a live AggregatorRecord. Runs at
  /// the head of each periodic tick.
  void promote_aggregation_replicas(NodeIndex index, sim::SimTime now);

  /// Anti-entropy body for one node: digest of its owned arc to its replica
  /// set.
  void anti_entropy_tick(NodeIndex index);

  /// Sends a non-empty anti-entropy repair or handoff answer to `peer`.
  /// Returns the number of entries sent.
  std::size_t send_repair(NodeIndex from, NodeIndex peer,
                          ReplicaPutPayload put, bool handoff);

  // --- Overload-control helpers --------------------------------------------

  /// Credits `units` of index work to `node`: feeds both the per-window
  /// hot-arc counters and the exported per-node work totals. Serial-path
  /// call sites only (determinism).
  void note_node_work(NodeIndex node, std::uint64_t units);

  /// The store body shared by handle_mbr's split and non-split paths:
  /// add_mbr with duplicate accounting, work credit, and the replica-set
  /// mirror when this node owns the range's hi end. Returns whether the
  /// entry was freshly stored.
  bool store_mbr_with_work(NodeIndex at, const Message& msg,
                           const MbrPayload& payload, sim::SimTime now);

  /// The load-shedding gate for one delivered MBR store attempt at `at`.
  /// Returns true when the store must be skipped; the drop is then already
  /// accounted (kShedOverload via the routing drop path + shed_mbrs).
  bool shed_ingest(NodeIndex at, const Message& msg);

  /// Where a hot node's store lands within its split group: itself
  /// (kInvalidNode = keep local) or one of its delegates, chosen by a
  /// deterministic hash of (stream, batch_seq).
  NodeIndex divert_target(const MiddlewareNode& state, StreamId stream,
                          std::uint64_t batch_seq) const;

  /// Forwards one store entry to a split delegate via kReplicaPut
  /// (idempotent at the receiver).
  void divert_store(NodeIndex at, NodeIndex target,
                    const IndexStore::StoredMbr& entry);

  /// Mirrors every live subscription of `node` to its split delegates so
  /// diverted MBRs still meet the subscriptions they must match.
  void mirror_subscriptions_to_delegates(NodeIndex node);

  /// Forwards one freshly installed subscription to `node`'s delegates
  /// (keeps the split group matching while hot).
  void forward_subscription_to_delegates(
      NodeIndex node, const IndexStore::Subscription& sub);

  /// Source-side deferral: queues the closed batch; on queue overflow the
  /// oldest deferred batch is dropped as accounted kBackpressure.
  void defer_publication(NodeIndex source, StreamId stream, dsp::Mbr mbr);

  /// The global detector window: harvests + resets per-node work counters,
  /// applies split/merge transitions, and drains deferral queues into the
  /// fresh publish budgets. Runs serially off the simulator.
  void overload_tick();

  /// Accounts one backpressure drop through the routing drop path so it
  /// lands in drops_by_cause, the registry series, and the trace stream
  /// like every other loss, and counts it in backpressure_drops.
  void account_overload_drop(NodeIndex origin);

  routing::RoutingSystem& routing_;
  MiddlewareConfig config_;
  SummaryMapper mapper_;
  /// The pluggable summary/key-map pair; never null (defaults to "dft").
  std::unique_ptr<IndexingStrategy> strategy_;
  /// Scratch for multi-range strategies' probe sets.
  std::vector<std::pair<Key, Key>> range_scratch_;
  /// Scratch probe sets of the designated-reporter rule.
  std::vector<std::pair<Key, Key>> batch_ranges_;
  std::vector<std::pair<Key, Key>> query_ranges_;
  MetricsCollector metrics_;
  std::vector<MiddlewareNode> nodes_;
  std::unordered_map<QueryId, ClientQueryRecord> client_records_;
  QueryId next_query_id_ = 1;
  std::uint64_t mbrs_routed_ = 0;
  bool started_ = false;
  common::Pcg32 rng_;  // retry jitter (seeded from config; reproducible)
  MbrPublishHook publish_hook_;
  QueryPoseHook query_hook_;
  HotArcDetector hot_arc_;  // overload layer; empty unless config.overload
};

}  // namespace sdsi::core
