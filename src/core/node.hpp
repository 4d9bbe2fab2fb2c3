// One data center's middleware: its state and its part of the paper's
// protocol (Sec IV publication, subscription, matching, middle-node
// aggregation and the h2 location service), with the self-healing,
// replication and overload layers on top. A node reaches the overlay, the
// clock and its timers only through routing::RoutingSystem, records events
// through MetricsCollector, and asks its host (NodeHost) for the rest. The
// simulator's host runs one node per data center and documents the Fig 5
// entry points.
#pragma once

#include <any>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/dense_map.hpp"
#include "common/rng.hpp"
#include "core/batcher.hpp"
#include "core/index_store.hpp"
#include "core/metrics.hpp"
#include "core/precision.hpp"
#include "core/query.hpp"
#include "core/resend.hpp"
#include "core/strategy.hpp"
#include "routing/api.hpp"

namespace sdsi::core {

/// Overload-control knobs (adversarial-skew extension). Two mechanisms,
/// each individually disableable, run on each node's own counters and
/// window timer:
///  - load shedding: a bounded per-window ingest budget; overflow stores are
///    dropped as accounted fault::DropCause::kShedOverload (never silent);
///  - ingest backpressure: a per-source publish budget defers closed batches
///    into a bounded FIFO instead of flooding the ring; queue overflow drops
///    the oldest batch as accounted kBackpressure.
struct OverloadOptions {
  /// Each node's overload window: its ingest and publish budgets refill,
  /// and its deferred publications drain, at this period.
  sim::Duration window = sim::Duration::millis(2000);

  /// Max MBR stores a node accepts per window; past it, deliveries shed as
  /// kShedOverload. 0 = unbounded (shedding off).
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
  StrategyKind strategy = StrategyKind::kDft;

  /// MBR batching (Sec IV-G / VI-A).
  MbrBatcher::Options batching;

  /// Range multicast flavor (Sec IV-C sequential vs Sec VI-B bidirectional).
  routing::MulticastStrategy multicast =
      routing::MulticastStrategy::kSequential;

  /// BSPAN: lifespan of a stored MBR.
  sim::Duration mbr_lifespan = sim::Duration::millis(5000);

  /// NPER: period of matching and report digests. A middle node pushes new
  /// matches when a digest or its own pass files them.
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

  /// Acked match-bearing response pushes: each unacked push is retransmitted
  /// verbatim by its own timer every `timeout`, at most `max_attempts` times
  /// (no backoff or jitter).
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

  /// Load shedding and ingest backpressure; nullopt (the default) disables
  /// the whole layer with zero overhead and leaves every existing run
  /// byte-identical.
  std::optional<OverloadOptions> overload;
};

/// One inner-product subscription installed at a stream's source node.
struct InnerProductSubscription {
  std::shared_ptr<const InnerProductQuery> query;
  sim::SimTime expires;
};

/// A stream this node is the source of ("each node is a source of exactly
/// one stream" in the experiments; the API supports several).
struct LocalStream {
  StreamId id = 0;
  /// Strategy-made summary (core/strategy.hpp); never null.
  std::unique_ptr<streams::Summarizer> summarizer;
  /// Per-stream Sec VI-A closed loop, when the middleware enables it.
  std::optional<AdaptivePrecisionController> precision;
  /// Fixed-count batching, or adaptive under `precision`'s extent budget.
  MbrBatcher batcher;
  std::uint64_t batch_seq = 0;
  std::vector<InnerProductSubscription> inner_subscriptions;
  /// Per-tick feature scratch: overwritten in place on every ingested
  /// sample so the steady-state ingest path allocates nothing.
  dsp::FeatureVector features_scratch;

  /// With `adaptive_precision` the stream runs the Sec VI-A closed loop:
  /// the batcher switches to adaptive mode and starts from the controller's
  /// initial extent budget.
  LocalStream(StreamId stream, const IndexingStrategy& strategy,
              MbrBatcher::Options batching,
              const std::optional<AdaptivePrecisionController::Options>&
                  adaptive_precision = std::nullopt);
};

/// The routing-free part of ingesting one value (summarizer, features,
/// batcher, adaptive precision); closed MBRs are appended to `closed` for
/// the caller to route. Every ingest path of both hosts runs it.
void summarize_value(LocalStream& local, Sample value,
                     std::vector<dsp::Mbr>& closed);

/// Aggregation state for one similarity query whose range middle key this
/// node covers (Sec IV-F: range nodes report candidates to the middle node,
/// which pushes the new ones to the client as they arrive).
struct AggregatorRecord {
  NodeIndex client = kInvalidNode;
  Key middle_key = 0;  // the range midpoint this aggregation is keyed on
  sim::SimTime expires;
  std::vector<SimilarityMatch> pending;  // to include in the next push
  DenseSet<StreamId> seen;               // cross-node deduplication
  /// Match-bearing pushes awaiting their client ack (self-healing response
  /// path), kept so a lost push can be retransmitted verbatim.
  PushLedger inflight;
};

/// Passive mirror of one query's partial aggregation (replication layer):
/// this node is in the middle key's replica set; if the aggregator dies the
/// node promotes the mirror into a live AggregatorRecord and re-pushes every
/// mirrored match (client-side distinct-stream dedup keeps counts exact).
struct AggregationReplica {
  NodeIndex client = kInvalidNode;
  Key middle_key = 0;
  sim::SimTime expires;
  DenseSet<StreamId> seen;               // streams mirrored so far
  std::vector<SimilarityMatch> matches;  // everything mirrored, in order
  sim::SimTime last_update;              // failover dark-time measurement
};

/// One MBR publication the source deferred under ingest backpressure: the
/// batch closed but the per-window publish budget was spent, so it waits in
/// the node's deferral queue until the next overload window drains it (its
/// batch_seq is assigned at actual publication, keeping seqs FIFO).
struct DeferredPublication {
  StreamId stream = 0;
  dsp::Mbr mbr;
};

/// What a node asks of the process hosting it.
class NodeHost {
 public:
  virtual ~NodeHost() = default;

  /// A source closed and published an MBR batch (first publication only —
  /// not retries or refreshes).
  virtual void on_publish(const MbrPayload& payload) = 0;

  /// A response reached its client node, which has already acked it.
  virtual void on_response(const ResponsePayload& response) = 0;
};

class MiddlewareNode {
 public:
  /// `config`, `strategy`, `metrics` and `rng` (the retry jitter) are the
  /// host's and outlive the node.
  MiddlewareNode(NodeIndex self, routing::RoutingSystem& routing,
                 NodeHost& host, const MiddlewareConfig& config,
                 const IndexingStrategy& strategy, MetricsCollector& metrics,
                 common::Pcg32& rng);
  /// Timers and periodic tasks hold the node's address, so it never moves.
  MiddlewareNode(const MiddlewareNode&) = delete;
  MiddlewareNode& operator=(const MiddlewareNode&) = delete;

  // --- Entry points ---------------------------------------------------------

  void register_stream(StreamId stream);
  void unregister_stream(StreamId stream);
  void post_stream_value(StreamId stream, Sample value);
  /// Poses a query whose id and client (this node) the host assigned.
  void subscribe_similarity(std::shared_ptr<const SimilarityQuery> query);
  void subscribe_inner_product(std::shared_ptr<const InnerProductQuery> query);

  /// The routing layer's deliver upcall at this node.
  void deliver(const routing::Message& msg);

  /// The NPER periodic body: the match pass, then aggregator-replica
  /// promotion, publication pruning, filing the fresh matches, report
  /// digests to the middle keys, pushes of the records holding matches and
  /// inner-product answers.
  void periodic_tick();

  /// Soft-state refresh: re-route every live published batch and
  /// re-register local streams with the location service.
  void refresh_mbrs();

  /// Anti-entropy: a digest of the owned arc to the replica set.
  void anti_entropy_tick();

  /// Ownership handoff after a (re)join: asks the successor for the arc
  /// this node now owns (replication only).
  void request_handoff();

  /// Wipes the soft state a crash loses; local streams survive.
  void reset_soft_state();

  /// The node's overload window: refills the ingest and publish budgets,
  /// then drains the deferral queue FIFO, oldest batch first (its batch_seq
  /// is assigned now, at actual publication).
  void overload_window();

  // --- State ---------------------------------------------------------------

  const NodeIndex index;

  /// Streams originating here, keyed by stream id (iteration follows
  /// insertion order, which build() makes ascending).
  DenseMap<StreamId, LocalStream> streams;

  /// Content-routed storage (MBRs + similarity subscriptions).
  IndexStore store;

  /// Similarity queries aggregated here (this node covers their middle key).
  DenseMap<QueryId, AggregatorRecord> aggregations;

  /// Match reports waiting for the next pass, which routes them to their
  /// middle keys (one digest per key).
  std::vector<MatchReport> outgoing_reports;

  /// Location-service directory fragment: streams whose h2 key this node
  /// covers.
  DenseMap<StreamId, NodeIndex> location_directory;

  /// Client-side cache of resolved stream locations ("remembers the mapping
  /// so next time it does not need to retrieve it").
  DenseMap<StreamId, NodeIndex> location_cache;

  /// Inner-product queries posed here and still waiting for a location
  /// reply, keyed by stream id.
  DenseMap<StreamId, std::vector<std::shared_ptr<const InnerProductQuery>>>
      pending_inner_queries;

  /// Acked MBR publications originated here, walked in (stream, batch_seq)
  /// order by the soft-state refresh.
  PublicationLedger published_mbrs;

  /// Location-get retries already spent per unresolved stream (drives the
  /// capped exponential backoff); erased once the stream resolves.
  DenseMap<StreamId, int> location_retry_attempts;

  /// Partial-aggregation mirrors held for other nodes' queries (this node is
  /// in the middle key's replica set). Promoted into `aggregations` when the
  /// aggregator's arc falls to this node.
  DenseMap<QueryId, AggregationReplica> aggregation_replicas;

  /// Overload-control state (touched only when MiddlewareConfig::overload is
  /// set). All mutations happen on the middleware's serial paths, so the
  /// same seed yields the same shed/defer schedule.
  struct OverloadState {
    std::uint64_t window_ingest = 0;     // MBR stores accepted this window
    std::uint64_t window_published = 0;  // publications sent this window
    double shed_accumulator = 0.0;       // forced-shed fractional counter
    /// Source-side backpressure queue of closed-but-unpublished batches.
    std::deque<DeferredPublication> deferred;
  };
  OverloadState overload;

 private:
  using Message = routing::Message;

  // --- Sends: every message the node originates ---------------------------
  //
  // Each message shape is built in one of these three places (the overload
  // layer's synthetic drop envelope aside).

  /// Routes `payload` through the overlay to the node covering `key`.
  void send_to_key(Key key, MsgKind kind, std::any payload,
                   bool reroute_on_dead = false);

  /// Sends `payload` straight to node `to`; with `reroute_on_dead` a dead
  /// `to` detours to its successor list.
  void send_to_node(NodeIndex to, MsgKind kind, std::any payload,
                    bool reroute_on_dead);

  /// Range-multicasts `payload` over [lo, hi] with the configured multicast
  /// flavor (trace_id 0 lets routing mint one). With replication on, a
  /// landing copy whose terminal hop died in flight detours to the
  /// successor-list replica, which stores and acks, cutting the retry tail
  /// short.
  void send_to_range(Key lo, Key hi, MsgKind kind, std::any payload,
                     std::uint64_t trace_id = 0);

  void handle_mbr(const Message& msg);
  void handle_similarity_query(const Message& msg);
  void handle_inner_query(const Message& msg);
  void handle_response(const Message& msg);
  void handle_mbr_ack(const Message& msg);
  void handle_response_ack(const Message& msg);
  void handle_neighbor_digest(const Message& msg);
  void handle_location_put(const Message& msg);
  void handle_location_get(const Message& msg);
  void handle_location_reply(const Message& msg);
  void handle_replica_put(const Message& msg);
  void handle_handoff_request(const Message& msg);
  void handle_anti_entropy_digest(const Message& msg);
  void handle_anti_entropy_request(const Message& msg);
  void handle_aggregator_replica(const Message& msg);

  /// The designated-reporter rule, the match pass's report filter: this
  /// node reports a (batch, subscription) candidate only when it covers the
  /// candidate's nearest_overlap_key, or when no batch range meets a query
  /// range (never a dismissal).
  bool designated_reporter(const IndexStore::StoredMbr& entry,
                           const IndexStore::Subscription& sub);

  /// Sends the buffered reports toward their aggregators: one digest per
  /// middle key, routed through the overlay to the node that covers the
  /// key. Reports of lapsed queries are dropped.
  void send_report_digests(sim::SimTime now);

  /// Routes the MBR just closed for `stream`: the backpressure gate (defer
  /// when the publish budget is spent) in front of publish_mbr.
  void route_mbr(LocalStream& stream, dsp::Mbr mbr);

  /// The actual publication body: assigns the batch_seq, stores locally,
  /// range-multicasts, and arms acks/refresh tracking.
  void publish_mbr(LocalStream& stream, dsp::Mbr mbr);

  /// Files a detected match either into the local aggregator (if this node
  /// covers the middle key) or into the outgoing digest buffer.
  void file_match_report(MatchReport report);

  /// Pushes the record's pending matches to its client and clears them;
  /// nothing when none are pending. With replication on, they are mirrored
  /// to the replica set first; with response acks on, the push is tracked
  /// and its retry timer armed first.
  void push_pending(QueryId query, AggregatorRecord& record);

  /// Whether `node` covers `key` (key in (pred, node]).
  bool covers_key(NodeIndex node, Key key) const;

  /// Sends the inner-product query to its (resolved) source node.
  void dispatch_inner_query(std::shared_ptr<const InnerProductQuery> query,
                            NodeIndex source);

  /// Re-asks the location service about a stream whose first resolution
  /// came back unknown (registration racing through the overlay).
  void retry_location_get(StreamId stream);

  /// Sends the inner-product queries waiting on `stream` to its resolved
  /// `source` and ends the stream's location retries.
  void drain_inner_queries(StreamId stream, NodeIndex source);

  /// Records the ack of (stream, batch_seq), and the heal latency when it
  /// is the first ack of a retransmitted publication.
  void note_mbr_ack(StreamId stream, std::uint64_t seq);

  /// (Re)arms the ack timeout of a tracked publication.
  void arm_mbr_retry(PublicationLedger::Publication& pub);
  void on_mbr_ack_timeout(StreamId stream, std::uint64_t seq);

  /// (Re)arms the ack timeout of a tracked push: exactly the policy's
  /// timeout, drawing nothing from the jitter stream.
  void arm_push_retry(QueryId query, std::uint64_t push_seq);
  void on_push_ack_timeout(QueryId query, std::uint64_t push_seq);

  /// Emits a self-healing (retry/heal/refresh) or replication (replicate/
  /// handoff/repair/failover) trace event when a trace sink is attached.
  /// Self-healing events pass their publication's trace id.
  void emit_trace(obs::TraceEventKind event, StreamId stream,
                  std::uint64_t seq, std::uint64_t trace_id = 0);

  // --- Replication & failover helpers -------------------------------------

  bool replication_on() const noexcept {
    return config_.replication_factor > 0;
  }

  /// Mirrors one just-stored MBR batch to the replica set. Called by the
  /// key-range owner only (the node covering the range's hi end), so each
  /// batch is mirrored once per publication.
  void mirror_mbr(const IndexStore::StoredMbr& entry);

  /// Mirrors one just-installed subscription to the replica set.
  void mirror_subscription(const IndexStore::Subscription& sub);

  /// The shared body of the two mirrors: sends `put` to the replica set and
  /// traces it under (trace_stream, trace_seq).
  void mirror_put(ReplicaPutPayload put, StreamId trace_stream,
                  std::uint64_t trace_seq);

  /// Mirrors the record's pending matches, about to be pushed, to the
  /// middle key's replica set (incremental AggregatorRecord replication).
  void mirror_aggregation(QueryId query, const AggregatorRecord& record);

  /// Promotes expired-owner mirrors: any AggregationReplica whose middle key
  /// now falls on this node's arc becomes a live AggregatorRecord. Runs at
  /// the head of each periodic tick.
  void promote_aggregation_replicas(sim::SimTime now);

  /// Sends a non-empty anti-entropy repair or handoff answer to `peer`.
  /// Returns the number of entries sent.
  std::size_t send_repair(NodeIndex peer, ReplicaPutPayload put,
                          bool handoff);

  // --- Overload-control helpers --------------------------------------------

  /// The load-shedding gate for one delivered MBR store attempt. Returns
  /// true when the store must be skipped; the drop is then already
  /// accounted (kShedOverload via the routing drop path + shed_mbrs).
  bool shed_ingest(const Message& msg);

  /// Source-side deferral: queues the closed batch; on queue overflow the
  /// oldest deferred batch is dropped as accounted kBackpressure.
  void defer_publication(StreamId stream, dsp::Mbr mbr);

  /// Accounts one backpressure drop through the routing drop path so it
  /// lands in drops_by_cause, the registry series, and the trace stream
  /// like every other loss, and counts it in backpressure_drops.
  void account_overload_drop();

  routing::RoutingSystem& routing_;
  NodeHost& host_;
  const MiddlewareConfig& config_;
  const IndexingStrategy& strategy_;
  MetricsCollector& metrics_;
  common::Pcg32& rng_;
  /// Scratch for multi-range strategies' probe sets.
  std::vector<std::pair<Key, Key>> range_scratch_;
  /// Scratch probe sets of the designated-reporter rule.
  std::vector<std::pair<Key, Key>> batch_ranges_;
  std::vector<std::pair<Key, Key>> query_ranges_;
};

}  // namespace sdsi::core
