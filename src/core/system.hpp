// The distributed stream-indexing middleware (the paper's contribution).
//
// MiddlewareSystem hosts one MiddlewareNode (node.hpp) per data center on
// top of any RoutingSystem and exposes the application-view primitives of
// Figure 5:
//
//   update(summary, stream)      -> post_stream_value / register_stream
//   subscribe(pattern)           -> subscribe_similarity
//   subscribe(inner_product)     -> subscribe_inner_product
//   push_similarity_info / periodic push_inner_product_info  (automatic)
//
// The nodes implement Sec IV end to end: Eq. 6 content keys, MBR batching
// and range replication, similarity matching with no false dismissals,
// middle-node aggregation, the h2 location service, and the periodic
// notification machinery of Table I. The host keeps what spans nodes: the
// node table and its schedules, and the client records.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/node.hpp"

namespace sdsi::core {

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

class MiddlewareSystem : private NodeHost {
 public:
  /// Creates one middleware node per routing node and registers the deliver
  /// upcall and metrics hook on `routing`.
  MiddlewareSystem(routing::RoutingSystem& routing, MiddlewareConfig config);

  const MiddlewareConfig& config() const noexcept { return config_; }
  const IndexingStrategy& strategy() const noexcept { return *strategy_; }
  MetricsCollector& metrics() noexcept { return metrics_; }
  const MetricsCollector& metrics() const noexcept { return metrics_; }

  /// Starts the periodic per-node machinery (expiry, matching, digests,
  /// response pushes). Node ticks are staggered across one period so the
  /// event load spreads out as it would with unsynchronized clocks.
  void start();

  // --- Application-view primitives (Fig 5) --------------------------------

  /// Declares `stream` to originate at `node` and registers it with the h2
  /// location service.
  void register_stream(NodeIndex node, StreamId stream) {
    state_of(node).register_stream(stream);
  }

  /// Retires a stream: flushes and routes the final partial MBR, drops the
  /// local state, and tombstones the h2 directory entry so future location
  /// lookups report the stream unknown.
  void unregister_stream(NodeIndex node, StreamId stream) {
    state_of(node).unregister_stream(stream);
  }

  /// Feeds one new data value of `stream` into its source node. Emits and
  /// routes an MBR whenever the batcher closes one.
  void post_stream_value(NodeIndex node, StreamId stream, Sample value) {
    state_of(node).post_stream_value(stream, value);
  }

  /// Poses a continuous similarity query (Sec IV-E). Returns its id.
  QueryId subscribe_similarity(NodeIndex client, dsp::FeatureVector features,
                               double radius, sim::Duration lifespan);

  /// Convenience: extracts features from a raw query sequence first.
  QueryId subscribe_similarity_window(NodeIndex client,
                                      std::span<const Sample> window,
                                      double radius, sim::Duration lifespan) {
    return subscribe_similarity(
        client, strategy_->features_from_window(window), radius, lifespan);
  }

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
  void reset_node_soft_state(NodeIndex index) {
    state_of(index).reset_soft_state();
  }

  const MiddlewareNode& node(NodeIndex index) const {
    SDSI_CHECK(index < nodes_.size());
    return nodes_[index];
  }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }

  const ClientQueryRecord* client_record(QueryId id) const {
    const auto it = client_records_.find(id);
    return it == client_records_.end() ? nullptr : &it->second;
  }
  const std::unordered_map<QueryId, ClientQueryRecord>& client_records()
      const noexcept {
    return client_records_;
  }

  /// Total MBRs routed since construction.
  std::uint64_t mbrs_routed() const noexcept { return mbrs_routed_; }

  // --- Overload control ----------------------------------------------------

  /// Source-side backpressure level in [0, 1]: how full the node's deferral
  /// queue is. Generators consult this to stretch their emission gaps
  /// (slow down) instead of having the middleware drop their batches.
  double ingest_backpressure(NodeIndex node) const;

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
  // NodeHost: counts and reports publications, and files a response into
  // its client record.
  void on_publish(const MbrPayload& payload) override;
  void on_response(const ResponsePayload& response) override;

  /// nodes_[index], growing the table for late joiners.
  MiddlewareNode& state_of(NodeIndex index);

  /// Starts the node's NPER tick, MBR refresh and anti-entropy digests (the
  /// last two when configured), each `slot` / `slots` of its period late.
  void schedule_node(NodeIndex index, std::int64_t slot, std::int64_t slots);

  /// Starts the node's overload window (when configured) on the grid
  /// start + k * window, the next point after now; unlike the cadences
  /// above it is not staggered.
  void schedule_overload_window(NodeIndex index);

  routing::RoutingSystem& routing_;
  MiddlewareConfig config_;
  /// The pluggable summary/key-map pair; never null (defaults to "dft").
  std::unique_ptr<IndexingStrategy> strategy_;
  MetricsCollector metrics_;
  /// A deque, so a late joiner's growth never moves the nodes whose
  /// addresses their timers hold.
  std::deque<MiddlewareNode> nodes_;
  std::unordered_map<QueryId, ClientQueryRecord> client_records_;
  QueryId next_query_id_ = 1;
  std::uint64_t mbrs_routed_ = 0;
  bool started_ = false;
  sim::SimTime start_time_;  // the origin of the overload windows' grid
  MbrPublishHook publish_hook_;
  QueryPoseHook query_hook_;
};

}  // namespace sdsi::core
