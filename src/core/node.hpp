// Per-data-center middleware state. MiddlewareSystem (system.hpp) drives the
// logic; this header holds what one node knows.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "common/dense_map.hpp"
#include "core/batcher.hpp"
#include "core/index_store.hpp"
#include "core/precision.hpp"
#include "core/query.hpp"
#include "core/resend.hpp"
#include "core/strategy.hpp"
#include "sim/simulator.hpp"

namespace sdsi::core {

/// One inner-product subscription installed at a stream's source node.
struct InnerProductSubscription {
  std::shared_ptr<const InnerProductQuery> query;
  sim::SimTime expires;
};

/// A stream this node is the source of ("each node is a source of exactly
/// one stream" in the experiments; the API supports several).
struct LocalStream {
  StreamId id = 0;
  /// Strategy-made summary (core/strategy.hpp); never null. The dft
  /// strategy wraps streams::StreamSummarizer verbatim.
  std::unique_ptr<Summarizer> summarizer;
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
/// which periodically pushes responses to the client).
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

struct MiddlewareNode {
  MiddlewareNode() = default;
  /// nodes_ grows via emplace_back, which moves only when the move is
  /// noexcept; `streams` holds move-only LocalStream entries, so the copy
  /// fallback is deleted and the move path must be forced.
  MiddlewareNode(MiddlewareNode&&) noexcept = default;
  MiddlewareNode& operator=(MiddlewareNode&&) noexcept = default;

  NodeIndex index = kInvalidNode;

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
  /// same seed yields the same shed/split/defer schedule at any thread
  /// count.
  struct OverloadState {
    std::uint64_t window_work = 0;       // index work this detector window
    std::uint64_t window_ingest = 0;     // MBR stores accepted this window
    std::uint64_t window_published = 0;  // publications sent this window
    double shed_accumulator = 0.0;       // forced-shed fractional counter
    /// Virtual successor nodes sharing this node's arc while it is hot;
    /// empty when cool.
    std::vector<NodeIndex> split_delegates;
    /// Source-side backpressure queue of closed-but-unpublished batches.
    std::deque<DeferredPublication> deferred;
  };
  OverloadState overload;
};

}  // namespace sdsi::core
