// Query model (paper Sec III-B) and the typed payloads the middleware puts
// into routing messages.
#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "dsp/features.hpp"
#include "dsp/mbr.hpp"
#include "sim/time.hpp"

namespace sdsi::core {

using QueryId = std::uint64_t;

/// Similarity query (q, epsilon, lifespan): report every stream whose
/// normalized window is within distance epsilon of the query sequence,
/// continuously for `lifespan`.
struct SimilarityQuery {
  QueryId id = 0;
  NodeIndex client = kInvalidNode;
  dsp::FeatureVector features;  // extracted from the query sequence q
  double radius = 0.1;          // epsilon
  sim::Duration lifespan;
  sim::SimTime issued_at;
};

/// Inner-product query (sid, i, w, lifespan): continuously report
/// sum_j i_j * w_j * x_j over the most recent window of stream `stream`.
struct InnerProductQuery {
  QueryId id = 0;
  NodeIndex client = kInvalidNode;
  StreamId stream = 0;
  std::vector<double> index;    // data items of interest
  std::vector<double> weights;  // per-item weights
  sim::Duration lifespan;
  sim::SimTime issued_at;
};

/// One detected similarity candidate (stream whose summary passed the
/// lower-bound test against the query ball).
struct SimilarityMatch {
  QueryId query = 0;
  StreamId stream = 0;
  double bound_distance = 0.0;  // lower bound that admitted the candidate
  sim::SimTime detected_at;
};

// --- Routing payloads -------------------------------------------------------

/// Payload of kMbrUpdate messages: one batch of summaries from one stream.
///
/// `expires` is the ABSOLUTE expiry instant, fixed once when the batch
/// closes at the source. Retransmissions and soft-state refreshes re-send
/// the same payload verbatim, so every replica — however late it lands —
/// stores an identical entry and the store's (stream, batch_seq) dedup makes
/// redelivery a no-op (self-healing never inflates match counts).
struct MbrPayload {
  StreamId stream = 0;
  NodeIndex source = kInvalidNode;
  dsp::Mbr mbr;
  std::uint64_t batch_seq = 0;  // per-stream batch counter
  sim::SimTime expires;         // born + mbr_lifespan, absolute
};

/// Payload of kMbrAck messages: the landing node of an MBR range multicast
/// confirms storage back to the source (self-healing data path).
struct MbrAckPayload {
  StreamId stream = 0;
  std::uint64_t batch_seq = 0;
};

/// Payload of kSimilarityQuery messages (shared across all range replicas).
struct SimilarityQueryPayload {
  std::shared_ptr<const SimilarityQuery> query;
  Key middle_key = 0;  // aggregation point of the query's key range
};

/// Payload of kInnerProductQuery messages.
struct InnerProductQueryPayload {
  std::shared_ptr<const InnerProductQuery> query;
};

/// One report traveling from its designated range node to the query's
/// middle node.
struct MatchReport {
  SimilarityMatch match;
  NodeIndex client = kInvalidNode;
  Key middle_key = 0;
  sim::SimTime query_expires;
};

/// Payload of kNeighborExchange messages: one node's digest of the match
/// reports it holds for one middle key this period, routed through the
/// overlay to the node covering that key. The kind keeps its v1 wire name
/// and layout (docs/WIRE_FORMAT.md).
struct NeighborDigestPayload {
  std::vector<MatchReport> reports;
};

/// Payload of kResponse messages: one push to one client.
struct ResponsePayload {
  QueryId query = 0;
  NodeIndex client = kInvalidNode;
  bool inner_product = false;
  std::vector<SimilarityMatch> matches;  // new matches since last push
  double inner_product_value = 0.0;      // for inner-product subscriptions
  NodeIndex aggregator = kInvalidNode;   // who to ack (kInvalidNode: no ack)
  std::uint64_t push_seq = 0;            // per-(aggregator, query) push id
};

/// Payload of kResponseAck messages: the client confirms receipt of a
/// match-bearing push so the aggregator can retire it from its in-flight
/// window (otherwise the push is resent).
struct ResponseAckPayload {
  QueryId query = 0;
  std::uint64_t push_seq = 0;
};

// --- Replication & failover payloads ----------------------------------------

/// Identity of one MBR batch in digests and backfill requests.
struct MbrBatchId {
  StreamId stream = 0;
  std::uint64_t batch_seq = 0;
};

/// One mirrored MBR store entry — the stored fields verbatim (absolute
/// `expires`), so a replica stores exactly what the owner holds and the
/// (stream, batch_seq) dedup keeps redelivery idempotent.
struct ReplicaMbrEntry {
  StreamId stream = 0;
  NodeIndex source = kInvalidNode;
  dsp::Mbr mbr;
  std::uint64_t batch_seq = 0;
  sim::SimTime expires;
};

/// One mirrored similarity-subscription entry.
struct ReplicaSubscriptionEntry {
  std::shared_ptr<const SimilarityQuery> query;
  Key middle_key = 0;
  sim::SimTime expires;
};

/// Payload of kReplicaPut messages: store entries pushed to a replica peer.
/// Serves three flows under one kind — the synchronous mirror at store
/// time, the handoff slice on join/leave, and anti-entropy backfill.
struct ReplicaPutPayload {
  NodeIndex from = kInvalidNode;
  std::vector<ReplicaMbrEntry> mbrs;
  std::vector<ReplicaSubscriptionEntry> subscriptions;
  bool handoff = false;  // part of an ownership-transfer slice
  bool repair = false;   // anti-entropy gap backfill
};

/// Payload of kHandoffRequest messages: a node that (re)joined asks its
/// successor for every entry whose key range intersects the arc (lo, hi]
/// it now owns.
struct HandoffRequestPayload {
  NodeIndex requester = kInvalidNode;
  Key lo = 0;  // exclusive: the requester's predecessor id
  Key hi = 0;  // inclusive: the requester's own id
};

/// Payload of kAntiEntropyDigest messages: a compact listing of the store
/// entries the sender holds for its own arc (lo, hi], sent to its replica
/// set. The receiver requests what it misses and pushes back what the
/// sender misses.
struct AntiEntropyDigestPayload {
  NodeIndex from = kInvalidNode;
  Key lo = 0;  // exclusive low end of the sender's owned arc
  Key hi = 0;  // inclusive high end (the sender's id)
  std::vector<MbrBatchId> mbr_keys;
  std::vector<QueryId> query_ids;
};

/// Payload of kAntiEntropyRequest messages: the digest entries the
/// requester is missing and wants backfilled.
struct AntiEntropyRequestPayload {
  NodeIndex requester = kInvalidNode;
  std::vector<MbrBatchId> mbr_keys;
  std::vector<QueryId> query_ids;
};

/// Payload of kAggregatorReplica messages: an incremental mirror of one
/// query's partial aggregation to the middle key's replica set, so a
/// replica can promote itself to aggregator when the middle node dies
/// without losing any client-visible match.
struct AggregatorReplicaPayload {
  QueryId query = 0;
  NodeIndex client = kInvalidNode;
  Key middle_key = 0;
  sim::SimTime expires;
  NodeIndex owner = kInvalidNode;  // the aggregator that mirrored
  std::vector<SimilarityMatch> matches;  // newly filed since the last mirror
};

/// Payload of kHeartbeat messages: the periodic liveness beacon every ring
/// member sends every peer (net::FailureDetector). `epoch` increments each
/// time the process restarts, so a peer that sees a higher epoch than it
/// last recorded knows the node died and rejoined — the trigger for handoff
/// and anti-entropy repair toward the rejoiner. `seq` is a per-sender
/// counter (monotone within one epoch) for observability.
struct HeartbeatPayload {
  NodeIndex from = kInvalidNode;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
};

/// Location service payloads (Sec IV-D).
struct LocationPutPayload {
  StreamId stream = 0;
  NodeIndex source = kInvalidNode;
};
struct LocationGetPayload {
  StreamId stream = 0;
  NodeIndex requester = kInvalidNode;
};
struct LocationReplyPayload {
  StreamId stream = 0;
  NodeIndex source = kInvalidNode;  // kInvalidNode: unknown stream
};

}  // namespace sdsi::core
