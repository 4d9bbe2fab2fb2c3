// The message envelope carried by every content-routed communication.
//
// The routing layer is payload-agnostic (the middleware stores its typed
// payloads in `payload`), but the envelope carries everything the paper's
// instrumentation needs: origin, overlay hop count, and whether the copy is
// a range-multicast replica ("internal" messages in Figures 6-8).
#pragma once

#include <any>
#include <cstdint>
#include <memory>

#include "common/check.hpp"
#include "common/ring_math.hpp"
#include "common/types.hpp"
#include "sim/time.hpp"

namespace sdsi::routing {

/// Application message tags carried in Message::kind — one per protocol
/// message the middleware exchanges. The numeric values are wire protocol
/// v1 (docs/WIRE_FORMAT.md): they appear verbatim in the frame header's
/// `kind` field and must never be renumbered; new kinds append.
/// core/metrics.hpp re-exports this enum as core::MsgKind so the codecs,
/// the metrics category labels, and the wire header share one vocabulary.
enum class MsgKind : std::uint16_t {
  kInvalid = 0,           // never on the wire; decode rejects it
  kMbrUpdate = 1,         // batched stream summaries (Sec IV-G)
  kSimilarityQuery = 2,   // continuous similarity subscription (Sec IV-E)
  kInnerProductQuery = 3, // inner-product subscription (Sec IV-D)
  kResponse = 4,          // periodic response to a client (Sec IV-F)
  kNeighborExchange = 5,  // match-report digests routed to a middle key
  kLocationPut = 6,       // stream-id -> source registration (h2 service)
  kLocationGet = 7,       // stream-id resolution request
  kLocationReply = 8,     // stream-id resolution reply
  kMbrAck = 9,            // storage confirmation for an MBR batch
  kResponseAck = 10,      // client confirmation of a match-bearing push
  kReplicaPut = 11,       // mirrored store entries (mirror/handoff/repair)
  kHandoffRequest = 12,   // joining node pulls its key-range slice
  kAntiEntropyDigest = 13,   // compact content digest between replica peers
  kAntiEntropyRequest = 14,  // backfill request for digest gaps
  kAggregatorReplica = 15,   // partial-aggregation mirror to the replica set
  kHeartbeat = 16,           // liveness beacon for the failure detector
};

/// Number of assigned wire kinds (kInvalid excluded); kind values in
/// [1, kNumMsgKinds] are valid on the wire.
inline constexpr std::uint16_t kNumMsgKinds = 16;

/// Whether a raw header value names an assigned message kind. The wire
/// decoder consults this so an unknown kind REJECTS the frame (a peer
/// speaking a newer protocol must not abort the receiver).
constexpr bool msg_kind_known(std::uint16_t raw) noexcept {
  return raw >= 1 && raw <= kNumMsgKinds;
}

/// Stable lowercase identifier of a message kind (wire spec, trace tooling).
/// kInvalid or out-of-range values return "invalid".
constexpr const char* msg_kind_name(MsgKind kind) noexcept {
  switch (kind) {
    case MsgKind::kInvalid: break;
    case MsgKind::kMbrUpdate: return "mbr_update";
    case MsgKind::kSimilarityQuery: return "similarity_query";
    case MsgKind::kInnerProductQuery: return "inner_product_query";
    case MsgKind::kResponse: return "response";
    case MsgKind::kNeighborExchange: return "neighbor_exchange";
    case MsgKind::kLocationPut: return "location_put";
    case MsgKind::kLocationGet: return "location_get";
    case MsgKind::kLocationReply: return "location_reply";
    case MsgKind::kMbrAck: return "mbr_ack";
    case MsgKind::kResponseAck: return "response_ack";
    case MsgKind::kReplicaPut: return "replica_put";
    case MsgKind::kHandoffRequest: return "handoff_request";
    case MsgKind::kAntiEntropyDigest: return "anti_entropy_digest";
    case MsgKind::kAntiEntropyRequest: return "anti_entropy_request";
    case MsgKind::kAggregatorReplica: return "aggregator_replica";
    case MsgKind::kHeartbeat: return "heartbeat";
  }
  return "invalid";
}

/// Direction a range-multicast copy is traveling (Sec IV-C: successor walk;
/// Sec VI-B: bidirectional from the middle node).
enum class RangeDir : std::uint8_t {
  kNone,  // not a range message
  kUp,    // cover toward the high end (successor direction)
  kDown,  // cover toward the low end (predecessor direction)
  kBoth,  // initial copy of a bidirectional multicast: fan out both ways
};

struct Message {
  /// The key the message was routed to (successor(target_key) delivers).
  Key target_key = 0;

  /// Node that originated the message.
  NodeIndex origin = kInvalidNode;

  /// Application-defined message tag (typed; wire header field `kind`).
  MsgKind kind = MsgKind::kInvalid;

  /// True for copies created by range-multicast forwarding — the paper's
  /// "additional messages in the case of a key range that spans multiple
  /// nodes".
  bool range_internal = false;

  RangeDir range_dir = RangeDir::kNone;

  /// Inclusive clockwise key range [range_lo, range_hi] this message must
  /// cover; meaningful only when has_range.
  bool has_range = false;
  Key range_lo = 0;
  Key range_hi = 0;

  /// When the destination of a neighbor/direct transmission turns out to be
  /// dead, detour the message to the dead node's first live successor-list
  /// entry instead of dropping it (the successor is the node that will
  /// inherit the dead node's arc once stabilization promotes it). Set by the
  /// report path and the replication layer; only when the entire successor
  /// list is gone does the message drop (fault::DropCause::kDeadAggregator).
  bool reroute_on_dead = false;

  /// Overlay hops traversed by THIS copy so far (range-forwarded copies
  /// restart at 0; the metrics layer accumulates per-copy hop counts).
  int hops = 0;

  /// Simulation time the originating send() happened (end-to-end latency).
  sim::SimTime sent_at;

  /// Observability correlation id. Assigned by RoutingSystem::send() when
  /// still 0; range-multicast copies inherit it, and the middleware reuses
  /// one id across a publication's retries/refreshes, so every trace event
  /// of one logical operation shares the id (obs/trace.hpp).
  std::uint64_t trace_id = 0;

  /// Typed application payload; cheap to copy (middleware payloads are
  /// small structs or shared_ptrs). On the wire this is replaced by the
  /// per-kind payload codecs of src/net/wire.hpp.
  std::any payload;
};

/// The typed payload `msg` carries (the middleware stores each payload as a
/// std::shared_ptr<const T>); a payload of another type, or none, is a
/// program bug and aborts.
template <typename T>
const std::shared_ptr<const T>& payload_of(const Message& msg) {
  const auto* ptr = std::any_cast<std::shared_ptr<const T>>(&msg.payload);
  SDSI_CHECK(ptr != nullptr && *ptr != nullptr);
  return *ptr;
}

}  // namespace sdsi::routing
