// Structured fault injection (robustness layer).
//
// The paper's middleware is soft-state by design (Sec IV: MBRs expire after
// BSPAN, subscriptions refresh, Chord heals via stabilization), so graceful
// degradation under faults is a property worth *measuring*, not assuming.
// This module provides the fault processes a chaos scenario composes:
//
//  - uniform i.i.d. link loss (the legacy model, kept for comparability);
//  - bursty Gilbert-Elliott link loss: a two-state Markov chain (good/bad)
//    sampled per transmission, producing the correlated loss runs real WANs
//    exhibit — a burst can swallow an entire range multicast;
//  - per-transmission latency jitter, uniform in [0, max];
//  - key-range partitions: during a time window, every transmission routed
//    toward a key inside the clockwise range [lo, hi] is dropped (a blackout
//    of one arc of the ring);
//  - scheduled crash/recover waves, executed by the FaultInjector
//    (fault/injector.hpp) against the substrate's membership API.
//
// All processes draw from one seeded Pcg32, so a chaos run is exactly as
// bit-reproducible as a fault-free one.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/ring_math.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/time.hpp"

namespace sdsi::fault {

/// Why a transmission (or routed message) was dropped. The first three are
/// link-level faults injected by the LinkFaultModel; the next three are
/// routing-level losses (messages that died inside the overlay) which the
/// substrates report; kShedOverload/kBackpressure are deliberate
/// overload-control sheds; kOutboxOverflow/kMalformedFrame are transport
/// endpoint losses (a full per-peer socket outbox, a frame the receiving
/// codec rejected) — so every loss, injected or chosen, is accounted for
/// under one label set across the sim and the socket ring alike.
enum class DropCause : std::size_t {
  kUniformLoss = 0,  // i.i.d. loss model
  kBurstLoss = 1,    // Gilbert-Elliott bad-state loss
  kPartition = 2,    // key-range blackout window
  kDeadNode = 3,     // next hop / destination crashed mid-route
  kHopLimit = 4,     // routing-loop safety valve (mid-churn only)
  kDeadAggregator = 5,  // report/response path: whole replica set gone
  kShedOverload = 6,    // bounded ingest queue full: MBR shed at the index
  kBackpressure = 7,    // source-side deferral queue overflowed
  kOutboxOverflow = 8,  // socket transport: bounded per-peer outbox full
  kMalformedFrame = 9,  // receiver rejected the frame at the wire codec
  kCount = 10,
};

/// Human label for report tables. Out-of-range values are a program error
/// (every loss must be attributed), so this aborts instead of returning a
/// silent placeholder.
inline const char* drop_cause_name(DropCause cause) {
  switch (cause) {
    case DropCause::kUniformLoss: return "uniform loss";
    case DropCause::kBurstLoss: return "burst loss";
    case DropCause::kPartition: return "partition";
    case DropCause::kDeadNode: return "dead node";
    case DropCause::kHopLimit: return "hop limit";
    case DropCause::kDeadAggregator: return "dead aggregator";
    case DropCause::kShedOverload: return "shed overload";
    case DropCause::kBackpressure: return "backpressure";
    case DropCause::kOutboxOverflow: return "outbox overflow";
    case DropCause::kMalformedFrame: return "malformed frame";
    case DropCause::kCount: break;
  }
  SDSI_CHECK(false && "unknown DropCause");
  return "";
}

/// Machine identifier used in metric names (`drops.<slug>`) and in the JSON
/// exports; stable across releases (docs/OBSERVABILITY.md is the registry).
inline const char* drop_cause_slug(DropCause cause) {
  switch (cause) {
    case DropCause::kUniformLoss: return "uniform_loss";
    case DropCause::kBurstLoss: return "burst_loss";
    case DropCause::kPartition: return "partition";
    case DropCause::kDeadNode: return "dead_node";
    case DropCause::kHopLimit: return "hop_limit";
    case DropCause::kDeadAggregator: return "dead_aggregator";
    case DropCause::kShedOverload: return "shed_overload";
    case DropCause::kBackpressure: return "backpressure";
    case DropCause::kOutboxOverflow: return "outbox_overflow";
    case DropCause::kMalformedFrame: return "malformed_frame";
    case DropCause::kCount: break;
  }
  SDSI_CHECK(false && "unknown DropCause");
  return "";
}

/// Two-state Markov loss (Gilbert-Elliott). State transitions are sampled
/// once per transmission; mean burst length = 1 / p_bad_to_good, stationary
/// loss rate = loss_bad * p_good_to_bad / (p_good_to_bad + p_bad_to_good)
/// (+ the loss_good floor).
struct GilbertElliottParams {
  double p_good_to_bad = 0.01;
  double p_bad_to_good = 0.25;
  double loss_good = 0.0;  // residual loss in the good state
  double loss_bad = 1.0;   // loss probability inside a burst
};

/// Blackout of the clockwise key range [lo, hi] during [from, until):
/// transmissions *toward* a key in the range are dropped at the sender.
struct KeyRangePartition {
  Key lo = 0;
  Key hi = 0;
  sim::SimTime from;
  sim::SimTime until;
};

/// At time `at`, crash floor(fraction * alive) nodes (chosen seeded-uniform
/// among the alive set); if down_for > 0, recover them that much later.
/// After every membership change the injector runs `maintenance_rounds` of
/// substrate stabilization, modeling a ring that keeps healing itself.
struct CrashWave {
  sim::SimTime at;
  double fraction = 0.0;
  sim::Duration down_for;  // zero = the nodes stay down
  int maintenance_rounds = 4;
};

/// Per-transmission extra latency, uniform in [0, max].
struct LatencyJitter {
  sim::Duration max;
};

/// A composed chaos scenario. Empty (the default) injects nothing.
/// `reorder`/`corrupt` are transport-level processes consumed by
/// net::FaultyTransport (the sim's RoutingSystem has no byte stream to
/// corrupt); the rest are shared by both worlds.
struct FaultPlan {
  double uniform_loss = 0.0;
  std::optional<GilbertElliottParams> burst_loss;
  std::optional<LatencyJitter> jitter;
  std::vector<KeyRangePartition> partitions;
  std::vector<CrashWave> crash_waves;
  /// Probability a frame is held past later sends to the same peer (an
  /// extra `reorder_extra` of delay on top of any jitter draw).
  double reorder = 0.0;
  sim::Duration reorder_extra = sim::Duration::millis(5);
  /// Probability one payload byte of the encoded frame is flipped in
  /// flight. The receiver's codec sees the damage (kBadPayload -> a counted
  /// kMalformedFrame drop) or, rarely, a decodable-but-altered payload —
  /// both are what real bit rot does to a framed stream.
  double corrupt = 0.0;

  bool has_link_faults() const noexcept {
    return uniform_loss > 0.0 || burst_loss.has_value() ||
           jitter.has_value() || !partitions.empty() || reorder > 0.0 ||
           corrupt > 0.0;
  }
  bool empty() const noexcept {
    return !has_link_faults() && crash_waves.empty();
  }
};

/// The seeded link-level sampler a RoutingSystem consults on every
/// transmission. Owns the Markov chain state and the jitter stream.
class LinkFaultModel {
 public:
  /// `rng` drives the burst chain and the jitter; `loss_rng` draws the
  /// uniform loss alone, so no other fault process shifts which
  /// transmissions the uniform model drops.
  LinkFaultModel(FaultPlan plan, common::IdSpace space, common::Pcg32 rng,
                 common::Pcg32 loss_rng);

  /// Samples whether the transmission toward `target_key` at `now` is lost;
  /// returns the cause, or nullopt when it goes through. The uniform draw
  /// comes first, on every transmission; then the partition checks
  /// (deterministic); then the burst chain advances and samples.
  std::optional<DropCause> sample_drop(Key target_key, sim::SimTime now);

  /// Extra latency for this transmission (zero without a jitter process).
  sim::Duration sample_jitter();

  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  FaultPlan plan_;
  common::IdSpace space_;
  common::Pcg32 rng_;
  common::Pcg32 loss_rng_;
  bool in_bad_state_ = false;
};

}  // namespace sdsi::fault
