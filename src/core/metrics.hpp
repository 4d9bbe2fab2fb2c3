// Instrumentation for the paper's three evaluation characteristics:
//  - per-node message load, split into the seven components of Fig 6(a);
//  - message overhead per input event, the six components of Fig 7;
//  - hops traversed per message type, Fig 8.
//
// The collector plugs into the routing layer as a MetricsHook, so every
// origination, overlay transit, and delivery is observed exactly once.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "obs/log_histogram.hpp"
#include "obs/timeseries.hpp"
#include "routing/api.hpp"

namespace sdsi::core {

/// Application message tags carried in routing::Message::kind. The enum
/// itself lives with the envelope (routing/message.hpp) so the wire codecs
/// (src/net/wire.hpp), the metrics labels below, and the frame header can't
/// drift; this alias keeps the historical core::MsgKind spelling working.
using MsgKind = routing::MsgKind;

/// The seven per-node load components of Fig 6(a), plus the reliability
/// control traffic (acks) our self-healing extension adds on top of the
/// paper's protocol, plus the replication layer's traffic (mirrors,
/// handoffs, anti-entropy, aggregator-state mirrors).
enum class LoadComponent : std::size_t {
  kMbrSource = 0,        // (a) MBRs originated by the node as a stream source
  kMbrInternal = 1,      // (b) extra copies when an MBR range spans nodes
  kMbrTransit = 2,       // (c) MBRs relayed by intermediate overlay nodes
  kQueries = 3,          // (d) all query messages
  kResponses = 4,        // (e) responses from the notifying node to clients
  kResponsesInternal = 5,// (f) match-report digests to the middle node
  kResponsesTransit = 6, // (g) responses + digests relayed by overlay nodes
  kControl = 7,          // (h) acks: MBR storage + response delivery
  kReplication = 8,      // (i) replication layer traffic
  kCount = 9,
};

/// Human label for the Fig 6(a) table rows. Out-of-range values abort (every
/// load event must belong to a named component) instead of rendering a
/// silent placeholder row.
inline const char* load_component_name(LoadComponent c) {
  switch (c) {
    case LoadComponent::kMbrSource: return "MBRs";
    case LoadComponent::kMbrInternal: return "MBRs internal";
    case LoadComponent::kMbrTransit: return "MBRs in transit";
    case LoadComponent::kQueries: return "Queries";
    case LoadComponent::kResponses: return "Responses";
    case LoadComponent::kResponsesInternal: return "Responses internal";
    case LoadComponent::kResponsesTransit: return "Responses in transit";
    case LoadComponent::kControl: return "Control (acks)";
    case LoadComponent::kReplication: return "Replication";
    case LoadComponent::kCount: break;
  }
  SDSI_CHECK(false && "unknown LoadComponent");
  return "";
}

/// Machine identifier used in metric names (`load.<slug>`) and in the JSON
/// exports; stable across releases (docs/OBSERVABILITY.md is the registry).
inline const char* load_component_slug(LoadComponent c) {
  switch (c) {
    case LoadComponent::kMbrSource: return "mbr_source";
    case LoadComponent::kMbrInternal: return "mbr_internal";
    case LoadComponent::kMbrTransit: return "mbr_transit";
    case LoadComponent::kQueries: return "queries";
    case LoadComponent::kResponses: return "responses";
    case LoadComponent::kResponsesInternal: return "responses_internal";
    case LoadComponent::kResponsesTransit: return "responses_transit";
    case LoadComponent::kControl: return "control";
    case LoadComponent::kReplication: return "replication";
    case LoadComponent::kCount: break;
  }
  SDSI_CHECK(false && "unknown LoadComponent");
  return "";
}

/// The Fig 6(a) component a message event belongs to — the single
/// classification shared by the per-node load table, the time-series
/// registry, and the report renderers.
LoadComponent component_of(const routing::Message& msg, bool transit);

/// Aggregate counters for one message category (Fig 7 / Fig 8 views).
struct CategoryCounters {
  std::uint64_t originated = 0;      // first-class sends (not range copies)
  std::uint64_t range_internal = 0;  // copies created by range forwarding
  std::uint64_t transit = 0;         // overlay relays
  std::uint64_t delivered = 0;       // deliveries (all copies)
  common::OnlineStats hops_routed;   // hops of delivered first-class copies
  common::OnlineStats hops_internal; // hops of delivered range copies
  // Full latency distributions (log-bucketed: count/sum/min/max exact,
  // p50/p90/p99 interpolated — obs/log_histogram.hpp).
  obs::LogHistogram latency_ms;        // send->deliver, first-class copies
  obs::LogHistogram range_latency_ms;  // original send->deliver, range
                                       // copies (cumulative walk delay)
};

/// Self-healing bookkeeping: what the fault-tolerance machinery did and how
/// long repairs took (heal latency = first send of an MBR batch to the ack
/// that finally confirmed it, counted only when retries were needed).
struct RobustnessCounters {
  std::uint64_t mbr_retries = 0;        // ack-timeout retransmissions
  std::uint64_t mbr_retry_exhausted = 0;// batches that ran out of budget
  std::uint64_t mbr_refreshes = 0;      // soft-state re-publications
  std::uint64_t query_refreshes = 0;    // soft-state re-subscriptions
  std::uint64_t mbr_acks = 0;           // storage confirmations received
  std::uint64_t duplicate_stores = 0;   // redeliveries the store suppressed
  std::uint64_t response_retries = 0;   // resent unacked match pushes
  std::uint64_t location_retries = 0;   // location-get re-sends (per period)
  /// One sample per healed batch, in ms. A single log-bucketed histogram
  /// carries the whole story: count/mean/max exactly, p50/p90/p99 estimated.
  obs::LogHistogram heal_latency_ms;

  // --- Replication & failover layer --------------------------------------
  std::uint64_t replica_puts = 0;       // store entries mirrored to replicas
  std::uint64_t replica_repairs = 0;    // anti-entropy backfills applied
  std::uint64_t handoff_entries = 0;    // entries moved by join/leave handoff
  std::uint64_t handoff_bytes = 0;      // approximate handoff payload bytes
  std::uint64_t aggregator_failovers = 0;  // replica-to-aggregator promotions
  std::uint64_t report_detours = 0;     // sends saved by dead-hop detours
  std::uint64_t oracle_fallbacks = 0;   // routing bypassed protocol state
  /// Aggregator dark time per failover: replica's last mirror update to its
  /// promotion instant (how long partial aggregations sat unserved).
  obs::LogHistogram failover_latency_ms;

  // --- Overload-survival layer (shedding + backpressure) -----------------
  std::uint64_t shed_mbrs = 0;          // MBR batches shed at a full ingest
                                        // queue (mirrors drops.shed_overload)
  std::uint64_t backpressure_deferrals = 0;  // publications delayed, not lost
  std::uint64_t backpressure_drops = 0;      // deferral queue overflowed
                                             // (mirrors drops.backpressure)
};

class MetricsCollector final : public routing::MetricsHook {
 public:
  explicit MetricsCollector(std::size_t num_nodes);

  /// While disabled (warm-up), nothing is recorded.
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  void reset();

  /// Grows the per-node table when data centers join at runtime.
  void ensure_nodes(std::size_t count) {
    if (count > per_node_.size()) {
      per_node_.resize(count);
      work_per_node_.resize(count, 0);
    }
  }

  // MetricsHook interface.
  void on_send(NodeIndex from, const routing::Message& msg) override;
  void on_transit(NodeIndex via, const routing::Message& msg) override;
  void on_deliver(NodeIndex at, const routing::Message& msg) override;
  void on_drop(fault::DropCause cause, const routing::Message& msg) override;
  void on_detour(NodeIndex around, const routing::Message& msg) override;
  void on_oracle_fallback(NodeIndex node) override;

  /// Attach the simulator clock so latency can be measured.
  void set_clock(const sim::Simulator* clock) noexcept { clock_ = clock; }

  /// Attach a time-series registry (obs/timeseries.hpp). When set, every
  /// event additionally updates windowed series (`load.<slug>`,
  /// `drops.<slug>`, `latency.*`). Registry updates deliberately bypass the
  /// warm-up gate: the series describe the whole run over time — including
  /// warm-up and drain — while the aggregate counters stay
  /// measurement-window-only. Pass nullptr to detach.
  void set_registry(obs::MetricsRegistry* registry);

  std::size_t num_nodes() const noexcept { return per_node_.size(); }

  /// Load events (sends + transits + deliveries touching the node) of one
  /// Fig 6(a) component at one node.
  std::uint64_t node_load(NodeIndex node, LoadComponent component) const;

  /// Total load events at a node across all components.
  std::uint64_t node_load_total(NodeIndex node) const;

  /// Index *work* units performed at a node: MBR stores accepted, match
  /// candidate windows (IndexStore::last_match_work), and aggregation
  /// pushes. Message load measures what the
  /// overlay delivers; work measures what the node then has to do.
  /// Increments come from the middleware's serial dispatch path, so totals
  /// are deterministic.
  void add_node_work(NodeIndex node, std::uint64_t units) {
    if (!enabled_ || node >= work_per_node_.size()) {
      return;
    }
    work_per_node_[node] += units;
  }
  std::uint64_t node_work_total(NodeIndex node) const {
    SDSI_CHECK(node < work_per_node_.size());
    return work_per_node_[node];
  }

  const CategoryCounters& mbr() const noexcept { return mbr_; }
  const CategoryCounters& query() const noexcept { return query_; }
  const CategoryCounters& response() const noexcept { return response_; }
  const CategoryCounters& neighbor() const noexcept { return neighbor_; }
  const CategoryCounters& location() const noexcept { return location_; }
  const CategoryCounters& control() const noexcept { return control_; }
  const CategoryCounters& replication() const noexcept { return replication_; }

  /// Drops observed through the routing hook, by cause label (unified view
  /// over link-loss models and routing-level losses).
  std::uint64_t drops(fault::DropCause cause) const noexcept {
    return drops_by_cause_[static_cast<std::size_t>(cause)];
  }
  std::uint64_t total_drops() const noexcept;

  /// Self-healing counters, written only through count() and observe().
  const RobustnessCounters& robustness() const noexcept { return robustness_; }

  /// One middleware event, recorded in both sinks: adds `n` to `field`
  /// inside the measurement window, and to the registry counter `series`
  /// over the whole run, warm-up and drain included, when a registry is
  /// attached. The series is looked up by name, so it first appears when
  /// its event first fires. A null `series` records the field alone.
  void count(std::uint64_t RobustnessCounters::*field, const char* series,
             std::uint64_t n = 1);
  /// The histogram twin of count(): one `ms` sample into `field` and the
  /// registry histogram `series`, under the same window rule.
  void observe(obs::LogHistogram RobustnessCounters::*field,
               const char* series, double ms);

  /// One (query, stream) pair reached its client `ms` after the match pass
  /// that detected it (SimilarityMatch::detected_at): the delivery part of
  /// detection latency. Feeds the registry series
  /// `latency.match_delivery_ms` (whole run) and, in the measurement
  /// window, match_delivery_ms().
  void add_match_delivery(double ms);
  const obs::LogHistogram& match_delivery_ms() const noexcept {
    return match_delivery_ms_;
  }

 private:
  CategoryCounters& category(const routing::Message& msg);
  void add_node_load(NodeIndex node, const routing::Message& msg,
                     bool transit);

  /// Registry series resolved once at attach time so per-event updates do no
  /// name lookups (metric references stay stable inside the registry).
  struct RegistrySeries {
    std::array<obs::Counter*, static_cast<std::size_t>(LoadComponent::kCount)>
        load{};
    obs::Counter* load_total = nullptr;
    std::array<obs::Counter*, static_cast<std::size_t>(fault::DropCause::kCount)>
        drops{};
    obs::Counter* drops_total = nullptr;
    obs::HistogramMetric* deliver_latency = nullptr;
    obs::HistogramMetric* range_walk_latency = nullptr;
    obs::HistogramMetric* match_delivery = nullptr;
  };
  RegistrySeries series_;

  bool enabled_ = true;
  const sim::Simulator* clock_ = nullptr;
  obs::MetricsRegistry* registry_ = nullptr;
  std::vector<std::array<std::uint64_t,
                         static_cast<std::size_t>(LoadComponent::kCount)>>
      per_node_;
  std::vector<std::uint64_t> work_per_node_;
  CategoryCounters mbr_;
  CategoryCounters query_;
  CategoryCounters response_;
  CategoryCounters neighbor_;
  CategoryCounters location_;
  CategoryCounters control_;
  CategoryCounters replication_;
  std::array<std::uint64_t, static_cast<std::size_t>(fault::DropCause::kCount)>
      drops_by_cause_{};
  RobustnessCounters robustness_;
  obs::LogHistogram match_delivery_ms_;
};

}  // namespace sdsi::core
