#include "core/metrics.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"

namespace sdsi::core {

LoadComponent component_of(const routing::Message& msg, bool transit) {
  switch (msg.kind) {
    case MsgKind::kInvalid:
      break;  // falls through to the abort below: never on a live message
    case MsgKind::kMbrUpdate:
      return transit ? LoadComponent::kMbrTransit
                     : (msg.range_internal ? LoadComponent::kMbrInternal
                                           : LoadComponent::kMbrSource);
    case MsgKind::kSimilarityQuery:
    case MsgKind::kInnerProductQuery:
    case MsgKind::kLocationPut:
    case MsgKind::kLocationGet:
    case MsgKind::kLocationReply:
      return LoadComponent::kQueries;  // "all query messages" (Fig 6a d)
    case MsgKind::kResponse:
      return transit ? LoadComponent::kResponsesTransit
                     : LoadComponent::kResponses;
    case MsgKind::kNeighborExchange:
      // A digest rides the overlay to its middle key: its two endpoints are
      // (f), the nodes relaying it on the way are (g).
      return transit ? LoadComponent::kResponsesTransit
                     : LoadComponent::kResponsesInternal;
    case MsgKind::kMbrAck:
    case MsgKind::kResponseAck:
    case MsgKind::kHeartbeat:
      return LoadComponent::kControl;
    case MsgKind::kReplicaPut:
    case MsgKind::kHandoffRequest:
    case MsgKind::kAntiEntropyDigest:
    case MsgKind::kAntiEntropyRequest:
    case MsgKind::kAggregatorReplica:
      return LoadComponent::kReplication;
  }
  SDSI_CHECK(false && "unknown MsgKind");
  return LoadComponent::kQueries;
}

MetricsCollector::MetricsCollector(std::size_t num_nodes)
    : per_node_(num_nodes), work_per_node_(num_nodes, 0) {}

void MetricsCollector::set_registry(obs::MetricsRegistry* registry) {
  registry_ = registry;
  series_ = RegistrySeries{};
  if (registry == nullptr) {
    return;
  }
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(LoadComponent::kCount); ++i) {
    const auto component = static_cast<LoadComponent>(i);
    series_.load[i] = &registry->counter(std::string("load.") +
                                         load_component_slug(component));
  }
  series_.load_total = &registry->counter("load.total");
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(fault::DropCause::kCount); ++i) {
    const auto cause = static_cast<fault::DropCause>(i);
    series_.drops[i] =
        &registry->counter(std::string("drops.") + fault::drop_cause_slug(cause));
  }
  series_.drops_total = &registry->counter("drops.total");
  series_.deliver_latency = &registry->histogram("latency.deliver_ms");
  series_.range_walk_latency = &registry->histogram("latency.range_walk_ms");
  series_.match_delivery = &registry->histogram("latency.match_delivery_ms");
}

void MetricsCollector::reset() {
  for (auto& counters : per_node_) {
    counters.fill(0);
  }
  std::fill(work_per_node_.begin(), work_per_node_.end(), 0);
  mbr_ = CategoryCounters{};
  query_ = CategoryCounters{};
  response_ = CategoryCounters{};
  neighbor_ = CategoryCounters{};
  location_ = CategoryCounters{};
  control_ = CategoryCounters{};
  replication_ = CategoryCounters{};
  drops_by_cause_.fill(0);
  robustness_ = RobustnessCounters{};
  match_delivery_ms_.reset();
}

CategoryCounters& MetricsCollector::category(const routing::Message& msg) {
  switch (msg.kind) {
    case MsgKind::kInvalid:
      break;
    case MsgKind::kMbrUpdate:
      return mbr_;
    case MsgKind::kSimilarityQuery:
    case MsgKind::kInnerProductQuery:
      return query_;
    case MsgKind::kResponse:
      return response_;
    case MsgKind::kNeighborExchange:
      return neighbor_;
    case MsgKind::kLocationPut:
    case MsgKind::kLocationGet:
    case MsgKind::kLocationReply:
      return location_;
    case MsgKind::kMbrAck:
    case MsgKind::kResponseAck:
    case MsgKind::kHeartbeat:
      return control_;
    case MsgKind::kReplicaPut:
    case MsgKind::kHandoffRequest:
    case MsgKind::kAntiEntropyDigest:
    case MsgKind::kAntiEntropyRequest:
    case MsgKind::kAggregatorReplica:
      return replication_;
  }
  SDSI_CHECK(false);
}

void MetricsCollector::add_node_load(NodeIndex node,
                                     const routing::Message& msg,
                                     bool transit) {
  if (node >= per_node_.size()) {
    return;
  }
  const LoadComponent component = component_of(msg, transit);
  ++per_node_[node][static_cast<std::size_t>(component)];
}

void MetricsCollector::on_send(NodeIndex from, const routing::Message& msg) {
  // Registry series deliberately run ahead of the warm-up gate: the
  // time-series view covers the whole run (set_registry has the rationale).
  if (registry_ != nullptr) {
    const auto c = static_cast<std::size_t>(component_of(msg, false));
    series_.load[c]->add();
    series_.load_total->add();
  }
  if (!enabled_) {
    return;
  }
  CategoryCounters& cat = category(msg);
  if (msg.range_internal) {
    ++cat.range_internal;
  } else {
    ++cat.originated;
  }
  add_node_load(from, msg, /*transit=*/false);
}

void MetricsCollector::on_transit(NodeIndex via, const routing::Message& msg) {
  if (registry_ != nullptr) {
    const auto c = static_cast<std::size_t>(component_of(msg, true));
    series_.load[c]->add();
    series_.load_total->add();
  }
  if (!enabled_) {
    return;
  }
  ++category(msg).transit;
  add_node_load(via, msg, /*transit=*/true);
}

void MetricsCollector::on_deliver(NodeIndex at, const routing::Message& msg) {
  if (registry_ != nullptr) {
    const auto c = static_cast<std::size_t>(component_of(msg, false));
    series_.load[c]->add();
    series_.load_total->add();
    if (clock_ != nullptr) {
      const double elapsed = (clock_->now() - msg.sent_at).as_millis();
      if (msg.range_internal) {
        series_.range_walk_latency->add(elapsed);
      } else {
        series_.deliver_latency->add(elapsed);
      }
    }
  }
  if (!enabled_) {
    return;
  }
  CategoryCounters& cat = category(msg);
  ++cat.delivered;
  if (msg.range_internal) {
    cat.hops_internal.add(static_cast<double>(msg.hops));
  } else {
    cat.hops_routed.add(static_cast<double>(msg.hops));
  }
  if (clock_ != nullptr) {
    const double elapsed = (clock_->now() - msg.sent_at).as_millis();
    if (msg.range_internal) {
      cat.range_latency_ms.add(elapsed);
    } else {
      cat.latency_ms.add(elapsed);
    }
  }
  add_node_load(at, msg, /*transit=*/false);
}

void MetricsCollector::on_drop(fault::DropCause cause,
                               const routing::Message& msg) {
  (void)msg;
  if (registry_ != nullptr) {
    series_.drops[static_cast<std::size_t>(cause)]->add();
    series_.drops_total->add();
  }
  if (!enabled_) {
    return;
  }
  ++drops_by_cause_[static_cast<std::size_t>(cause)];
}

void MetricsCollector::add_match_delivery(double ms) {
  if (registry_ != nullptr) {
    series_.match_delivery->add(ms);
  }
  if (enabled_) {
    match_delivery_ms_.add(ms);
  }
}

void MetricsCollector::count(std::uint64_t RobustnessCounters::*field,
                             const char* series, std::uint64_t n) {
  if (series != nullptr && registry_ != nullptr) {
    registry_->counter(series).add(static_cast<double>(n));
  }
  if (field != nullptr && enabled_) {
    robustness_.*field += n;
  }
}

void MetricsCollector::observe(obs::LogHistogram RobustnessCounters::*field,
                               const char* series, double ms) {
  if (series != nullptr && registry_ != nullptr) {
    registry_->histogram(series).add(ms);
  }
  if (field != nullptr && enabled_) {
    (robustness_.*field).add(ms);
  }
}

void MetricsCollector::on_detour(NodeIndex, const routing::Message&) {
  count(&RobustnessCounters::report_detours, "failover.detours");
}

void MetricsCollector::on_oracle_fallback(NodeIndex) {
  count(&RobustnessCounters::oracle_fallbacks, "chord.oracle_fallbacks");
}

std::uint64_t MetricsCollector::total_drops() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t count : drops_by_cause_) {
    total += count;
  }
  return total;
}

std::uint64_t MetricsCollector::node_load(NodeIndex node,
                                          LoadComponent component) const {
  SDSI_CHECK(node < per_node_.size());
  return per_node_[node][static_cast<std::size_t>(component)];
}

std::uint64_t MetricsCollector::node_load_total(NodeIndex node) const {
  SDSI_CHECK(node < per_node_.size());
  std::uint64_t total = 0;
  for (const std::uint64_t count : per_node_[node]) {
    total += count;
  }
  return total;
}

}  // namespace sdsi::core
