#include "core/system.hpp"

#include <algorithm>
#include <utility>

namespace sdsi::core {

MiddlewareSystem::MiddlewareSystem(routing::RoutingSystem& routing,
                                   MiddlewareConfig config)
    : routing_(routing),
      config_(config),
      metrics_(routing.num_nodes()),
      rng_(common::RngFactory(config.rng_seed).make("middleware.jitter")) {
  config_.features.validate();
  strategy_ = IndexingStrategy::make(config_.strategy, config_.features,
                                     routing_.id_space());
  if (config_.overload.has_value()) {
    SDSI_CHECK(config_.overload->forced_shed_rate >= 0.0 &&
               config_.overload->forced_shed_rate < 1.0);
    SDSI_CHECK(config_.overload->window > sim::Duration());
  }
  for (NodeIndex i = 0; i < routing.num_nodes(); ++i) {
    nodes_.emplace_back(i, routing_, static_cast<NodeHost&>(*this), config_,
                        *strategy_, metrics_, rng_);
  }
  metrics_.set_clock(&routing_.simulator());
  routing_.set_metrics_hook(&metrics_);
  routing_.set_deliver([this](NodeIndex at, const routing::Message& msg) {
    state_of(at).deliver(msg);
  });
}

void MiddlewareSystem::schedule_node(NodeIndex index, std::int64_t slot,
                                     std::int64_t slots) {
  // Each cadence starts slot/slots of its period late: data centers do not
  // share a clock.
  sim::Simulator& sim = routing_.simulator();
  MiddlewareNode& node = nodes_[index];
  const auto every = [&](sim::Duration period,
                         void (MiddlewareNode::*body)()) {
    const auto offset =
        sim::Duration::micros(period.count_micros() * slot / slots);
    sim.schedule_periodic(sim.now() + offset + period, period,
                          [&node, body] { (node.*body)(); });
  };
  every(config_.notify_period, &MiddlewareNode::periodic_tick);
  if (config_.mbr_refresh_period > sim::Duration()) {
    every(config_.mbr_refresh_period, &MiddlewareNode::refresh_mbrs);
  }
  if (config_.replication_factor > 0 &&
      config_.anti_entropy_period > sim::Duration()) {
    every(config_.anti_entropy_period, &MiddlewareNode::anti_entropy_tick);
  }
}

void MiddlewareSystem::schedule_overload_window(NodeIndex index) {
  if (!config_.overload.has_value()) {
    return;
  }
  sim::Simulator& sim = routing_.simulator();
  const sim::Duration window = config_.overload->window;
  const std::int64_t passed =
      (sim.now() - start_time_).count_micros() / window.count_micros();
  MiddlewareNode& node = nodes_[index];
  sim.schedule_periodic(start_time_ + window * (passed + 1), window,
                        [&node] { node.overload_window(); });
}

void MiddlewareSystem::start() {
  SDSI_CHECK(!started_);
  started_ = true;
  start_time_ = routing_.simulator().now();
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    schedule_node(i, i, static_cast<std::int64_t>(nodes_.size()));
  }
  // Scheduled after every cadence: where a cadence falls on the windows'
  // grid, it runs first, and the windows of one instant run in node order.
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    schedule_overload_window(i);
  }
}

MiddlewareNode& MiddlewareSystem::state_of(NodeIndex index) {
  if (index >= nodes_.size()) {
    attach_node(index);
  }
  return nodes_[index];
}

void MiddlewareSystem::attach_node(NodeIndex index) {
  while (nodes_.size() <= index) {
    const auto fresh = static_cast<NodeIndex>(nodes_.size());
    nodes_.emplace_back(fresh, routing_, static_cast<NodeHost&>(*this),
                        config_, *strategy_, metrics_, rng_);
    if (started_) {
      schedule_node(fresh, 0, 1);
      schedule_overload_window(fresh);
    }
  }
  metrics_.ensure_nodes(nodes_.size());
}

// --- Application primitives --------------------------------------------------

QueryId MiddlewareSystem::subscribe_similarity(NodeIndex client,
                                               dsp::FeatureVector features,
                                               double radius,
                                               sim::Duration lifespan) {
  MiddlewareNode& node = state_of(client);
  SDSI_CHECK(radius >= 0.0);
  const sim::SimTime now = routing_.simulator().now();
  const QueryId id = next_query_id_++;

  auto query = std::make_shared<const SimilarityQuery>(SimilarityQuery{
      id, client, std::move(features), radius, lifespan, now});
  if (query_hook_) {
    query_hook_(query);
  }
  ClientQueryRecord record;
  record.id = id;
  record.client = client;
  record.issued_at = now;
  record.expires = now + lifespan;
  client_records_.emplace(id, std::move(record));
  node.subscribe_similarity(std::move(query));
  return id;
}

QueryId MiddlewareSystem::subscribe_inner_product(
    NodeIndex client, StreamId stream, std::vector<double> index,
    std::vector<double> weights, sim::Duration lifespan) {
  MiddlewareNode& node = state_of(client);
  SDSI_CHECK(index.size() == weights.size());
  SDSI_CHECK(index.size() <= config_.features.window_size);
  const sim::SimTime now = routing_.simulator().now();
  const QueryId id = next_query_id_++;

  ClientQueryRecord record;
  record.id = id;
  record.client = client;
  record.inner_product = true;
  record.issued_at = now;
  record.expires = now + lifespan;
  client_records_.emplace(id, std::move(record));
  node.subscribe_inner_product(std::make_shared<const InnerProductQuery>(
      InnerProductQuery{id, client, stream, std::move(index),
                        std::move(weights), lifespan, now}));
  return id;
}

void MiddlewareSystem::handle_node_join(NodeIndex index) {
  if (config_.replication_factor == 0) {
    return;
  }
  MiddlewareNode& node = state_of(index);
  if (routing_.is_alive(index)) {
    node.request_handoff();
  }
}

// --- NodeHost ----------------------------------------------------------------

void MiddlewareSystem::on_publish(const MbrPayload& payload) {
  ++mbrs_routed_;
  if (publish_hook_) {
    publish_hook_(payload);
  }
}

void MiddlewareSystem::on_response(const ResponsePayload& response) {
  const auto it = client_records_.find(response.query);
  if (it == client_records_.end()) {
    return;
  }
  ClientQueryRecord& record = it->second;
  ++record.responses_received;
  const sim::SimTime now = routing_.simulator().now();
  if (!record.first_response_at.has_value()) {
    record.first_response_at = now;
  }
  for (const SimilarityMatch& match : response.matches) {
    // Content-level dedup: retransmitted pushes and doubly-aggregated
    // reports never inflate the match count.
    if (record.matched_streams.insert(match.stream).second) {
      ++record.match_events;
      metrics_.add_match_delivery((now - match.detected_at).as_millis());
    } else {
      ++record.duplicate_match_events;
    }
  }
  if (response.inner_product) {
    record.last_inner_value = response.inner_product_value;
    ++record.inner_updates;
  }
}

// --- Overload control --------------------------------------------------------

double MiddlewareSystem::ingest_backpressure(NodeIndex node) const {
  if (!config_.overload.has_value() || node >= nodes_.size() ||
      config_.overload->defer_capacity == 0) {
    return 0.0;
  }
  const double fill =
      static_cast<double>(nodes_[node].overload.deferred.size()) /
      static_cast<double>(config_.overload->defer_capacity);
  return std::min(1.0, fill);
}

}  // namespace sdsi::core
