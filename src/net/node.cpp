#include "net/node.hpp"

#include <algorithm>
#include <utility>

namespace sdsi::net {

using routing::MsgKind;
using routing::payload_of;

namespace {

/// The middleware configuration of one socket ring member.
core::MiddlewareConfig middleware_config(const NetNodeConfig& config) {
  core::MiddlewareConfig middleware;
  middleware.features = config.features;
  middleware.strategy = config.strategy;
  middleware.batching = config.batching;
  middleware.mbr_lifespan = config.mbr_lifespan;
  if (config.reliability.enabled) {
    middleware.mbr_ack = middleware.response_ack = kAckPolicy;
    middleware.query_refresh_period =
        sim::Duration::millis(config.reliability.refresh_period_ms);
    middleware.replication_factor = kReplication;
  }
  return middleware;
}

}  // namespace

NetNode::NetNode(const NetRing& ring, NodeIndex self, Transport& transport,
                 NetNodeConfig config)
    : config_(std::move(config)),
      middleware_(middleware_config(config_)),
      strategy_(core::IndexingStrategy::make(config_.strategy,
                                             config_.features, ring.space())),
      metrics_(ring.size()),
      detector_(config_.reliability.detector, ring.size(), self),
      routing_(clock_, ring, self, transport, detector_),
      node_(self, routing_, *this, middleware_, *strategy_, metrics_) {
  config_.features.validate();
  routing_.set_deliver(
      [this](NodeIndex, const routing::Message& msg) { node_.deliver(msg); });
}

NetNode::Counters NetNode::counters() const noexcept {
  const core::RobustnessCounters& events = metrics_.robustness();
  Counters counters = counters_;
  counters.send_failures = routing_.send_failures();
  counters.detours = routing_.dead_steps();
  counters.mbr_retransmits = events.mbr_retries;
  counters.mbr_refreshes = events.mbr_refreshes;
  counters.query_refreshes = events.query_refreshes;
  counters.response_retransmits = events.response_retries;
  counters.replica_puts_sent = events.replica_puts;
  return counters;
}

void NetNode::on_publish(const core::MbrPayload& /*payload*/) {
  ++counters_.mbrs_published;
}

void NetNode::on_response(const core::ResponsePayload& response) {
  if (response.inner_product) {
    if (inner_posed_.contains(response.query)) {
      inner_values_[response.query] = response.inner_product_value;
    }
    return;
  }
  const auto it = results_.find(response.query);
  if (it == results_.end()) {
    return;  // not a query this process posed
  }
  for (const core::SimilarityMatch& match : response.matches) {
    it->second.insert(match.stream);
  }
}

void NetNode::publish_value(StreamId stream, Sample value, sim::SimTime now) {
  clock_.run_until(now);
  if (!node_.streams.contains(stream)) {
    node_.register_stream(stream);
  }
  const std::size_t stored = node_.store.mbr_count();
  node_.post_stream_value(stream, value);
  counters_.mbrs_stored += node_.store.mbr_count() - stored;
}

void NetNode::subscribe_similarity(core::QueryId id,
                                   dsp::FeatureVector features, double radius,
                                   sim::Duration lifespan, sim::SimTime now) {
  clock_.run_until(now);
  results_.try_emplace(id);
  ++counters_.queries_posed;
  node_.subscribe_similarity(
      std::make_shared<const core::SimilarityQuery>(core::SimilarityQuery{
          id, node_.index, std::move(features), radius, lifespan,
          clock_.now()}));
}

void NetNode::subscribe_inner_product(core::QueryId id, StreamId stream,
                                      std::vector<double> index,
                                      std::vector<double> weights,
                                      sim::Duration lifespan,
                                      sim::SimTime now) {
  clock_.run_until(now);
  inner_posed_.insert(id);
  ++counters_.queries_posed;
  node_.subscribe_inner_product(
      std::make_shared<const core::InnerProductQuery>(core::InnerProductQuery{
          id, node_.index, stream, std::move(index), std::move(weights),
          lifespan, clock_.now()}));
}

void NetNode::tick(sim::SimTime now) {
  clock_.run_until(now);
  node_.periodic_tick();
}

void NetNode::deliver(routing::Message&& msg, sim::SimTime now) {
  clock_.run_until(now);
  detector_.observe_alive(msg.origin, clock_ms_);  // any frame is evidence
  if (!trusted(msg)) {
    ++counters_.shape_rejects;
    return;
  }
  if (msg.kind == MsgKind::kHeartbeat) {
    const auto& beat = *payload_of<core::HeartbeatPayload>(msg);
    detector_.observe_heartbeat(beat.from, beat.epoch, clock_ms_);
    ++counters_.heartbeats_received;
    return;
  }
  const MsgKind kind = msg.kind;
  const std::size_t stored = node_.store.mbr_count();
  routing_.receive(std::move(msg));
  if (kind == MsgKind::kMbrUpdate) {
    counters_.mbrs_stored += node_.store.mbr_count() - stored;
  } else if (kind == MsgKind::kResponseAck) {
    ++counters_.response_acks_received;
  }
}

bool NetNode::trusted(const routing::Message& msg) const {
  if (msg.has_range && msg.kind != MsgKind::kMbrUpdate &&
      msg.kind != MsgKind::kSimilarityQuery) {
    return false;  // only publications and subscriptions walk a range
  }
  const auto in = [this](NodeIndex node) {
    return node < routing_.num_nodes();
  };
  const auto in_or_none = [&](NodeIndex node) {
    return node == kInvalidNode || in(node);
  };
  const std::size_t coefficients = strategy_->coefficients();
  const auto mbr_ok = [&](const auto& batch) {  // MbrPayload or a put entry
    return in(batch.source) && batch.mbr.dimensions() == 2 * coefficients;
  };
  const auto query_ok = [&](const auto& query) {
    return in(query->client) && query->features.size() == coefficients;
  };
  switch (msg.kind) {
    case MsgKind::kMbrUpdate:
      return mbr_ok(*payload_of<core::MbrPayload>(msg));
    case MsgKind::kSimilarityQuery:
      return query_ok(payload_of<core::SimilarityQueryPayload>(msg)->query);
    case MsgKind::kInnerProductQuery: {
      const auto& ask = *payload_of<core::InnerProductQueryPayload>(msg)->query;
      return in(ask.client) && ask.index.size() == ask.weights.size() &&
             ask.index.size() <= config_.features.window_size;
    }
    case MsgKind::kResponse: {
      const auto& response = *payload_of<core::ResponsePayload>(msg);
      // kInvalidNode: a push that wants no ack.
      return in(response.client) && in_or_none(response.aggregator);
    }
    case MsgKind::kNeighborExchange:
      return std::ranges::all_of(
          payload_of<core::NeighborDigestPayload>(msg)->reports, in,
          &core::MatchReport::client);
    case MsgKind::kLocationPut:  // kInvalidNode: a tombstone
      return in_or_none(payload_of<core::LocationPutPayload>(msg)->source);
    case MsgKind::kLocationGet:
      return in(payload_of<core::LocationGetPayload>(msg)->requester);
    case MsgKind::kLocationReply:  // kInvalidNode: an unknown stream
      return in_or_none(payload_of<core::LocationReplyPayload>(msg)->source);
    case MsgKind::kReplicaPut: {
      const auto& put = *payload_of<core::ReplicaPutPayload>(msg);
      return in(put.from) && std::ranges::all_of(put.mbrs, mbr_ok) &&
             std::ranges::all_of(put.subscriptions, query_ok,
                                 &core::ReplicaSubscriptionEntry::query);
    }
    case MsgKind::kHandoffRequest:
      return in(payload_of<core::HandoffRequestPayload>(msg)->requester);
    case MsgKind::kAntiEntropyDigest:
      return in(payload_of<core::AntiEntropyDigestPayload>(msg)->from);
    case MsgKind::kAntiEntropyRequest:
      return in(payload_of<core::AntiEntropyRequestPayload>(msg)->requester);
    case MsgKind::kAggregatorReplica: {
      const auto& mirror = *payload_of<core::AggregatorReplicaPayload>(msg);
      return in(mirror.client) && in(mirror.owner);
    }
    case MsgKind::kHeartbeat:
      return in(payload_of<core::HeartbeatPayload>(msg)->from);
    case MsgKind::kMbrAck:
    case MsgKind::kResponseAck:
      return true;
    case MsgKind::kInvalid:
      break;
  }
  return false;
}

void NetNode::heartbeat_tick(std::int64_t now_ms, sim::SimTime now) {
  clock_.run_until(now);
  clock_ms_ = now_ms;
  if (!reliable()) {
    return;
  }
  detector_.advance(now_ms);
  const std::int64_t period = config_.reliability.detector.heartbeat_period_ms;
  if (last_heartbeat_ms_ >= 0 && now_ms - last_heartbeat_ms_ < period) {
    return;
  }
  last_heartbeat_ms_ = now_ms;
  routing::Message beat;
  beat.kind = MsgKind::kHeartbeat;
  beat.payload = std::make_shared<const core::HeartbeatPayload>(
      core::HeartbeatPayload{node_.index, config_.epoch, ++heartbeat_seq_});
  for (NodeIndex peer = 0; peer < routing_.num_nodes(); ++peer) {
    if (peer != node_.index) {  // dead peers too: a restart answers
      routing_.send_direct(node_.index, peer, beat);
      ++counters_.heartbeats_sent;
    }
  }
}

void NetNode::reliability_tick(std::int64_t now_ms, sim::SimTime now) {
  clock_.run_until(now);
  clock_ms_ = now_ms;
  if (!reliable()) {
    return;
  }
  if (now_ms - last_refresh_ms_ >= config_.reliability.refresh_period_ms) {
    last_refresh_ms_ = now_ms;
    ++counters_.refresh_rounds;
    node_.refresh_mbrs();
  }
  if (now_ms - last_anti_entropy_ms_ >= kAntiEntropyPeriodMs) {
    last_anti_entropy_ms_ = now_ms;
    ++counters_.anti_entropy_rounds;
    node_.anti_entropy_tick();
  }
}

void NetNode::request_handoff(sim::SimTime now) {
  clock_.run_until(now);
  if (reliable()) {
    node_.request_handoff();
  }
}

}  // namespace sdsi::net
