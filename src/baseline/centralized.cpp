#include "baseline/centralized.hpp"

namespace sdsi::baseline {

using routing::payload_of;

CentralizedSystem::CentralizedSystem(routing::RoutingSystem& routing,
                                     core::MiddlewareConfig config,
                                     NodeIndex center)
    : routing_(routing),
      config_(config),
      strategy_(core::IndexingStrategy::make(config.strategy, config.features,
                                             routing.id_space())),
      metrics_(routing.num_nodes()),
      center_(center) {
  SDSI_CHECK(center < routing.num_nodes());
  metrics_.set_clock(&routing_.simulator());
  routing_.set_metrics_hook(&metrics_);
  routing_.set_deliver([this](NodeIndex at, const routing::Message& msg) {
    on_deliver(at, msg);
  });
}

void CentralizedSystem::start() {
  SDSI_CHECK(!started_);
  started_ = true;
  sim::Simulator& sim = routing_.simulator();
  sim.schedule_periodic(sim.now() + config_.notify_period,
                        config_.notify_period, [this] { periodic_tick(); });
}

void CentralizedSystem::register_stream(NodeIndex node, StreamId stream) {
  const auto [it, inserted] = streams_.try_emplace(
      stream, std::make_unique<core::LocalStream>(stream, *strategy_,
                                                  config_.batching));
  SDSI_CHECK(inserted);
  stream_homes_[stream] = node;
}

void CentralizedSystem::post_stream_value(NodeIndex node, StreamId stream,
                                          Sample value) {
  const auto it = streams_.find(stream);
  SDSI_CHECK(it != streams_.end());
  SDSI_CHECK(stream_homes_[stream] == node);
  core::LocalStream& local = *it->second;
  std::vector<dsp::Mbr> closed;
  core::summarize_value(local, value, closed);
  // Everything goes to the center, point-routed at its ring id.
  const sim::SimTime now = routing_.simulator().now();
  for (dsp::Mbr& mbr : closed) {
    routing::Message msg;
    msg.kind = core::MsgKind::kMbrUpdate;
    msg.payload = std::make_shared<const core::MbrPayload>(
        core::MbrPayload{stream, node, std::move(mbr), local.batch_seq++,
                         now + config_.mbr_lifespan});
    routing_.send(node, routing_.node_id(center_), std::move(msg));
  }
}

core::QueryId CentralizedSystem::subscribe_similarity(
    NodeIndex client, dsp::FeatureVector features, double radius,
    sim::Duration lifespan) {
  const sim::SimTime now = routing_.simulator().now();
  const core::QueryId id = next_query_id_++;
  auto query = std::make_shared<const core::SimilarityQuery>(
      core::SimilarityQuery{id, client, std::move(features), radius, lifespan,
                            now});

  core::ClientQueryRecord record;
  record.id = id;
  record.client = client;
  record.issued_at = now;
  record.expires = now + lifespan;
  client_records_.emplace(id, std::move(record));

  routing::Message msg;
  msg.kind = core::MsgKind::kSimilarityQuery;
  msg.payload = std::make_shared<const core::SimilarityQueryPayload>(
      core::SimilarityQueryPayload{std::move(query),
                                   routing_.node_id(center_)});
  routing_.send(client, routing_.node_id(center_), std::move(msg));
  return id;
}

void CentralizedSystem::on_deliver(NodeIndex at, const routing::Message& msg) {
  const sim::SimTime now = routing_.simulator().now();
  switch (msg.kind) {
    case core::MsgKind::kMbrUpdate: {
      SDSI_CHECK(at == center_);
      const auto payload = payload_of<core::MbrPayload>(msg);
      store_.add_mbr(core::IndexStore::StoredMbr{
          payload->stream, payload->source, payload->mbr, payload->batch_seq,
          now, payload->expires});
      return;
    }
    case core::MsgKind::kSimilarityQuery: {
      SDSI_CHECK(at == center_);
      const auto payload = payload_of<core::SimilarityQueryPayload>(msg);
      const core::SimilarityQuery& query = *payload->query;
      store_.add_subscription(payload->query, routing_.node_id(center_),
                              query.issued_at + query.lifespan);
      return;
    }
    case core::MsgKind::kResponse: {
      const auto payload = payload_of<core::ResponsePayload>(msg);
      const auto it = client_records_.find(payload->query);
      if (it == client_records_.end()) {
        return;
      }
      ++it->second.responses_received;
      if (!it->second.first_response_at.has_value()) {
        it->second.first_response_at = now;
      }
      for (const core::SimilarityMatch& match : payload->matches) {
        it->second.matched_streams.insert(match.stream);
      }
      return;
    }
    default:
      SDSI_CHECK(false);
  }
}

void CentralizedSystem::periodic_tick() {
  const sim::SimTime now = routing_.simulator().now();
  store_.expire(now);
  for (core::SimilarityMatch& match : store_.match(now)) {
    const core::IndexStore::Subscription* sub =
        store_.find_subscription(match.query);
    SDSI_CHECK(sub != nullptr);
    core::AggregatorRecord& record = aggregations_[match.query];
    record.client = sub->query->client;
    record.expires = sub->expires;
    if (record.seen.insert(match.stream).second) {
      record.pending.push_back(std::move(match));
    }
  }
  for (auto it = aggregations_.begin(); it != aggregations_.end();) {
    core::AggregatorRecord& record = it->second;
    if (record.expires <= now) {
      it = aggregations_.erase(it);
      continue;
    }
    routing::Message msg;
    msg.kind = core::MsgKind::kResponse;
    msg.payload = std::make_shared<const core::ResponsePayload>(
        core::ResponsePayload{it->first, record.client, false,
                              std::move(record.pending), 0.0});
    record.pending.clear();
    routing_.send(center_, routing_.node_id(record.client), std::move(msg));
    ++it;
  }
}

const core::ClientQueryRecord* CentralizedSystem::client_record(
    core::QueryId id) const {
  const auto it = client_records_.find(id);
  return it == client_records_.end() ? nullptr : &it->second;
}

std::vector<double> CentralizedSystem::per_node_load(
    double measured_seconds) const {
  std::vector<double> load(routing_.num_nodes());
  for (NodeIndex node = 0; node < load.size(); ++node) {
    load[node] = static_cast<double>(metrics_.node_load_total(node)) /
                 measured_seconds;
  }
  return load;
}

}  // namespace sdsi::baseline
