#include "core/system.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/arc_sync.hpp"
#include "dsp/normalize.hpp"

namespace sdsi::core {

using routing::payload_of;

MiddlewareSystem::MiddlewareSystem(routing::RoutingSystem& routing,
                                   MiddlewareConfig config)
    : routing_(routing),
      config_(config),
      mapper_(routing.id_space()),
      metrics_(routing.num_nodes()),
      nodes_(routing.num_nodes()),
      rng_(common::RngFactory(config.rng_seed).make("middleware.jitter")) {
  config_.features.validate();
  strategy_ = IndexingStrategy::make(config_.strategy, config_.features,
                                     routing_.id_space());
  if (config_.overload.has_value()) {
    SDSI_CHECK(config_.overload->split_ways >= 1);
    SDSI_CHECK(config_.overload->forced_shed_rate >= 0.0 &&
               config_.overload->forced_shed_rate < 1.0);
    SDSI_CHECK(config_.overload->window > sim::Duration());
    hot_arc_ = HotArcDetector(config_.overload->detector, nodes_.size());
  }
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    nodes_[i].index = i;
  }
  metrics_.set_clock(&routing_.simulator());
  routing_.set_metrics_hook(&metrics_);
  routing_.set_deliver(
      [this](NodeIndex at, const Message& msg) { on_deliver(at, msg); });
}

void MiddlewareSystem::schedule_node(NodeIndex index, std::int64_t slot,
                                     std::int64_t slots) {
  // Each cadence starts slot/slots of its period late: data centers do not
  // share a clock.
  sim::Simulator& sim = routing_.simulator();
  const auto every = [&](sim::Duration period,
                         void (MiddlewareSystem::*body)(NodeIndex)) {
    const auto offset =
        sim::Duration::micros(period.count_micros() * slot / slots);
    sim.schedule_periodic(sim.now() + offset + period, period,
                          [this, index, body] { (this->*body)(index); });
  };
  every(config_.notify_period, &MiddlewareSystem::periodic_tick);
  if (config_.mbr_refresh_period > sim::Duration()) {
    every(config_.mbr_refresh_period, &MiddlewareSystem::refresh_node_mbrs);
  }
  if (replication_on() && config_.anti_entropy_period > sim::Duration()) {
    every(config_.anti_entropy_period, &MiddlewareSystem::anti_entropy_tick);
  }
}

void MiddlewareSystem::start() {
  SDSI_CHECK(!started_);
  started_ = true;
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    schedule_node(i, i, static_cast<std::int64_t>(nodes_.size()));
  }
  if (config_.overload.has_value()) {
    // One GLOBAL detector window (not per-node, not staggered): split and
    // merge decisions read every node's counter in one serial pass, so the
    // schedule is a pure function of the seed at any thread count.
    sim::Simulator& sim = routing_.simulator();
    sim.schedule_periodic(sim.now() + config_.overload->window,
                          config_.overload->window,
                          [this] { overload_tick(); });
  }
}

// --- The port ----------------------------------------------------------------

void MiddlewareSystem::send_to_key(NodeIndex from, Key key, MsgKind kind,
                                   std::any payload, bool reroute_on_dead) {
  Message msg;
  msg.kind = kind;
  msg.payload = std::move(payload);
  msg.reroute_on_dead = reroute_on_dead;
  routing_.send(from, key, std::move(msg));
}

void MiddlewareSystem::send_to_node(NodeIndex from, NodeIndex to, MsgKind kind,
                                    std::any payload, bool reroute_on_dead) {
  Message msg;
  msg.kind = kind;
  msg.payload = std::move(payload);
  msg.reroute_on_dead = reroute_on_dead;
  routing_.send_direct(from, to, std::move(msg));
}

void MiddlewareSystem::send_to_range(NodeIndex from, Key lo, Key hi,
                                     MsgKind kind, std::any payload,
                                     std::uint64_t trace_id) {
  Message msg;
  msg.kind = kind;
  msg.payload = std::move(payload);
  msg.trace_id = trace_id;
  msg.reroute_on_dead = replication_on();
  routing_.send_range(from, lo, hi, std::move(msg), config_.multicast);
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
    nodes_.emplace_back();
    nodes_.back().index = fresh;
    if (started_) {
      schedule_node(fresh, 0, 1);
    }
  }
  metrics_.ensure_nodes(nodes_.size());
}

void MiddlewareSystem::reset_node_soft_state(NodeIndex index) {
  MiddlewareNode& state = state_of(index);
  state.store = IndexStore{};
  state.aggregations.clear();
  state.outgoing_reports.clear();
  state.location_directory.clear();
  state.location_cache.clear();
  state.pending_inner_queries.clear();
  state.published_mbrs.clear();
  state.location_retry_attempts.clear();
  state.aggregation_replicas.clear();
  state.overload = MiddlewareNode::OverloadState{};
}

// --- Application primitives --------------------------------------------------

void MiddlewareSystem::register_stream(NodeIndex node, StreamId stream) {
  const bool inserted =
      state_of(node)
          .streams
          .try_emplace(stream, stream, *strategy_, config_.batching,
                       config_.adaptive_precision)
          .second;
  SDSI_CHECK(inserted);
  send_to_key(node, mapper_.key_for_stream(stream), MsgKind::kLocationPut,
              std::make_shared<const LocationPutPayload>(
                  LocationPutPayload{stream, node}));
}

void MiddlewareSystem::unregister_stream(NodeIndex node, StreamId stream) {
  MiddlewareNode& state = state_of(node);
  const auto it = state.streams.find(stream);
  SDSI_CHECK(it != state.streams.end());
  if (std::optional<dsp::Mbr> partial = it->second.batcher.flush()) {
    route_mbr(node, it->second, std::move(*partial));
  }
  state.streams.erase(it);
  send_to_key(node, mapper_.key_for_stream(stream), MsgKind::kLocationPut,
              std::make_shared<const LocationPutPayload>(
                  LocationPutPayload{stream, kInvalidNode}));  // tombstone
}

LocalStream::LocalStream(
    StreamId stream, const IndexingStrategy& strategy,
    MbrBatcher::Options batching,
    const std::optional<AdaptivePrecisionController::Options>&
        adaptive_precision)
    : id(stream),
      summarizer(strategy.make_summarizer()),
      precision(adaptive_precision),
      batcher([&] {
        if (precision.has_value()) {
          batching.mode = MbrBatcher::Mode::kAdaptive;
          batching.max_extent = precision->extent();
        }
        return batching;
      }()) {}

void summarize_value(LocalStream& local, Sample value,
                     std::vector<dsp::Mbr>& closed) {
  local.summarizer->push(value);
  if (!local.summarizer->features_into(local.features_scratch)) {
    return;  // window not full yet, or degenerate (constant) window
  }
  std::optional<dsp::Mbr> mbr = local.batcher.push(local.features_scratch);
  if (local.precision.has_value()) {
    local.batcher.set_max_extent(local.precision->observe(mbr.has_value()));
  }
  if (mbr.has_value()) {
    closed.push_back(std::move(*mbr));
  }
}

void MiddlewareSystem::post_stream_value(NodeIndex node, StreamId stream,
                                         Sample value) {
  MiddlewareNode& state = state_of(node);
  const auto it = state.streams.find(stream);
  SDSI_CHECK(it != state.streams.end());
  LocalStream& local = it->second;
  std::vector<dsp::Mbr> closed;
  summarize_value(local, value, closed);
  for (dsp::Mbr& mbr : closed) {
    route_mbr(node, local, std::move(mbr));
  }
}

void MiddlewareSystem::route_mbr(NodeIndex source, LocalStream& stream,
                                 dsp::Mbr mbr) {
  if (config_.overload.has_value() && config_.overload->publish_budget > 0) {
    MiddlewareNode::OverloadState& ov = nodes_[source].overload;
    if (ov.window_published >= config_.overload->publish_budget) {
      defer_publication(source, stream.id, std::move(mbr));
      return;
    }
    ++ov.window_published;
  }
  publish_mbr(source, stream, std::move(mbr));
}

void MiddlewareSystem::publish_mbr(NodeIndex source, LocalStream& stream,
                                   dsp::Mbr mbr) {
  const sim::SimTime now = routing_.simulator().now();
  // The strategy may return several ranges (multi-probe lsh); the first is
  // the primary, which alone drives acks, refresh, and replication mirrors.
  // For dft/ecm the set is exactly the paper's Eq. 6 interval.
  strategy_->key_map().mbr_ranges(mbr, range_scratch_);
  const auto [lo, hi] = range_scratch_.front();
  // The expiry instant is fixed HERE, once: retransmissions and refreshes
  // re-send the identical payload, so every replica stores the same entry
  // and redelivery stays idempotent.
  const sim::SimTime expires = now + config_.mbr_lifespan;
  const auto payload = std::make_shared<const MbrPayload>(MbrPayload{
      stream.id, source, std::move(mbr), stream.batch_seq++, expires});
  if (publish_hook_) {
    publish_hook_(*payload);
  }

  const IndexStore::StoredMbr entry{payload->stream, source, payload->mbr,
                                    payload->batch_seq, now, expires};
  const bool added = nodes_[source].store.add_mbr(entry);
  if (added) {
    note_node_work(source, 1);
  }
  // When the source itself owns the range's hi end, the routed copy will
  // dedup against this local store and handle_mbr never sees a first
  // store — mirror from here so the batch still reaches the replica set.
  if (added && replication_on() && covers_key(source, hi)) {
    mirror_mbr(source, entry);
  }

  // Allocate the publication's trace id up front so retries and refreshes
  // can re-use it (routing would otherwise mint a fresh one per send).
  const std::uint64_t trace_id = routing_.allocate_trace_id();
  send_to_range(source, lo, hi, MsgKind::kMbrUpdate, payload, trace_id);
  ++mbrs_routed_;

  // Extra probe ranges (multi-probe strategies; none for dft/ecm). Each
  // carries the same idempotent payload, so redundant landings dedup; they
  // are fire-and-forget — only the primary range is acked and refreshed.
  for (std::size_t i = 1; i < range_scratch_.size(); ++i) {
    send_to_range(source, range_scratch_[i].first, range_scratch_[i].second,
                  MsgKind::kMbrUpdate, payload);
  }

  if (config_.mbr_ack.enabled ||
      config_.mbr_refresh_period > sim::Duration()) {
    PublicationLedger::Publication& pub =
        nodes_[source].published_mbrs.track(payload, lo, hi, now);
    pub.trace_id = trace_id;
    if (config_.mbr_ack.enabled) {
      arm_mbr_retry(source, pub);
    }
  }
}

void MiddlewareSystem::emit_trace(obs::TraceEventKind event, NodeIndex node,
                                  StreamId stream, std::uint64_t seq,
                                  std::uint64_t trace_id) {
  obs::TraceSink* sink = routing_.trace_sink();
  if (sink == nullptr) {
    return;
  }
  obs::TraceRecord record;
  record.trace_id = trace_id;
  record.event = event;
  record.at_us = routing_.simulator().now().count_micros();
  record.node = node;
  // Only a publication's events carry a trace id, and they are its MBR's.
  record.kind = trace_id == 0 ? 0 : static_cast<int>(MsgKind::kMbrUpdate);
  record.stream = stream;
  record.batch_seq = seq;
  sink->record(record);
}

void MiddlewareSystem::note_mbr_ack(NodeIndex source, StreamId stream,
                                    std::uint64_t seq) {
  if (source >= nodes_.size()) {
    return;
  }
  const PublicationLedger::Publication* pub =
      nodes_[source].published_mbrs.ack(stream, seq);
  if (pub == nullptr) {
    return;
  }
  if (pub->attempts > 0) {
    emit_trace(obs::TraceEventKind::kHeal, source, stream, seq, pub->trace_id);
    metrics_.observe(
        &RobustnessCounters::heal_latency_ms, "heal.latency_ms",
        (routing_.simulator().now() - pub->first_sent).as_millis());
  }
  metrics_.count(&RobustnessCounters::mbr_acks, nullptr);
}

void MiddlewareSystem::arm_mbr_retry(NodeIndex source,
                                     PublicationLedger::Publication& pub) {
  const StreamId stream = pub.payload->stream;
  const std::uint64_t seq = pub.payload->batch_seq;
  pub.retry_timer = routing_.simulator().schedule_after(
      config_.mbr_ack.delay(pub.attempts, rng_),
      [this, source, stream, seq] { on_mbr_ack_timeout(source, stream, seq); });
}

void MiddlewareSystem::on_mbr_ack_timeout(NodeIndex source, StreamId stream,
                                          std::uint64_t seq) {
  if (!routing_.is_alive(source)) {
    return;  // a recovered source starts over via reset_node_soft_state
  }
  const auto [step, pub] = nodes_[source].published_mbrs.retry(
      stream, seq, routing_.simulator().now(), config_.mbr_ack);
  if (step == PublicationLedger::Retry::kSpent) {
    metrics_.count(&RobustnessCounters::mbr_retry_exhausted, nullptr);
  }
  if (step != PublicationLedger::Retry::kResend) {
    return;  // a spent budget leaves the soft-state refresh as the backstop
  }
  metrics_.count(&RobustnessCounters::mbr_retries, "heal.retries");
  emit_trace(obs::TraceEventKind::kRetry, source, stream, seq, pub->trace_id);
  send_to_range(source, pub->lo, pub->hi, MsgKind::kMbrUpdate, pub->payload,
                pub->trace_id);
  if (replication_on()) {
    // Hedged retry: a second multicast staggered past the mean burst
    // length, so a loss burst that swallows the retry no longer doubles the
    // heal time to another full timeout. Store dedup and idempotent acks
    // make the extra copy side-effect free (replicas mirror only on first
    // store), and hedges run only on the rare already-failed publications.
    routing_.simulator().schedule_after(
        sim::Duration::millis(150), [this, source, stream, seq] {
          if (!routing_.is_alive(source)) {
            return;
          }
          const PublicationLedger::Publication* pending =
              nodes_[source].published_mbrs.owed(stream, seq,
                                                 routing_.simulator().now());
          if (pending == nullptr) {
            return;
          }
          metrics_.count(nullptr, "heal.retry_hedges");
          send_to_range(source, pending->lo, pending->hi, MsgKind::kMbrUpdate,
                        pending->payload, pending->trace_id);
        });
  }
  arm_mbr_retry(source, *pub);
}

void MiddlewareSystem::refresh_node_mbrs(NodeIndex index) {
  if (!routing_.is_alive(index)) {
    return;
  }
  MiddlewareNode& state = nodes_[index];
  state.published_mbrs.refresh(
      routing_.simulator().now(),
      [&](const PublicationLedger::Publication& pub) {
        emit_trace(obs::TraceEventKind::kRefresh, index, pub.payload->stream,
                   pub.payload->batch_seq, pub.trace_id);
        send_to_range(index, pub.lo, pub.hi, MsgKind::kMbrUpdate, pub.payload,
                      pub.trace_id);
        metrics_.count(&RobustnessCounters::mbr_refreshes, "heal.refreshes");
      });
  // Heal the h2 directory too: the fragment holding one of our streams'
  // mappings may itself have crashed and lost the registration.
  for (const auto& [stream_id, local] : state.streams) {
    (void)local;
    send_to_key(index, mapper_.key_for_stream(stream_id),
                MsgKind::kLocationPut,
                std::make_shared<const LocationPutPayload>(
                    LocationPutPayload{stream_id, index}));
  }
}

QueryId MiddlewareSystem::subscribe_similarity(NodeIndex client,
                                               dsp::FeatureVector features,
                                               double radius,
                                               sim::Duration lifespan) {
  (void)state_of(client);
  SDSI_CHECK(radius >= 0.0);
  const sim::SimTime now = routing_.simulator().now();
  const QueryId id = next_query_id_++;

  auto query = std::make_shared<const SimilarityQuery>(SimilarityQuery{
      id, client, std::move(features), radius, lifespan, now});
  if (query_hook_) {
    query_hook_(query);
  }
  // Primary range first: its midpoint keys the aggregator, and the refresh
  // loop below re-sends it alone. Extra probe ranges (multi-probe lsh) are
  // installed once, fire-and-forget, after the primary send.
  strategy_->key_map().query_ranges(query->features, radius, range_scratch_);
  const auto [lo, hi] = range_scratch_.front();
  const Key middle = routing_.id_space().midpoint(lo, hi);
  const std::vector<std::pair<Key, Key>> probes(range_scratch_.begin() + 1,
                                                range_scratch_.end());

  ClientQueryRecord record;
  record.id = id;
  record.client = client;
  record.issued_at = now;
  record.expires = now + lifespan;
  client_records_.emplace(id, std::move(record));

  const auto payload = std::make_shared<const SimilarityQueryPayload>(
      SimilarityQueryPayload{std::move(query), middle});
  send_to_range(client, lo, hi, MsgKind::kSimilarityQuery, payload);
  for (const auto& [plo, phi] : probes) {
    send_to_range(client, plo, phi, MsgKind::kSimilarityQuery, payload);
  }

  if (config_.query_refresh_period > sim::Duration()) {
    // Soft state: periodically reinstall the subscription across the range
    // until the lifespan runs out.
    sim::Simulator& sim = routing_.simulator();
    const sim::SimTime expires = now + lifespan;
    auto handle = std::make_shared<sim::TaskHandle>();
    *handle = sim.schedule_periodic(
        sim.now() + config_.query_refresh_period,
        config_.query_refresh_period,
        [this, client, lo, hi, payload, expires, handle] {
          if (routing_.simulator().now() >= expires ||
              !routing_.is_alive(client)) {
            handle->cancel();
            return;
          }
          send_to_range(client, lo, hi, MsgKind::kSimilarityQuery, payload);
        });
  }
  return id;
}

QueryId MiddlewareSystem::subscribe_similarity_window(
    NodeIndex client, std::span<const Sample> window, double radius,
    sim::Duration lifespan) {
  return subscribe_similarity(
      client, strategy_->features_from_window(window), radius, lifespan);
}

QueryId MiddlewareSystem::subscribe_inner_product(
    NodeIndex client, StreamId stream, std::vector<double> index,
    std::vector<double> weights, sim::Duration lifespan) {
  (void)state_of(client);
  SDSI_CHECK(index.size() == weights.size());
  SDSI_CHECK(index.size() <= config_.features.window_size);
  const sim::SimTime now = routing_.simulator().now();
  const QueryId id = next_query_id_++;
  auto query = std::make_shared<const InnerProductQuery>(
      InnerProductQuery{id, client, stream, std::move(index),
                        std::move(weights), lifespan, now});

  ClientQueryRecord record;
  record.id = id;
  record.client = client;
  record.inner_product = true;
  record.issued_at = now;
  record.expires = now + lifespan;
  client_records_.emplace(id, std::move(record));

  MiddlewareNode& state = state_of(client);
  const auto cached = state.location_cache.find(stream);
  if (cached != state.location_cache.end()) {
    dispatch_inner_query(client, std::move(query), cached->second);
    return id;
  }
  const bool resolution_in_flight =
      state.pending_inner_queries.contains(stream);
  state.pending_inner_queries[stream].push_back(std::move(query));
  if (!resolution_in_flight) {
    send_to_key(client, mapper_.key_for_stream(stream), MsgKind::kLocationGet,
                std::make_shared<const LocationGetPayload>(
                    LocationGetPayload{stream, client}));
  }
  return id;
}

void MiddlewareSystem::dispatch_inner_query(
    NodeIndex client, std::shared_ptr<const InnerProductQuery> query,
    NodeIndex source) {
  send_to_key(client, routing_.node_id(source), MsgKind::kInnerProductQuery,
              std::make_shared<const InnerProductQueryPayload>(
                  InnerProductQueryPayload{std::move(query)}));
}

// --- Delivery dispatch --------------------------------------------------------

void MiddlewareSystem::on_deliver(NodeIndex at, const Message& msg) {
  switch (msg.kind) {
    case MsgKind::kMbrUpdate:
      handle_mbr(at, msg);
      return;
    case MsgKind::kSimilarityQuery:
      handle_similarity_query(at, msg);
      return;
    case MsgKind::kInnerProductQuery:
      handle_inner_query(at, msg);
      return;
    case MsgKind::kResponse:
      handle_response(at, msg);
      return;
    case MsgKind::kNeighborExchange:
      handle_neighbor_digest(at, msg);
      return;
    case MsgKind::kLocationPut:
      handle_location_put(at, msg);
      return;
    case MsgKind::kLocationGet:
      handle_location_get(at, msg);
      return;
    case MsgKind::kLocationReply:
      handle_location_reply(at, msg);
      return;
    case MsgKind::kMbrAck:
      handle_mbr_ack(at, msg);
      return;
    case MsgKind::kResponseAck:
      handle_response_ack(at, msg);
      return;
    case MsgKind::kReplicaPut:
      handle_replica_put(at, msg);
      return;
    case MsgKind::kHandoffRequest:
      handle_handoff_request(at, msg);
      return;
    case MsgKind::kAntiEntropyDigest:
      handle_anti_entropy_digest(at, msg);
      return;
    case MsgKind::kAntiEntropyRequest:
      handle_anti_entropy_request(at, msg);
      return;
    case MsgKind::kAggregatorReplica:
      handle_aggregator_replica(at, msg);
      return;
    case MsgKind::kHeartbeat:
      // Liveness beacons belong to the socket ring's failure detector
      // (net::NetNode); the sim middleware learns liveness from its
      // membership hooks instead, so a stray heartbeat is inert.
      return;
    case MsgKind::kInvalid:
      break;
  }
  SDSI_CHECK(false);
}

void MiddlewareSystem::handle_mbr(NodeIndex at, const Message& msg) {
  const auto payload = payload_of<MbrPayload>(msg);
  const sim::SimTime now = routing_.simulator().now();
  if (at != payload->source) {
    // Load shedding: a node past its per-window ingest budget (or under a
    // forced-shed experiment) refuses the store as an ACCOUNTED drop before
    // paying for dedup, indexing, or matching. Shed copies are not acked,
    // so an acked source treats them exactly like a lost transmission.
    if (config_.overload.has_value() && shed_ingest(at, msg)) {
      return;
    }
    MiddlewareNode& state = state_of(at);
    // Hot-arc splitting: while this node is hot, each arriving batch is
    // deterministically assigned to one member of the split group
    // (hash(stream, batch_seq) — seed- and thread-count-stable). Batches
    // owned by a delegate are forwarded via the idempotent kReplicaPut path
    // instead of being stored and matched here; the delegates hold mirrors
    // of this node's subscriptions, so the match still happens — elsewhere.
    if (config_.overload.has_value() &&
        !state.overload.split_delegates.empty()) {
      const NodeIndex target =
          divert_target(state, payload->stream, payload->batch_seq);
      if (target != kInvalidNode) {
        // Fall through to the ack below afterwards: the batch is durably on
        // its way to a split-group member, which is what the ack promises.
        divert_store(at, target,
                     IndexStore::StoredMbr{payload->stream, payload->source,
                                           payload->mbr, payload->batch_seq,
                                           now, payload->expires});
      } else {
        store_mbr_with_work(at, msg, *payload, now);
      }
    } else {
      store_mbr_with_work(at, msg, *payload, now);
    }
  }
  if (!config_.mbr_ack.enabled || msg.range_internal) {
    return;  // only the landing copy of a multicast acknowledges
  }
  if (at == payload->source) {
    note_mbr_ack(at, payload->stream, payload->batch_seq);
    return;
  }
  send_to_node(at, payload->source, MsgKind::kMbrAck,
               std::make_shared<const MbrAckPayload>(
                   MbrAckPayload{payload->stream, payload->batch_seq}),
               /*reroute_on_dead=*/false);
}

bool MiddlewareSystem::store_mbr_with_work(NodeIndex at, const Message& msg,
                                           const MbrPayload& payload,
                                           sim::SimTime now) {
  // The payload carries its absolute expiry, so a retransmitted or
  // refreshed copy stores exactly what the first delivery would have.
  const IndexStore::StoredMbr entry{payload.stream, payload.source,
                                    payload.mbr, payload.batch_seq, now,
                                    payload.expires};
  const bool added = state_of(at).store.add_mbr(entry);
  if (!added && payload.expires > now) {
    metrics_.count(&RobustnessCounters::duplicate_stores, nullptr);
  }
  if (added) {
    note_node_work(at, 1);
  }
  // Synchronous mirror: the key-range owner (the node covering the hi end)
  // pushes the freshly stored batch to its replica set. First store only —
  // refresh and retry redeliveries dedup above and never re-mirror.
  if (added && replication_on() && msg.has_range &&
      covers_key(at, msg.range_hi)) {
    mirror_mbr(at, entry);
  }
  return added;
}

void MiddlewareSystem::handle_mbr_ack(NodeIndex at, const Message& msg) {
  const auto payload = payload_of<MbrAckPayload>(msg);
  note_mbr_ack(at, payload->stream, payload->batch_seq);
}

void MiddlewareSystem::handle_response_ack(NodeIndex at, const Message& msg) {
  const auto payload = payload_of<ResponseAckPayload>(msg);
  MiddlewareNode& state = state_of(at);
  const auto it = state.aggregations.find(payload->query);
  if (it != state.aggregations.end()) {
    it->second.inflight.ack(payload->query, payload->push_seq);
  }
}

void MiddlewareSystem::handle_similarity_query(NodeIndex at,
                                               const Message& msg) {
  const auto payload = payload_of<SimilarityQueryPayload>(msg);
  const SimilarityQuery& query = *payload->query;
  MiddlewareNode& state = state_of(at);
  const bool fresh = state.store.find_subscription(query.id) == nullptr;
  state.store.add_subscription(payload->query, payload->middle_key,
                               query.issued_at + query.lifespan);
  if (fresh) {
    note_node_work(at, 1);
  } else if (config_.query_refresh_period > sim::Duration()) {
    // A refresh re-derives this node's reports: each pair has one
    // designated reporter, so a lost digest has no other node covering for
    // it. The aggregator's seen set and the client's matched set keep the
    // repeats invisible (the report-side twin of the MBR refresh).
    state.store.rescan_subscription(query.id);
  }
  // Mirror the subscription to the range owner's replica set on first
  // install (refresh redeliveries keep the original state and don't
  // re-mirror).
  if (fresh && replication_on() && msg.has_range &&
      covers_key(at, msg.range_hi)) {
    const IndexStore::Subscription* sub =
        state.store.find_subscription(query.id);
    if (sub != nullptr) {
      mirror_subscription(at, *sub);
    }
  }
  // While this node's arc is split, every new subscription must also reach
  // the delegates holding its diverted MBRs, or their stores would match
  // against a stale subscription set.
  if (fresh && config_.overload.has_value() &&
      !state.overload.split_delegates.empty()) {
    const IndexStore::Subscription* sub =
        state.store.find_subscription(query.id);
    if (sub != nullptr) {
      forward_subscription_to_delegates(at, *sub);
    }
  }
}

void MiddlewareSystem::handle_inner_query(NodeIndex at, const Message& msg) {
  const auto payload = payload_of<InnerProductQueryPayload>(msg);
  const InnerProductQuery& query = *payload->query;
  MiddlewareNode& state = state_of(at);
  const auto it = state.streams.find(query.stream);
  if (it == state.streams.end()) {
    return;  // stale location mapping (stream moved or was dropped)
  }
  it->second.inner_subscriptions.push_back(InnerProductSubscription{
      payload->query, query.issued_at + query.lifespan});
}

void MiddlewareSystem::handle_response(NodeIndex at, const Message& msg) {
  const auto payload = payload_of<ResponsePayload>(msg);
  if (payload->client != at) {
    // The client crashed and its arc changed hands: the response routed to
    // the new owner of the client's ring id. Nothing to do but drop it.
    return;
  }
  if (payload->aggregator != kInvalidNode && !payload->matches.empty()) {
    // Confirm match-bearing pushes even when the query record is gone: the
    // aggregator must stop retransmitting either way.
    send_to_node(at, payload->aggregator, MsgKind::kResponseAck,
                 std::make_shared<const ResponseAckPayload>(
                     ResponseAckPayload{payload->query, payload->push_seq}),
                 /*reroute_on_dead=*/false);
  }
  const auto it = client_records_.find(payload->query);
  if (it == client_records_.end()) {
    return;
  }
  ClientQueryRecord& record = it->second;
  ++record.responses_received;
  const sim::SimTime now = routing_.simulator().now();
  if (!record.first_response_at.has_value()) {
    record.first_response_at = now;
  }
  for (const SimilarityMatch& match : payload->matches) {
    // Content-level dedup: retransmitted pushes and doubly-aggregated
    // reports never inflate the match count.
    if (record.matched_streams.insert(match.stream).second) {
      ++record.match_events;
      metrics_.add_match_delivery((now - match.detected_at).as_millis());
    } else {
      ++record.duplicate_match_events;
    }
  }
  if (payload->inner_product) {
    record.last_inner_value = payload->inner_product_value;
    ++record.inner_updates;
  }
}

void MiddlewareSystem::handle_neighbor_digest(NodeIndex at,
                                              const Message& msg) {
  const auto payload = payload_of<NeighborDigestPayload>(msg);
  for (const MatchReport& report : payload->reports) {
    file_match_report(at, report);
  }
}

void MiddlewareSystem::handle_location_put(NodeIndex at, const Message& msg) {
  const auto payload = payload_of<LocationPutPayload>(msg);
  if (payload->source == kInvalidNode) {
    state_of(at).location_directory.erase(payload->stream);  // tombstone
  } else {
    state_of(at).location_directory[payload->stream] = payload->source;
  }
}

void MiddlewareSystem::handle_location_get(NodeIndex at, const Message& msg) {
  const auto payload = payload_of<LocationGetPayload>(msg);
  const auto& directory = state_of(at).location_directory;
  const auto entry = directory.find(payload->stream);
  const NodeIndex source =
      entry == directory.end() ? kInvalidNode : entry->second;

  send_to_key(at, routing_.node_id(payload->requester),
              MsgKind::kLocationReply,
              std::make_shared<const LocationReplyPayload>(
                  LocationReplyPayload{payload->stream, source}));
}

void MiddlewareSystem::retry_location_get(NodeIndex client, StreamId stream) {
  if (!routing_.is_alive(client)) {
    return;  // the querying data center is gone; let its state expire
  }
  MiddlewareNode& state = state_of(client);
  const auto pending = state.pending_inner_queries.find(stream);
  if (pending == state.pending_inner_queries.end()) {
    return;  // resolved or expired in the meantime
  }
  const auto cached = state.location_cache.find(stream);
  if (cached != state.location_cache.end()) {
    drain_inner_queries(client, stream, cached->second);
    return;
  }
  metrics_.count(&RobustnessCounters::location_retries, nullptr);
  send_to_key(client, mapper_.key_for_stream(stream), MsgKind::kLocationGet,
              std::make_shared<const LocationGetPayload>(
                  LocationGetPayload{stream, client}));
}

void MiddlewareSystem::drain_inner_queries(NodeIndex client, StreamId stream,
                                           NodeIndex source) {
  MiddlewareNode& state = state_of(client);
  state.location_retry_attempts.erase(stream);
  const auto pending = state.pending_inner_queries.find(stream);
  if (pending == state.pending_inner_queries.end()) {
    return;
  }
  std::vector<std::shared_ptr<const InnerProductQuery>> queries =
      std::move(pending->second);
  state.pending_inner_queries.erase(pending);
  for (auto& query : queries) {
    dispatch_inner_query(client, std::move(query), source);
  }
}

void MiddlewareSystem::handle_location_reply(NodeIndex at,
                                             const Message& msg) {
  const auto payload = payload_of<LocationReplyPayload>(msg);
  MiddlewareNode& state = state_of(at);
  auto pending = state.pending_inner_queries.find(payload->stream);
  if (payload->source == kInvalidNode) {
    // The directory does not know the stream (yet): its registration may
    // still be in flight through the overlay, or the stream is truly gone.
    // Keep the unexpired queries and retry after a notification period; the
    // pending set drains naturally once every query's lifespan passes.
    if (pending == state.pending_inner_queries.end()) {
      return;
    }
    const sim::SimTime now = routing_.simulator().now();
    std::erase_if(pending->second,
                  [now](const std::shared_ptr<const InnerProductQuery>& q) {
                    return q->issued_at + q->lifespan <= now;
                  });
    if (pending->second.empty()) {
      state.pending_inner_queries.erase(pending);
      return;
    }
    // Capped exponential backoff with jitter, not a flat notify_period:
    // repeated unknowns mean the registration is slow or its directory
    // fragment is down, so hammering the same key every period only adds
    // load where the failure is.
    const StreamId stream = payload->stream;
    const int attempts = state.location_retry_attempts[stream]++;
    RetryPolicy policy;
    policy.timeout = config_.notify_period;
    policy.max_backoff =
        sim::Duration::micros(config_.notify_period.count_micros() * 8);
    policy.jitter =
        sim::Duration::micros(config_.notify_period.count_micros() / 8);
    routing_.simulator().schedule_after(
        policy.delay(attempts, rng_),
        [this, at, stream] { retry_location_get(at, stream); });
    return;
  }
  state.location_cache[payload->stream] = payload->source;
  drain_inner_queries(at, payload->stream, payload->source);
}

// --- Periodic machinery --------------------------------------------------------

bool MiddlewareSystem::covers_key(NodeIndex node, Key key) const {
  const NodeIndex pred = routing_.predecessor_index(node);
  return routing_.id_space().in_half_open(key, routing_.node_id(pred),
                                          routing_.node_id(node));
}

void MiddlewareSystem::file_match_report(NodeIndex at, MatchReport report) {
  MiddlewareNode& state = state_of(at);
  if (covers_key(at, report.middle_key)) {
    AggregatorRecord& record = state.aggregations[report.match.query];
    record.client = report.client;
    record.middle_key = report.middle_key;
    record.expires = report.query_expires;
    if (record.seen.insert(report.match.stream).second) {
      record.pending.push_back(report.match);
      // Incremental aggregator replication: every freshly filed match is
      // mirrored to the middle key's replica set, so a replica can promote
      // itself without losing any client-visible match.
      if (replication_on()) {
        mirror_aggregation(at, report.match.query, record, report.middle_key,
                           report.match);
      }
    }
    return;
  }
  state.outgoing_reports.push_back(std::move(report));
}

bool MiddlewareSystem::designated_reporter(
    NodeIndex at, const IndexStore::StoredMbr& entry,
    const IndexStore::Subscription& sub) {
  // Every probe range counts: an lsh pair may meet only in a probe bucket.
  const ContentKeyMap& map = strategy_->key_map();
  map.mbr_ranges(entry.mbr, batch_ranges_);
  map.query_ranges(sub.query->features, sub.query->radius, query_ranges_);
  const std::optional<Key> point =
      nearest_overlap_key(batch_ranges_, query_ranges_, sub.middle_key);
  if (!point.has_value() || covers_key(at, *point)) {
    return true;
  }
  // A split delegate stands in for the hot node it serves: the batches
  // that node diverted here are stored nowhere else on its arc. Delegates
  // are the hot node's next live successors, which announced the split to
  // them with its subscription mirror.
  if (!config_.overload.has_value()) {
    return false;
  }
  NodeIndex owner = at;
  for (std::size_t hop = 1; hop < config_.overload->split_ways; ++hop) {
    owner = routing_.predecessor_index(owner);
    if (owner == at || owner >= nodes_.size()) {
      return false;
    }
    if (covers_key(owner, *point)) {
      const std::vector<NodeIndex>& delegates =
          nodes_[owner].overload.split_delegates;
      return std::find(delegates.begin(), delegates.end(), at) !=
             delegates.end();
    }
  }
  return false;
}

void MiddlewareSystem::send_report_digests(NodeIndex index, sim::SimTime now) {
  std::vector<MatchReport>& reports = nodes_[index].outgoing_reports;
  std::erase_if(reports, [now](const MatchReport& report) {
    return report.query_expires <= now;  // the query is gone
  });
  std::stable_sort(reports.begin(), reports.end(),
                   [](const MatchReport& a, const MatchReport& b) {
                     return a.middle_key < b.middle_key;
                   });
  for (auto first = reports.begin(); first != reports.end();) {
    const Key middle = first->middle_key;
    const auto last =
        std::find_if(first, reports.end(), [middle](const MatchReport& r) {
          return r.middle_key != middle;
        });
    // A middle node that died since the last stabilization round must not
    // swallow the digest: its successor inherits the key, and the reports.
    send_to_key(index, middle, MsgKind::kNeighborExchange,
                std::make_shared<const NeighborDigestPayload>(
                    NeighborDigestPayload{{std::make_move_iterator(first),
                                           std::make_move_iterator(last)}}),
                /*reroute_on_dead=*/true);
    first = last;
  }
  reports.clear();
}

void MiddlewareSystem::periodic_tick(NodeIndex index) {
  if (!routing_.is_alive(index)) {
    return;  // the data center crashed; its soft state dies with it
  }
  const sim::SimTime now = routing_.simulator().now();
  MiddlewareNode& state = nodes_[index];

  // The match pass runs first; it touches only this node's store. Credit
  // its scan cost plus one unit per candidate, reported or declined, to the
  // node's load.
  std::vector<SimilarityMatch> fresh = state.store.match(
      now, [this, index](const IndexStore::StoredMbr& entry,
                         const IndexStore::Subscription& sub) {
        return designated_reporter(index, entry, sub);
      });
  note_node_work(index, state.store.last_match_work() +
                            state.store.last_match_declined() +
                            static_cast<std::uint64_t>(fresh.size()));

  // -1. Aggregator failover: mirrors whose middle key now falls on this
  //     node's arc (the owner died) become live aggregations.
  if (!state.aggregation_replicas.empty()) {
    promote_aggregation_replicas(index, now);
  }

  // 0. Drop publication records whose batch lapsed (acked entries have no
  //    timer left to prune them otherwise).
  state.published_mbrs.drop_lapsed(now);

  // 1. File the candidates the match pass detected against the local index
  //    (Eq. 8 / MBR bound). match() advanced the store's expiry lanes
  //    itself, so no separate expire() sweep is needed here.
  for (SimilarityMatch& match : fresh) {
    const IndexStore::Subscription* sub =
        state.store.find_subscription(match.query);
    SDSI_CHECK(sub != nullptr);
    file_match_report(index,
                      MatchReport{std::move(match), sub->query->client,
                                  sub->middle_key, sub->expires});
  }

  // 2. Route the buffered reports to their aggregators.
  send_report_digests(index, now);

  // 3. Aggregators push periodic responses to their clients (Sec IV-F).
  //    With response acks on, match-bearing pushes wait in the record's
  //    ledger and are resent verbatim (same push_seq — the client's content
  //    dedup makes redelivery harmless) until acked or out of budget.
  for (auto it = state.aggregations.begin(); it != state.aggregations.end();) {
    AggregatorRecord& record = it->second;
    if (record.expires <= now) {
      it = state.aggregations.erase(it);
      continue;
    }
    record.inflight.resend_overdue(
        now, config_.response_ack,
        [&](const std::shared_ptr<const ResponsePayload>& push) {
          metrics_.count(&RobustnessCounters::response_retries, nullptr);
          send_to_key(index, routing_.node_id(record.client),
                      MsgKind::kResponse, push);
        });
    const bool track = config_.response_ack.enabled && !record.pending.empty();
    ResponsePayload push{it->first, record.client, false,
                         std::move(record.pending), 0.0,
                         config_.response_ack.enabled ? index : kInvalidNode,
                         0};
    record.pending.clear();
    send_to_key(index, routing_.node_id(record.client), MsgKind::kResponse,
                track ? record.inflight.track(std::move(push), now)
                      : std::make_shared<const ResponsePayload>(
                            std::move(push)));
    ++it;
  }

  // 4. Answer inner-product subscriptions from the local synopses
  //    (Eq. 7 reconstruction + weighted product, Sec IV-D).
  for (auto& [stream_id, local] : state.streams) {
    std::erase_if(local.inner_subscriptions,
                  [now](const InnerProductSubscription& sub) {
                    return sub.expires <= now;
                  });
    if (local.inner_subscriptions.empty()) {
      continue;
    }
    // Strategy-owned window approximation on the raw data scale: the dft
    // strategy reconstructs via Eq. 7 and undoes the normalization (the
    // synopsis-owning node knows the window mean and norm); ecm answers
    // from its exact raw ring.
    std::vector<Sample> approx;
    if (!local.summarizer->approx_window(approx)) {
      continue;
    }
    for (const InnerProductSubscription& sub : local.inner_subscriptions) {
      const double value = dsp::weighted_inner_product(
          approx, sub.query->index, sub.query->weights);
      send_to_key(index, routing_.node_id(sub.query->client),
                  MsgKind::kResponse,
                  std::make_shared<const ResponsePayload>(ResponsePayload{
                      sub.query->id, sub.query->client, true, {}, value}));
    }
  }
}

// --- Replication & failover ---------------------------------------------------

void MiddlewareSystem::mirror_mbr(NodeIndex at,
                                  const IndexStore::StoredMbr& entry) {
  ReplicaPutPayload put;
  put.mbrs.push_back(ReplicaMbrEntry{entry.stream, entry.source, entry.mbr,
                                     entry.batch_seq, entry.expires});
  mirror_put(at, std::move(put), entry.stream, entry.batch_seq);
}

void MiddlewareSystem::mirror_subscription(
    NodeIndex at, const IndexStore::Subscription& sub) {
  ReplicaPutPayload put;
  put.subscriptions.push_back(
      ReplicaSubscriptionEntry{sub.query, sub.middle_key, sub.expires});
  mirror_put(at, std::move(put), 0, sub.query->id);
}

void MiddlewareSystem::mirror_put(NodeIndex at, ReplicaPutPayload put,
                                  StreamId trace_stream,
                                  std::uint64_t trace_seq) {
  const std::vector<NodeIndex> replicas =
      routing_.successors(at, config_.replication_factor);
  if (replicas.empty()) {
    return;
  }
  put.from = at;
  const auto payload =
      std::make_shared<const ReplicaPutPayload>(std::move(put));
  for (const NodeIndex replica : replicas) {
    send_to_node(at, replica, MsgKind::kReplicaPut, payload, true);
    metrics_.count(&RobustnessCounters::replica_puts, "replication.puts");
  }
  emit_trace(obs::TraceEventKind::kReplicate, at, trace_stream, trace_seq);
}

void MiddlewareSystem::mirror_aggregation(NodeIndex at, QueryId query,
                                          const AggregatorRecord& record,
                                          Key middle_key,
                                          const SimilarityMatch& match) {
  const std::vector<NodeIndex> replicas =
      routing_.successors(at, config_.replication_factor);
  if (replicas.empty()) {
    return;
  }
  const auto payload = std::make_shared<const AggregatorReplicaPayload>(
      AggregatorReplicaPayload{query, record.client, middle_key,
                               record.expires, at, {match}});
  for (const NodeIndex replica : replicas) {
    send_to_node(at, replica, MsgKind::kAggregatorReplica, payload, true);
  }
}

void MiddlewareSystem::handle_replica_put(NodeIndex at, const Message& msg) {
  const auto payload = payload_of<ReplicaPutPayload>(msg);
  const AppliedPut applied = apply_replica_put(
      state_of(at).store, *payload, routing_.simulator().now());
  if (applied.added == 0) {
    return;  // everything deduplicated: redelivery is a no-op by design
  }
  note_node_work(at, applied.added);
  if (payload->repair) {
    metrics_.count(&RobustnessCounters::replica_repairs, "replication.repairs",
                   applied.added);
    emit_trace(obs::TraceEventKind::kRepair, at, applied.first_stream,
               applied.first_seq);
  } else if (payload->handoff) {
    emit_trace(obs::TraceEventKind::kHandoff, at, applied.first_stream,
               applied.first_seq);
  }
}

void MiddlewareSystem::handle_handoff_request(NodeIndex at,
                                              const Message& msg) {
  const auto payload = payload_of<HandoffRequestPayload>(msg);
  if (!routing_.is_alive(payload->requester)) {
    return;
  }
  ReplicaPutPayload put = arc_entries(
      state_of(at).store, strategy_->key_map(), routing_.id_space(),
      payload->lo, payload->hi, routing_.simulator().now());
  const std::size_t bytes = entry_bytes(put);
  const std::size_t entries =
      send_repair(at, payload->requester, std::move(put), /*handoff=*/true);
  if (entries == 0) {
    return;
  }
  metrics_.count(&RobustnessCounters::handoff_entries,
                 "replication.handoff_entries", entries);
  metrics_.count(&RobustnessCounters::handoff_bytes,
                 "replication.handoff_bytes", bytes);
  emit_trace(obs::TraceEventKind::kHandoff, at, 0, entries);
}

std::size_t MiddlewareSystem::send_repair(NodeIndex from, NodeIndex peer,
                                          ReplicaPutPayload put,
                                          bool handoff) {
  const std::size_t entries = entry_count(put);
  if (entries == 0) {
    return 0;
  }
  put.from = from;
  put.handoff = handoff;
  put.repair = !handoff;
  send_to_node(from, peer, MsgKind::kReplicaPut,
               std::make_shared<const ReplicaPutPayload>(std::move(put)),
               true);
  return entries;
}

void MiddlewareSystem::anti_entropy_tick(NodeIndex index) {
  if (!routing_.is_alive(index)) {
    return;
  }
  const std::vector<NodeIndex> replicas =
      routing_.successors(index, config_.replication_factor);
  if (replicas.empty()) {
    return;
  }
  // Digest of the OWNED arc only: replicas answer for what they mirror, the
  // owner answers for what it owns. An empty digest is still sent — it is
  // exactly how a recovered-empty owner learns what it lost (the peers push
  // the gap back as repair).
  AntiEntropyDigestPayload digest = arc_digest(
      nodes_[index].store, strategy_->key_map(), routing_.id_space(),
      routing_.node_id(routing_.predecessor_index(index)),
      routing_.node_id(index), routing_.simulator().now());
  digest.from = index;
  const auto payload =
      std::make_shared<const AntiEntropyDigestPayload>(std::move(digest));
  for (const NodeIndex replica : replicas) {
    send_to_node(index, replica, MsgKind::kAntiEntropyDigest, payload, true);
  }
}

void MiddlewareSystem::handle_anti_entropy_digest(NodeIndex at,
                                                  const Message& msg) {
  const auto payload = payload_of<AntiEntropyDigestPayload>(msg);
  if (!routing_.is_alive(payload->from)) {
    return;
  }
  const sim::SimTime now = routing_.simulator().now();
  IndexStore& store = state_of(at).store;

  // 1. What the owner holds that this replica misses: request backfill.
  AntiEntropyRequestPayload request = digest_gaps(store, *payload, now);
  if (!request.mbr_keys.empty() || !request.query_ids.empty()) {
    request.requester = at;
    send_to_node(
        at, payload->from, MsgKind::kAntiEntropyRequest,
        std::make_shared<const AntiEntropyRequestPayload>(std::move(request)),
        true);
  }

  // 2. What this replica holds on the owner's arc that the digest lacks:
  //    push it back as repair (heals an owner that recovered empty).
  send_repair(at, payload->from,
              arc_entries(store, strategy_->key_map(), routing_.id_space(),
                          payload->lo, payload->hi, now, payload.get()),
              /*handoff=*/false);
}

void MiddlewareSystem::handle_anti_entropy_request(NodeIndex at,
                                                   const Message& msg) {
  const auto payload = payload_of<AntiEntropyRequestPayload>(msg);
  if (!routing_.is_alive(payload->requester)) {
    return;
  }
  send_repair(
      at, payload->requester,
      backfill(state_of(at).store, *payload, routing_.simulator().now()),
      /*handoff=*/false);
}

void MiddlewareSystem::handle_aggregator_replica(NodeIndex at,
                                                 const Message& msg) {
  const auto payload = payload_of<AggregatorReplicaPayload>(msg);
  const sim::SimTime now = routing_.simulator().now();
  if (payload->expires <= now) {
    return;
  }
  MiddlewareNode& state = state_of(at);
  AggregationReplica& rep = state.aggregation_replicas[payload->query];
  rep.client = payload->client;
  rep.middle_key = payload->middle_key;
  rep.expires = payload->expires;
  for (const SimilarityMatch& match : payload->matches) {
    if (rep.seen.insert(match.stream).second) {
      rep.matches.push_back(match);
    }
  }
  rep.last_update = now;
}

void MiddlewareSystem::promote_aggregation_replicas(NodeIndex index,
                                                    sim::SimTime now) {
  MiddlewareNode& state = nodes_[index];
  for (auto it = state.aggregation_replicas.begin();
       it != state.aggregation_replicas.end();) {
    AggregationReplica& rep = it->second;
    if (rep.expires <= now) {
      it = state.aggregation_replicas.erase(it);
      continue;
    }
    // While the aggregator lives it covers its own middle key, so this is
    // false; once it dies and stabilization hands its arc to this node, the
    // mirror promotes.
    if (!covers_key(index, rep.middle_key)) {
      ++it;
      continue;
    }
    const QueryId query = it->first;
    AggregatorRecord& record = state.aggregations[query];
    record.client = rep.client;
    record.middle_key = rep.middle_key;
    record.expires = rep.expires;
    for (const SimilarityMatch& match : rep.matches) {
      if (record.seen.insert(match.stream).second) {
        record.pending.push_back(match);
      }
    }
    metrics_.count(&RobustnessCounters::aggregator_failovers,
                   "failover.promotions");
    metrics_.observe(&RobustnessCounters::failover_latency_ms,
                     "failover.latency_ms",
                     (now - rep.last_update).as_millis());
    emit_trace(obs::TraceEventKind::kFailover, index, 0, query);
    it = state.aggregation_replicas.erase(it);
  }
}

void MiddlewareSystem::handle_node_join(NodeIndex index) {
  if (!replication_on()) {
    return;
  }
  (void)state_of(index);
  if (!routing_.is_alive(index)) {
    return;
  }
  const NodeIndex succ = routing_.successor_index(index);
  if (succ == index) {
    return;  // alone on the ring: nothing to pull
  }
  send_to_node(index, succ, MsgKind::kHandoffRequest,
               std::make_shared<const HandoffRequestPayload>(
                   HandoffRequestPayload{
                       index,
                       routing_.node_id(routing_.predecessor_index(index)),
                       routing_.node_id(index)}),
               true);
  emit_trace(obs::TraceEventKind::kHandoff, index, 0, 0);
}

const ClientQueryRecord* MiddlewareSystem::client_record(QueryId id) const {
  const auto it = client_records_.find(id);
  return it == client_records_.end() ? nullptr : &it->second;
}

// --- Overload control --------------------------------------------------------

void MiddlewareSystem::note_node_work(NodeIndex node, std::uint64_t units) {
  if (units == 0) {
    return;
  }
  // The window counter feeds hot-arc detection and must run whenever the
  // overload layer is on — including warmup, when metrics are disabled.
  if (config_.overload.has_value() && node < nodes_.size()) {
    nodes_[node].overload.window_work += units;
  }
  metrics_.add_node_work(node, units);
}

bool MiddlewareSystem::shed_ingest(NodeIndex at, const Message& msg) {
  const OverloadOptions& opt = *config_.overload;
  MiddlewareNode::OverloadState& ov = state_of(at).overload;
  bool shed = false;
  if (opt.forced_shed_rate > 0.0) {
    // Deterministic fractional accumulator (no rng draw: the shed schedule
    // must be a pure function of the delivery sequence).
    ov.shed_accumulator += opt.forced_shed_rate;
    if (ov.shed_accumulator >= 1.0) {
      ov.shed_accumulator -= 1.0;
      shed = true;
    }
  }
  if (!shed && opt.ingest_capacity > 0 &&
      ov.window_ingest >= opt.ingest_capacity) {
    shed = true;
  }
  if (!shed) {
    ++ov.window_ingest;
    return false;
  }
  routing_.account_app_drop(fault::DropCause::kShedOverload, msg);
  metrics_.count(&RobustnessCounters::shed_mbrs, "overload.shed_mbrs");
  return true;
}

NodeIndex MiddlewareSystem::divert_target(const MiddlewareNode& state,
                                          StreamId stream,
                                          std::uint64_t batch_seq) const {
  const std::vector<NodeIndex>& delegates = state.overload.split_delegates;
  // Same mix as IndexStore::MbrKeyHash: the batch identity picks one owner
  // out of {self, delegates...} uniformly, and redeliveries (retries,
  // refreshes) of the same batch always pick the same owner — so the
  // idempotent dedup still works after a split.
  std::uint64_t h = stream * 0x9E3779B97F4A7C15ull;
  h ^= batch_seq + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  const std::uint64_t owner = h % (1 + delegates.size());
  return owner == 0 ? kInvalidNode : delegates[owner - 1];
}

void MiddlewareSystem::divert_store(NodeIndex at, NodeIndex target,
                                    const IndexStore::StoredMbr& entry) {
  const auto payload = std::make_shared<const ReplicaPutPayload>(
      ReplicaPutPayload{at,
                        {ReplicaMbrEntry{entry.stream, entry.source, entry.mbr,
                                         entry.batch_seq, entry.expires}},
                        {},
                        false,
                        false});
  send_to_node(at, target, MsgKind::kReplicaPut, payload, true);
  metrics_.count(&RobustnessCounters::split_diverted_stores,
                 "overload.diverted_stores");
}

void MiddlewareSystem::mirror_subscriptions_to_delegates(NodeIndex node) {
  MiddlewareNode& state = nodes_[node];
  const std::vector<NodeIndex>& delegates = state.overload.split_delegates;
  if (delegates.empty() || state.store.subscription_count() == 0) {
    return;
  }
  const sim::SimTime now = routing_.simulator().now();
  // Canonical ascending-id order (like the handoff path): the delegate's
  // store contents must not depend on this node's container history.
  std::vector<std::pair<QueryId, const IndexStore::Subscription*>> order;
  order.reserve(state.store.subscription_count());
  for (const auto& entry : state.store.subscriptions()) {
    if (entry.second.expires > now) {
      order.emplace_back(entry.first, &entry.second);
    }
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<ReplicaSubscriptionEntry> entries;
  entries.reserve(order.size());
  for (const auto& [id, sub] : order) {
    entries.push_back(
        ReplicaSubscriptionEntry{sub->query, sub->middle_key, sub->expires});
  }
  if (entries.empty()) {
    return;
  }
  const auto payload = std::make_shared<const ReplicaPutPayload>(
      ReplicaPutPayload{node, {}, std::move(entries), false, false});
  for (const NodeIndex delegate : delegates) {
    send_to_node(node, delegate, MsgKind::kReplicaPut, payload, true);
  }
}

void MiddlewareSystem::forward_subscription_to_delegates(
    NodeIndex node, const IndexStore::Subscription& sub) {
  const auto payload = std::make_shared<const ReplicaPutPayload>(
      ReplicaPutPayload{
          node,
          {},
          {ReplicaSubscriptionEntry{sub.query, sub.middle_key, sub.expires}},
          false,
          false});
  for (const NodeIndex delegate : nodes_[node].overload.split_delegates) {
    send_to_node(node, delegate, MsgKind::kReplicaPut, payload, true);
  }
}

void MiddlewareSystem::defer_publication(NodeIndex source, StreamId stream,
                                         dsp::Mbr mbr) {
  const OverloadOptions& opt = *config_.overload;
  MiddlewareNode::OverloadState& ov = nodes_[source].overload;
  ov.deferred.push_back(DeferredPublication{stream, std::move(mbr)});
  metrics_.count(&RobustnessCounters::backpressure_deferrals,
                 "overload.backpressure_deferrals");
  if (opt.defer_capacity > 0 && ov.deferred.size() > opt.defer_capacity) {
    // Queue overflow sheds the OLDEST deferred batch: its summary data is
    // the stalest, and FIFO draining means it would also be the last to
    // benefit from a budget refill. Never silent.
    ov.deferred.pop_front();
    account_overload_drop(source);
  }
}

void MiddlewareSystem::overload_tick() {
  const OverloadOptions& opt = *config_.overload;
  hot_arc_.ensure_nodes(nodes_.size());

  // Harvest + reset the window counters. Dead nodes report zero: they do no
  // work, and their stale counters must not distort the ring median.
  std::vector<std::uint64_t> work(nodes_.size(), 0);
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    MiddlewareNode::OverloadState& ov = nodes_[i].overload;
    if (routing_.is_alive(i)) {
      work[i] = ov.window_work;
    }
    ov.window_work = 0;
    ov.window_ingest = 0;
  }

  const HotArcDetector::Transitions transitions = hot_arc_.observe(work);
  for (const std::size_t node : transitions.split) {
    const auto index = static_cast<NodeIndex>(node);
    MiddlewareNode::OverloadState& ov = nodes_[index].overload;
    if (opt.split_ways > 1) {
      ov.split_delegates = routing_.successors(index, opt.split_ways - 1);
    }
    if (!ov.split_delegates.empty()) {
      // Delegates must hold this node's live subscriptions before any
      // diverted MBR lands, or diverted batches would match nothing there.
      mirror_subscriptions_to_delegates(index);
    }
    metrics_.count(&RobustnessCounters::hot_arc_splits, "overload.splits");
  }
  for (const std::size_t node : transitions.merge) {
    nodes_[node].overload.split_delegates.clear();
    metrics_.count(&RobustnessCounters::hot_arc_merges, "overload.merges");
  }

  // Refill publish budgets and drain the deferral queues FIFO, oldest batch
  // first (its batch_seq is assigned now, at actual publication).
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    MiddlewareNode::OverloadState& ov = nodes_[i].overload;
    ov.window_published = 0;
    if (ov.deferred.empty() || !routing_.is_alive(i)) {
      continue;
    }
    MiddlewareNode& state = nodes_[i];
    while (!ov.deferred.empty() &&
           (opt.publish_budget == 0 ||
            ov.window_published < opt.publish_budget)) {
      DeferredPublication next = std::move(ov.deferred.front());
      ov.deferred.pop_front();
      const auto it = state.streams.find(next.stream);
      if (it == state.streams.end()) {
        // The stream unregistered while its batch waited: nothing left to
        // publish under — account the loss rather than vanish it.
        account_overload_drop(i);
        continue;
      }
      ++ov.window_published;
      publish_mbr(i, it->second, std::move(next.mbr));
    }
  }
}

void MiddlewareSystem::account_overload_drop(NodeIndex origin) {
  // Backpressure drops happen before (queue overflow) or instead of (stream
  // teardown) a concrete Message existing, so a synthetic envelope carries
  // the attribution into the shared drop path — same counters, registry
  // series, and trace stream as every in-flight loss.
  Message synth;
  synth.kind = MsgKind::kMbrUpdate;
  synth.origin = origin;
  routing_.account_app_drop(fault::DropCause::kBackpressure, synth);
  metrics_.count(&RobustnessCounters::backpressure_drops, nullptr);
}

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
