#include "core/node.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/arc_sync.hpp"
#include "core/mapper.hpp"
#include "dsp/normalize.hpp"

namespace sdsi::core {

using routing::payload_of;

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

MiddlewareNode::MiddlewareNode(NodeIndex self, routing::RoutingSystem& routing,
                               NodeHost& host, const MiddlewareConfig& config,
                               const IndexingStrategy& strategy,
                               MetricsCollector& metrics, common::Pcg32& rng)
    : index(self),
      routing_(routing),
      host_(host),
      config_(config),
      strategy_(strategy),
      metrics_(metrics),
      rng_(rng) {}

// --- Sends -------------------------------------------------------------------

void MiddlewareNode::send_to_key(Key key, MsgKind kind, std::any payload,
                                 bool reroute_on_dead) {
  Message msg;
  msg.kind = kind;
  msg.payload = std::move(payload);
  msg.reroute_on_dead = reroute_on_dead;
  routing_.send(index, key, std::move(msg));
}

void MiddlewareNode::send_to_node(NodeIndex to, MsgKind kind, std::any payload,
                                  bool reroute_on_dead) {
  Message msg;
  msg.kind = kind;
  msg.payload = std::move(payload);
  msg.reroute_on_dead = reroute_on_dead;
  routing_.send_direct(index, to, std::move(msg));
}

void MiddlewareNode::send_to_range(Key lo, Key hi, MsgKind kind,
                                   std::any payload, std::uint64_t trace_id) {
  Message msg;
  msg.kind = kind;
  msg.payload = std::move(payload);
  msg.trace_id = trace_id;
  msg.reroute_on_dead = replication_on();
  routing_.send_range(index, lo, hi, std::move(msg), config_.multicast);
}

void MiddlewareNode::reset_soft_state() {
  store = IndexStore{};
  aggregations.clear();
  outgoing_reports.clear();
  location_directory.clear();
  location_cache.clear();
  pending_inner_queries.clear();
  published_mbrs.clear();
  location_retry_attempts.clear();
  aggregation_replicas.clear();
  overload = OverloadState{};
}

// --- Application primitives --------------------------------------------------

void MiddlewareNode::register_stream(StreamId stream) {
  const bool inserted =
      streams
          .try_emplace(stream, stream, strategy_, config_.batching,
                       config_.adaptive_precision)
          .second;
  SDSI_CHECK(inserted);
  send_to_key(key_for_stream(routing_.id_space(), stream),
              MsgKind::kLocationPut,
              std::make_shared<const LocationPutPayload>(
                  LocationPutPayload{stream, index}));
}

void MiddlewareNode::unregister_stream(StreamId stream) {
  const auto it = streams.find(stream);
  SDSI_CHECK(it != streams.end());
  if (std::optional<dsp::Mbr> partial = it->second.batcher.flush()) {
    route_mbr(it->second, std::move(*partial));
  }
  streams.erase(it);
  send_to_key(key_for_stream(routing_.id_space(), stream),
              MsgKind::kLocationPut,
              std::make_shared<const LocationPutPayload>(
                  LocationPutPayload{stream, kInvalidNode}));  // tombstone
}

void MiddlewareNode::post_stream_value(StreamId stream, Sample value) {
  const auto it = streams.find(stream);
  SDSI_CHECK(it != streams.end());
  LocalStream& local = it->second;
  std::vector<dsp::Mbr> closed;
  summarize_value(local, value, closed);
  for (dsp::Mbr& mbr : closed) {
    route_mbr(local, std::move(mbr));
  }
}

void MiddlewareNode::route_mbr(LocalStream& stream, dsp::Mbr mbr) {
  if (config_.overload.has_value() && config_.overload->publish_budget > 0) {
    if (overload.window_published >= config_.overload->publish_budget) {
      defer_publication(stream.id, std::move(mbr));
      return;
    }
    ++overload.window_published;
  }
  publish_mbr(stream, std::move(mbr));
}

void MiddlewareNode::publish_mbr(LocalStream& stream, dsp::Mbr mbr) {
  const sim::SimTime now = routing_.simulator().now();
  // The strategy may return several ranges (multi-probe lsh); the first is
  // the primary, which alone drives acks, refresh, and replication mirrors.
  // For dft/ecm the set is exactly the paper's Eq. 6 interval.
  strategy_.key_map().mbr_ranges(mbr, range_scratch_);
  const auto [lo, hi] = range_scratch_.front();
  // The expiry instant is fixed HERE, once: retransmissions and refreshes
  // re-send the identical payload, so every replica stores the same entry
  // and redelivery stays idempotent.
  const sim::SimTime expires = now + config_.mbr_lifespan;
  const auto payload = std::make_shared<const MbrPayload>(MbrPayload{
      stream.id, index, std::move(mbr), stream.batch_seq++, expires});
  host_.on_publish(*payload);

  const IndexStore::StoredMbr entry{payload->stream, index, payload->mbr,
                                    payload->batch_seq, now, expires};
  const bool added = store.add_mbr(entry);
  if (added) {
    metrics_.add_node_work(index, 1);
  }
  // When the source itself owns the range's hi end, the routed copy will
  // dedup against this local store and handle_mbr never sees a first
  // store — mirror from here so the batch still reaches the replica set.
  if (added && replication_on() && covers_key(index, hi)) {
    mirror_mbr(entry);
  }

  // Allocate the publication's trace id up front so retries and refreshes
  // can re-use it (routing would otherwise mint a fresh one per send).
  const std::uint64_t trace_id = routing_.allocate_trace_id();
  send_to_range(lo, hi, MsgKind::kMbrUpdate, payload, trace_id);

  // Extra probe ranges (multi-probe strategies; none for dft/ecm). Each
  // carries the same idempotent payload, so redundant landings dedup; they
  // are fire-and-forget — only the primary range is acked and refreshed.
  for (std::size_t i = 1; i < range_scratch_.size(); ++i) {
    send_to_range(range_scratch_[i].first, range_scratch_[i].second,
                  MsgKind::kMbrUpdate, payload);
  }

  if (config_.mbr_ack.enabled ||
      config_.mbr_refresh_period > sim::Duration()) {
    PublicationLedger::Publication& pub =
        published_mbrs.track(payload, lo, hi, now);
    pub.trace_id = trace_id;
    if (config_.mbr_ack.enabled) {
      arm_mbr_retry(pub);
    }
  }
}

void MiddlewareNode::emit_trace(obs::TraceEventKind event, StreamId stream,
                                std::uint64_t seq, std::uint64_t trace_id) {
  obs::TraceSink* sink = routing_.trace_sink();
  if (sink == nullptr) {
    return;
  }
  obs::TraceRecord record;
  record.trace_id = trace_id;
  record.event = event;
  record.at_us = routing_.simulator().now().count_micros();
  record.node = index;
  // Only a publication's events carry a trace id, and they are its MBR's.
  record.kind = trace_id == 0 ? 0 : static_cast<int>(MsgKind::kMbrUpdate);
  record.stream = stream;
  record.batch_seq = seq;
  sink->record(record);
}

void MiddlewareNode::note_mbr_ack(StreamId stream, std::uint64_t seq) {
  const PublicationLedger::Publication* pub = published_mbrs.ack(stream, seq);
  if (pub == nullptr) {
    return;
  }
  if (pub->attempts > 0) {
    emit_trace(obs::TraceEventKind::kHeal, stream, seq, pub->trace_id);
    metrics_.observe(
        &RobustnessCounters::heal_latency_ms, "heal.latency_ms",
        (routing_.simulator().now() - pub->first_sent).as_millis());
  }
  metrics_.count(&RobustnessCounters::mbr_acks, nullptr);
}

void MiddlewareNode::arm_mbr_retry(PublicationLedger::Publication& pub) {
  const StreamId stream = pub.payload->stream;
  const std::uint64_t seq = pub.payload->batch_seq;
  pub.retry_timer = routing_.simulator().schedule_after(
      config_.mbr_ack.delay(pub.attempts, rng_),
      [this, stream, seq] { on_mbr_ack_timeout(stream, seq); });
}

void MiddlewareNode::on_mbr_ack_timeout(StreamId stream, std::uint64_t seq) {
  if (!routing_.is_alive(index)) {
    return;  // a recovered source starts over via reset_soft_state
  }
  const auto [step, pub] = published_mbrs.retry(
      stream, seq, routing_.simulator().now(), config_.mbr_ack);
  if (step == PublicationLedger::Retry::kSpent) {
    metrics_.count(&RobustnessCounters::mbr_retry_exhausted, nullptr);
  }
  if (step != PublicationLedger::Retry::kResend) {
    return;  // a spent budget leaves the soft-state refresh as the backstop
  }
  metrics_.count(&RobustnessCounters::mbr_retries, "heal.retries");
  emit_trace(obs::TraceEventKind::kRetry, stream, seq, pub->trace_id);
  send_to_range(pub->lo, pub->hi, MsgKind::kMbrUpdate, pub->payload,
                pub->trace_id);
  if (replication_on()) {
    // Hedged retry: a second multicast staggered past the mean burst
    // length, so a loss burst that swallows the retry no longer doubles the
    // heal time to another full timeout. Store dedup and idempotent acks
    // make the extra copy side-effect free (replicas mirror only on first
    // store), and hedges run only on the rare already-failed publications.
    routing_.simulator().schedule_after(
        sim::Duration::millis(150), [this, stream, seq] {
          if (!routing_.is_alive(index)) {
            return;
          }
          const PublicationLedger::Publication* pending =
              published_mbrs.owed(stream, seq, routing_.simulator().now());
          if (pending == nullptr) {
            return;
          }
          metrics_.count(nullptr, "heal.retry_hedges");
          send_to_range(pending->lo, pending->hi, MsgKind::kMbrUpdate,
                        pending->payload, pending->trace_id);
        });
  }
  arm_mbr_retry(*pub);
}

void MiddlewareNode::refresh_mbrs() {
  if (!routing_.is_alive(index)) {
    return;
  }
  published_mbrs.refresh(
      routing_.simulator().now(),
      [&](const PublicationLedger::Publication& pub) {
        emit_trace(obs::TraceEventKind::kRefresh, pub.payload->stream,
                   pub.payload->batch_seq, pub.trace_id);
        send_to_range(pub.lo, pub.hi, MsgKind::kMbrUpdate, pub.payload,
                      pub.trace_id);
        metrics_.count(&RobustnessCounters::mbr_refreshes, "heal.refreshes");
      });
  // Heal the h2 directory too: the fragment holding one of our streams'
  // mappings may itself have crashed and lost the registration.
  for (const auto& [stream_id, local] : streams) {
    (void)local;
    send_to_key(key_for_stream(routing_.id_space(), stream_id),
                MsgKind::kLocationPut,
                std::make_shared<const LocationPutPayload>(
                    LocationPutPayload{stream_id, index}));
  }
}

void MiddlewareNode::subscribe_similarity(
    std::shared_ptr<const SimilarityQuery> query) {
  // Primary range first: its midpoint keys the aggregator, and the refresh
  // loop below re-sends it alone. Extra probe ranges (multi-probe lsh) are
  // installed once, fire-and-forget, after the primary send.
  strategy_.key_map().query_ranges(query->features, query->radius,
                                   range_scratch_);
  const auto [lo, hi] = range_scratch_.front();
  const Key middle = routing_.id_space().midpoint(lo, hi);
  const std::vector<std::pair<Key, Key>> probes(range_scratch_.begin() + 1,
                                                range_scratch_.end());
  const sim::SimTime expires = query->issued_at + query->lifespan;
  const auto payload = std::make_shared<const SimilarityQueryPayload>(
      SimilarityQueryPayload{std::move(query), middle});
  send_to_range(lo, hi, MsgKind::kSimilarityQuery, payload);
  for (const auto& [plo, phi] : probes) {
    send_to_range(plo, phi, MsgKind::kSimilarityQuery, payload);
  }

  if (config_.query_refresh_period > sim::Duration()) {
    // Soft state: periodically reinstall the subscription across the range
    // until the lifespan runs out.
    sim::Simulator& sim = routing_.simulator();
    auto handle = std::make_shared<sim::TaskHandle>();
    *handle = sim.schedule_periodic(
        sim.now() + config_.query_refresh_period,
        config_.query_refresh_period,
        [this, lo, hi, payload, expires, handle] {
          if (routing_.simulator().now() >= expires ||
              !routing_.is_alive(index)) {
            handle->cancel();
            return;
          }
          send_to_range(lo, hi, MsgKind::kSimilarityQuery, payload);
          metrics_.count(&RobustnessCounters::query_refreshes, nullptr);
        });
  }
}

void MiddlewareNode::subscribe_inner_product(
    std::shared_ptr<const InnerProductQuery> query) {
  const StreamId stream = query->stream;
  const auto cached = location_cache.find(stream);
  if (cached != location_cache.end()) {
    dispatch_inner_query(std::move(query), cached->second);
    return;
  }
  const bool resolution_in_flight = pending_inner_queries.contains(stream);
  pending_inner_queries[stream].push_back(std::move(query));
  if (!resolution_in_flight) {
    send_to_key(key_for_stream(routing_.id_space(), stream),
                MsgKind::kLocationGet,
                std::make_shared<const LocationGetPayload>(
                    LocationGetPayload{stream, index}));
  }
}

void MiddlewareNode::dispatch_inner_query(
    std::shared_ptr<const InnerProductQuery> query, NodeIndex source) {
  send_to_key(routing_.node_id(source), MsgKind::kInnerProductQuery,
              std::make_shared<const InnerProductQueryPayload>(
                  InnerProductQueryPayload{std::move(query)}));
}

// --- Delivery dispatch -------------------------------------------------------

void MiddlewareNode::deliver(const Message& msg) {
  switch (msg.kind) {
    case MsgKind::kMbrUpdate:
      return handle_mbr(msg);
    case MsgKind::kSimilarityQuery:
      return handle_similarity_query(msg);
    case MsgKind::kInnerProductQuery:
      return handle_inner_query(msg);
    case MsgKind::kResponse:
      return handle_response(msg);
    case MsgKind::kNeighborExchange:
      return handle_neighbor_digest(msg);
    case MsgKind::kLocationPut:
      return handle_location_put(msg);
    case MsgKind::kLocationGet:
      return handle_location_get(msg);
    case MsgKind::kLocationReply:
      return handle_location_reply(msg);
    case MsgKind::kMbrAck:
      return handle_mbr_ack(msg);
    case MsgKind::kResponseAck:
      return handle_response_ack(msg);
    case MsgKind::kReplicaPut:
      return handle_replica_put(msg);
    case MsgKind::kHandoffRequest:
      return handle_handoff_request(msg);
    case MsgKind::kAntiEntropyDigest:
      return handle_anti_entropy_digest(msg);
    case MsgKind::kAntiEntropyRequest:
      return handle_anti_entropy_request(msg);
    case MsgKind::kAggregatorReplica:
      return handle_aggregator_replica(msg);
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

void MiddlewareNode::handle_mbr(const Message& msg) {
  const auto payload = payload_of<MbrPayload>(msg);
  if (index != payload->source) {
    // Load shedding: a node past its per-window ingest budget (or under a
    // forced-shed experiment) refuses the store as an ACCOUNTED drop before
    // paying for dedup, indexing, or matching. Shed copies are not acked,
    // so an acked source treats them exactly like a lost transmission.
    if (config_.overload.has_value() && shed_ingest(msg)) {
      return;
    }
    // The payload carries its absolute expiry, so a retransmitted or
    // refreshed copy stores exactly what the first delivery would have.
    const sim::SimTime now = routing_.simulator().now();
    const IndexStore::StoredMbr entry{payload->stream, payload->source,
                                      payload->mbr, payload->batch_seq, now,
                                      payload->expires};
    if (!store.add_mbr(entry)) {
      if (payload->expires > now) {
        metrics_.count(&RobustnessCounters::duplicate_stores, nullptr);
      }
    } else {
      metrics_.add_node_work(index, 1);
      // Synchronous mirror: the key-range owner (the node covering the hi
      // end) pushes the freshly stored batch to its replica set. First
      // store only — refresh and retry redeliveries dedup above and never
      // re-mirror.
      if (replication_on() && msg.has_range &&
          covers_key(index, msg.range_hi)) {
        mirror_mbr(entry);
      }
    }
  }
  if (!config_.mbr_ack.enabled || msg.range_internal) {
    return;  // only the landing copy of a multicast acknowledges
  }
  if (index == payload->source) {
    note_mbr_ack(payload->stream, payload->batch_seq);
    return;
  }
  send_to_node(payload->source, MsgKind::kMbrAck,
               std::make_shared<const MbrAckPayload>(
                   MbrAckPayload{payload->stream, payload->batch_seq}),
               /*reroute_on_dead=*/false);
}

void MiddlewareNode::handle_mbr_ack(const Message& msg) {
  const auto payload = payload_of<MbrAckPayload>(msg);
  note_mbr_ack(payload->stream, payload->batch_seq);
}

void MiddlewareNode::handle_response_ack(const Message& msg) {
  const auto payload = payload_of<ResponseAckPayload>(msg);
  const auto it = aggregations.find(payload->query);
  if (it != aggregations.end()) {
    it->second.inflight.ack(payload->query, payload->push_seq);
  }
}

void MiddlewareNode::handle_similarity_query(const Message& msg) {
  const auto payload = payload_of<SimilarityQueryPayload>(msg);
  const SimilarityQuery& query = *payload->query;
  const bool fresh = store.find_subscription(query.id) == nullptr;
  store.add_subscription(payload->query, payload->middle_key,
                         query.issued_at + query.lifespan);
  if (fresh) {
    metrics_.add_node_work(index, 1);
  } else if (config_.query_refresh_period > sim::Duration()) {
    // A refresh re-derives this node's reports: each pair has one
    // designated reporter, so a lost digest has no other node covering for
    // it. The aggregator's seen set and the client's matched set keep the
    // repeats invisible (the report-side twin of the MBR refresh).
    store.rescan_subscription(query.id);
  }
  // Mirror the subscription to the range owner's replica set on first
  // install (refresh redeliveries keep the original state and don't
  // re-mirror).
  if (fresh && replication_on() && msg.has_range &&
      covers_key(index, msg.range_hi)) {
    const IndexStore::Subscription* sub = store.find_subscription(query.id);
    if (sub != nullptr) {
      mirror_subscription(*sub);
    }
  }
}

void MiddlewareNode::handle_inner_query(const Message& msg) {
  const auto payload = payload_of<InnerProductQueryPayload>(msg);
  const InnerProductQuery& query = *payload->query;
  const auto it = streams.find(query.stream);
  if (it == streams.end()) {
    return;  // stale location mapping (stream moved or was dropped)
  }
  it->second.inner_subscriptions.push_back(InnerProductSubscription{
      payload->query, query.issued_at + query.lifespan});
}

void MiddlewareNode::handle_response(const Message& msg) {
  const auto payload = payload_of<ResponsePayload>(msg);
  if (payload->client != index) {
    // The client crashed and its arc changed hands: the response routed to
    // the new owner of the client's ring id. Nothing to do but drop it.
    return;
  }
  if (payload->aggregator != kInvalidNode && !payload->matches.empty()) {
    // Confirm match-bearing pushes even when the query record is gone: the
    // aggregator must stop retransmitting either way.
    send_to_node(payload->aggregator, MsgKind::kResponseAck,
                 std::make_shared<const ResponseAckPayload>(
                     ResponseAckPayload{payload->query, payload->push_seq}),
                 /*reroute_on_dead=*/false);
  }
  host_.on_response(*payload);
}

void MiddlewareNode::handle_neighbor_digest(const Message& msg) {
  const auto payload = payload_of<NeighborDigestPayload>(msg);
  for (const MatchReport& report : payload->reports) {
    file_match_report(report);
  }
  // Push what the digest filed now rather than at the next pass: at most one
  // push per query, in report order.
  const sim::SimTime now = routing_.simulator().now();
  for (const MatchReport& report : payload->reports) {
    const auto it = aggregations.find(report.match.query);
    if (it != aggregations.end() && it->second.expires > now) {
      push_pending(it->first, it->second);
    }
  }
}

void MiddlewareNode::handle_location_put(const Message& msg) {
  const auto payload = payload_of<LocationPutPayload>(msg);
  if (payload->source == kInvalidNode) {
    location_directory.erase(payload->stream);  // tombstone
  } else {
    location_directory[payload->stream] = payload->source;
  }
}

void MiddlewareNode::handle_location_get(const Message& msg) {
  const auto payload = payload_of<LocationGetPayload>(msg);
  const auto entry = location_directory.find(payload->stream);
  const NodeIndex source =
      entry == location_directory.end() ? kInvalidNode : entry->second;

  send_to_key(routing_.node_id(payload->requester), MsgKind::kLocationReply,
              std::make_shared<const LocationReplyPayload>(
                  LocationReplyPayload{payload->stream, source}));
}

void MiddlewareNode::retry_location_get(StreamId stream) {
  if (!routing_.is_alive(index)) {
    return;  // the querying data center is gone; let its state expire
  }
  if (!pending_inner_queries.contains(stream)) {
    return;  // resolved or expired in the meantime
  }
  const auto cached = location_cache.find(stream);
  if (cached != location_cache.end()) {
    drain_inner_queries(stream, cached->second);
    return;
  }
  metrics_.count(&RobustnessCounters::location_retries, nullptr);
  send_to_key(key_for_stream(routing_.id_space(), stream),
              MsgKind::kLocationGet,
              std::make_shared<const LocationGetPayload>(
                  LocationGetPayload{stream, index}));
}

void MiddlewareNode::drain_inner_queries(StreamId stream, NodeIndex source) {
  location_retry_attempts.erase(stream);
  const auto pending = pending_inner_queries.find(stream);
  if (pending == pending_inner_queries.end()) {
    return;
  }
  std::vector<std::shared_ptr<const InnerProductQuery>> queries =
      std::move(pending->second);
  pending_inner_queries.erase(pending);
  for (auto& query : queries) {
    dispatch_inner_query(std::move(query), source);
  }
}

void MiddlewareNode::handle_location_reply(const Message& msg) {
  const auto payload = payload_of<LocationReplyPayload>(msg);
  auto pending = pending_inner_queries.find(payload->stream);
  if (payload->source == kInvalidNode) {
    // The directory does not know the stream (yet): its registration may
    // still be in flight through the overlay, or the stream is truly gone.
    // Keep the unexpired queries and retry after a notification period; the
    // pending set drains naturally once every query's lifespan passes.
    if (pending == pending_inner_queries.end()) {
      return;
    }
    const sim::SimTime now = routing_.simulator().now();
    std::erase_if(pending->second,
                  [now](const std::shared_ptr<const InnerProductQuery>& q) {
                    return q->issued_at + q->lifespan <= now;
                  });
    if (pending->second.empty()) {
      pending_inner_queries.erase(pending);
      return;
    }
    // Capped exponential backoff with jitter, not a flat notify_period:
    // repeated unknowns mean the registration is slow or its directory
    // fragment is down, so hammering the same key every period only adds
    // load where the failure is.
    const StreamId stream = payload->stream;
    const int attempts = location_retry_attempts[stream]++;
    RetryPolicy policy;
    policy.timeout = config_.notify_period;
    policy.max_backoff =
        sim::Duration::micros(config_.notify_period.count_micros() * 8);
    policy.jitter =
        sim::Duration::micros(config_.notify_period.count_micros() / 8);
    routing_.simulator().schedule_after(
        policy.delay(attempts, rng_),
        [this, stream] { retry_location_get(stream); });
    return;
  }
  location_cache[payload->stream] = payload->source;
  drain_inner_queries(payload->stream, payload->source);
}

// --- Periodic machinery ------------------------------------------------------

bool MiddlewareNode::covers_key(NodeIndex node, Key key) const {
  const NodeIndex pred = routing_.predecessor_index(node);
  return routing_.id_space().in_half_open(key, routing_.node_id(pred),
                                          routing_.node_id(node));
}

void MiddlewareNode::file_match_report(MatchReport report) {
  if (covers_key(index, report.middle_key)) {
    AggregatorRecord& record = aggregations[report.match.query];
    record.client = report.client;
    record.middle_key = report.middle_key;
    record.expires = report.query_expires;
    if (record.seen.insert(report.match.stream).second) {
      record.pending.push_back(report.match);
    }
    return;
  }
  outgoing_reports.push_back(std::move(report));
}

void MiddlewareNode::push_pending(QueryId query, AggregatorRecord& record) {
  if (record.pending.empty()) {
    return;
  }
  // Incremental aggregator replication: the matches leave for the replica
  // set with the push that carries them, so a replica can promote itself
  // without losing any client-visible match.
  if (replication_on()) {
    mirror_aggregation(query, record);
  }
  ResponsePayload push{query, record.client, false, std::move(record.pending),
                       0.0, config_.response_ack.enabled ? index : kInvalidNode,
                       0};
  record.pending.clear();
  std::shared_ptr<const ResponsePayload> payload;
  if (config_.response_ack.enabled) {
    payload = record.inflight.track(std::move(push));
    arm_push_retry(query, payload->push_seq);
  } else {
    payload = std::make_shared<const ResponsePayload>(std::move(push));
  }
  send_to_key(routing_.node_id(record.client), MsgKind::kResponse,
              std::move(payload));
}

void MiddlewareNode::arm_push_retry(QueryId query, std::uint64_t push_seq) {
  routing_.simulator().schedule_after(
      config_.response_ack.timeout,
      [this, query, push_seq] { on_push_ack_timeout(query, push_seq); });
}

void MiddlewareNode::on_push_ack_timeout(QueryId query,
                                         std::uint64_t push_seq) {
  const sim::SimTime now = routing_.simulator().now();
  const auto it = aggregations.find(query);
  if (!routing_.is_alive(index) || it == aggregations.end() ||
      it->second.expires <= now) {
    return;  // the retries end with the node or the record
  }
  AggregatorRecord& record = it->second;
  const bool resent = record.inflight.resend_one(
      query, push_seq, config_.response_ack,
      [&](const std::shared_ptr<const ResponsePayload>& push) {
        metrics_.count(&RobustnessCounters::response_retries, nullptr);
        send_to_key(routing_.node_id(record.client), MsgKind::kResponse,
                    push);
      });
  if (resent) {
    arm_push_retry(query, push_seq);
  }
}

bool MiddlewareNode::designated_reporter(const IndexStore::StoredMbr& entry,
                                         const IndexStore::Subscription& sub) {
  // Every probe range counts: an lsh pair may meet only in a probe bucket.
  const ContentKeyMap& map = strategy_.key_map();
  map.mbr_ranges(entry.mbr, batch_ranges_);
  map.query_ranges(sub.query->features, sub.query->radius, query_ranges_);
  const std::optional<Key> point =
      nearest_overlap_key(batch_ranges_, query_ranges_, sub.middle_key);
  return !point.has_value() || covers_key(index, *point);
}

void MiddlewareNode::send_report_digests(sim::SimTime now) {
  std::vector<MatchReport>& reports = outgoing_reports;
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
    send_to_key(middle, MsgKind::kNeighborExchange,
                std::make_shared<const NeighborDigestPayload>(
                    NeighborDigestPayload{{std::make_move_iterator(first),
                                           std::make_move_iterator(last)}}),
                /*reroute_on_dead=*/true);
    first = last;
  }
  reports.clear();
}

void MiddlewareNode::periodic_tick() {
  if (!routing_.is_alive(index)) {
    return;  // the data center crashed; its soft state dies with it
  }
  const sim::SimTime now = routing_.simulator().now();

  // The match pass runs first; it touches only this node's store. Credit
  // its scan cost plus one unit per candidate, reported or declined, to the
  // node's load.
  std::vector<SimilarityMatch> fresh = store.match(
      now, [this](const IndexStore::StoredMbr& entry,
                  const IndexStore::Subscription& sub) {
        return designated_reporter(entry, sub);
      });
  metrics_.add_node_work(index, store.last_match_work() +
                                    store.last_match_declined() +
                                    static_cast<std::uint64_t>(fresh.size()));

  // -1. Aggregator failover: mirrors whose middle key now falls on this
  //     node's arc (the owner died) become live aggregations.
  if (!aggregation_replicas.empty()) {
    promote_aggregation_replicas(now);
  }

  // 0. Drop publication records whose batch lapsed (acked entries have no
  //    timer left to prune them otherwise).
  published_mbrs.drop_lapsed(now);

  // 1. File the candidates the match pass detected against the local index
  //    (Eq. 8 / MBR bound). match() advanced the store's expiry lanes
  //    itself, so no separate expire() sweep is needed here.
  for (SimilarityMatch& match : fresh) {
    const IndexStore::Subscription* sub = store.find_subscription(match.query);
    SDSI_CHECK(sub != nullptr);
    file_match_report(MatchReport{std::move(match), sub->query->client,
                                  sub->middle_key, sub->expires});
  }

  // 2. Route the buffered reports to their aggregators.
  send_report_digests(now);

  // 3. Aggregators drop lapsed records and push the matches step 1 or a
  //    replica promotion filed (Sec IV-F); a digest's matches were pushed on
  //    arrival. With response acks on, each push waits in the record's
  //    ledger and its own timer resends it verbatim (same push_seq — the
  //    client's content dedup makes redelivery harmless) until acked or out
  //    of budget.
  for (auto it = aggregations.begin(); it != aggregations.end();) {
    if (it->second.expires <= now) {
      it = aggregations.erase(it);
      continue;
    }
    push_pending(it->first, it->second);
    ++it;
  }

  // 4. Answer inner-product subscriptions from the local synopses
  //    (Eq. 7 reconstruction + weighted product, Sec IV-D).
  for (auto& [stream_id, local] : streams) {
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
      send_to_key(routing_.node_id(sub.query->client), MsgKind::kResponse,
                  std::make_shared<const ResponsePayload>(ResponsePayload{
                      sub.query->id, sub.query->client, true, {}, value}));
    }
  }
}

// --- Replication & failover --------------------------------------------------

void MiddlewareNode::mirror_mbr(const IndexStore::StoredMbr& entry) {
  ReplicaPutPayload put;
  put.mbrs.push_back(ReplicaMbrEntry{entry.stream, entry.source, entry.mbr,
                                     entry.batch_seq, entry.expires});
  mirror_put(std::move(put), entry.stream, entry.batch_seq);
}

void MiddlewareNode::mirror_subscription(const IndexStore::Subscription& sub) {
  ReplicaPutPayload put;
  put.subscriptions.push_back(
      ReplicaSubscriptionEntry{sub.query, sub.middle_key, sub.expires});
  mirror_put(std::move(put), 0, sub.query->id);
}

void MiddlewareNode::mirror_put(ReplicaPutPayload put, StreamId trace_stream,
                                std::uint64_t trace_seq) {
  const std::vector<NodeIndex> replicas =
      routing_.successors(index, config_.replication_factor);
  if (replicas.empty()) {
    return;
  }
  put.from = index;
  const auto payload =
      std::make_shared<const ReplicaPutPayload>(std::move(put));
  for (const NodeIndex replica : replicas) {
    send_to_node(replica, MsgKind::kReplicaPut, payload, true);
    metrics_.count(&RobustnessCounters::replica_puts, "replication.puts");
  }
  emit_trace(obs::TraceEventKind::kReplicate, trace_stream, trace_seq);
}

void MiddlewareNode::mirror_aggregation(QueryId query,
                                        const AggregatorRecord& record) {
  const std::vector<NodeIndex> replicas =
      routing_.successors(index, config_.replication_factor);
  if (replicas.empty()) {
    return;
  }
  const auto payload = std::make_shared<const AggregatorReplicaPayload>(
      AggregatorReplicaPayload{query, record.client, record.middle_key,
                               record.expires, index, record.pending});
  for (const NodeIndex replica : replicas) {
    send_to_node(replica, MsgKind::kAggregatorReplica, payload, true);
  }
}

void MiddlewareNode::handle_replica_put(const Message& msg) {
  const auto payload = payload_of<ReplicaPutPayload>(msg);
  const AppliedPut applied =
      apply_replica_put(store, *payload, routing_.simulator().now());
  if (applied.added == 0) {
    return;  // everything deduplicated: redelivery is a no-op by design
  }
  metrics_.add_node_work(index, applied.added);
  if (payload->repair) {
    metrics_.count(&RobustnessCounters::replica_repairs, "replication.repairs",
                   applied.added);
    emit_trace(obs::TraceEventKind::kRepair, applied.first_stream,
               applied.first_seq);
  } else if (payload->handoff) {
    emit_trace(obs::TraceEventKind::kHandoff, applied.first_stream,
               applied.first_seq);
  }
}

void MiddlewareNode::handle_handoff_request(const Message& msg) {
  const auto payload = payload_of<HandoffRequestPayload>(msg);
  if (!routing_.is_alive(payload->requester)) {
    return;
  }
  ReplicaPutPayload put =
      arc_entries(store, strategy_.key_map(), routing_.id_space(), payload->lo,
                  payload->hi, routing_.simulator().now());
  const std::size_t bytes = entry_bytes(put);
  const std::size_t entries =
      send_repair(payload->requester, std::move(put), /*handoff=*/true);
  if (entries == 0) {
    return;
  }
  metrics_.count(&RobustnessCounters::handoff_entries,
                 "replication.handoff_entries", entries);
  metrics_.count(&RobustnessCounters::handoff_bytes,
                 "replication.handoff_bytes", bytes);
  emit_trace(obs::TraceEventKind::kHandoff, 0, entries);
}

std::size_t MiddlewareNode::send_repair(NodeIndex peer, ReplicaPutPayload put,
                                        bool handoff) {
  const std::size_t entries = entry_count(put);
  if (entries == 0) {
    return 0;
  }
  put.from = index;
  put.handoff = handoff;
  put.repair = !handoff;
  send_to_node(peer, MsgKind::kReplicaPut,
               std::make_shared<const ReplicaPutPayload>(std::move(put)),
               true);
  return entries;
}

void MiddlewareNode::anti_entropy_tick() {
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
      store, strategy_.key_map(), routing_.id_space(),
      routing_.node_id(routing_.predecessor_index(index)),
      routing_.node_id(index), routing_.simulator().now());
  digest.from = index;
  const auto payload =
      std::make_shared<const AntiEntropyDigestPayload>(std::move(digest));
  for (const NodeIndex replica : replicas) {
    send_to_node(replica, MsgKind::kAntiEntropyDigest, payload, true);
  }
}

void MiddlewareNode::handle_anti_entropy_digest(const Message& msg) {
  const auto payload = payload_of<AntiEntropyDigestPayload>(msg);
  if (!routing_.is_alive(payload->from)) {
    return;
  }
  const sim::SimTime now = routing_.simulator().now();

  // 1. What the owner holds that this replica misses: request backfill.
  AntiEntropyRequestPayload request = digest_gaps(store, *payload, now);
  if (!request.mbr_keys.empty() || !request.query_ids.empty()) {
    request.requester = index;
    send_to_node(
        payload->from, MsgKind::kAntiEntropyRequest,
        std::make_shared<const AntiEntropyRequestPayload>(std::move(request)),
        true);
  }

  // 2. What this replica holds on the owner's arc that the digest lacks:
  //    push it back as repair (heals an owner that recovered empty).
  send_repair(payload->from,
              arc_entries(store, strategy_.key_map(), routing_.id_space(),
                          payload->lo, payload->hi, now, payload.get()),
              /*handoff=*/false);
}

void MiddlewareNode::handle_anti_entropy_request(const Message& msg) {
  const auto payload = payload_of<AntiEntropyRequestPayload>(msg);
  if (!routing_.is_alive(payload->requester)) {
    return;
  }
  send_repair(payload->requester,
              backfill(store, *payload, routing_.simulator().now()),
              /*handoff=*/false);
}

void MiddlewareNode::handle_aggregator_replica(const Message& msg) {
  const auto payload = payload_of<AggregatorReplicaPayload>(msg);
  const sim::SimTime now = routing_.simulator().now();
  if (payload->expires <= now) {
    return;
  }
  AggregationReplica& rep = aggregation_replicas[payload->query];
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

void MiddlewareNode::promote_aggregation_replicas(sim::SimTime now) {
  for (auto it = aggregation_replicas.begin();
       it != aggregation_replicas.end();) {
    AggregationReplica& rep = it->second;
    if (rep.expires <= now) {
      it = aggregation_replicas.erase(it);
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
    AggregatorRecord& record = aggregations[query];
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
    emit_trace(obs::TraceEventKind::kFailover, 0, query);
    it = aggregation_replicas.erase(it);
  }
}

void MiddlewareNode::request_handoff() {
  const NodeIndex succ = routing_.successor_index(index);
  if (succ == index) {
    return;  // alone on the ring: nothing to pull
  }
  send_to_node(succ, MsgKind::kHandoffRequest,
               std::make_shared<const HandoffRequestPayload>(
                   HandoffRequestPayload{
                       index,
                       routing_.node_id(routing_.predecessor_index(index)),
                       routing_.node_id(index)}),
               true);
  emit_trace(obs::TraceEventKind::kHandoff, 0, 0);
}

// --- Overload control --------------------------------------------------------

bool MiddlewareNode::shed_ingest(const Message& msg) {
  const OverloadOptions& opt = *config_.overload;
  bool shed = false;
  if (opt.forced_shed_rate > 0.0) {
    // Deterministic fractional accumulator (no rng draw: the shed schedule
    // must be a pure function of the delivery sequence).
    overload.shed_accumulator += opt.forced_shed_rate;
    if (overload.shed_accumulator >= 1.0) {
      overload.shed_accumulator -= 1.0;
      shed = true;
    }
  }
  if (!shed && opt.ingest_capacity > 0 &&
      overload.window_ingest >= opt.ingest_capacity) {
    shed = true;
  }
  if (!shed) {
    ++overload.window_ingest;
    return false;
  }
  routing_.account_app_drop(fault::DropCause::kShedOverload, msg);
  metrics_.count(&RobustnessCounters::shed_mbrs, "overload.shed_mbrs");
  return true;
}

void MiddlewareNode::defer_publication(StreamId stream, dsp::Mbr mbr) {
  overload.deferred.push_back(DeferredPublication{stream, std::move(mbr)});
  metrics_.count(&RobustnessCounters::backpressure_deferrals,
                 "overload.backpressure_deferrals");
  const std::size_t capacity = config_.overload->defer_capacity;
  if (capacity > 0 && overload.deferred.size() > capacity) {
    // Queue overflow sheds the OLDEST deferred batch: its summary data is
    // the stalest, and FIFO draining means it would also be the last to
    // benefit from a budget refill. Never silent.
    overload.deferred.pop_front();
    account_overload_drop();
  }
}

void MiddlewareNode::overload_window() {
  const std::uint64_t budget = config_.overload->publish_budget;
  overload.window_ingest = 0;
  overload.window_published = 0;
  if (overload.deferred.empty() || !routing_.is_alive(index)) {
    return;
  }
  while (!overload.deferred.empty() &&
         (budget == 0 || overload.window_published < budget)) {
    DeferredPublication next = std::move(overload.deferred.front());
    overload.deferred.pop_front();
    const auto it = streams.find(next.stream);
    if (it == streams.end()) {
      // The stream unregistered while its batch waited: nothing left to
      // publish under — account the loss rather than vanish it.
      account_overload_drop();
      continue;
    }
    ++overload.window_published;
    publish_mbr(it->second, std::move(next.mbr));
  }
}

void MiddlewareNode::account_overload_drop() {
  // Backpressure drops happen before (queue overflow) or instead of (stream
  // teardown) a concrete Message existing, so a synthetic envelope carries
  // the attribution into the shared drop path — same counters, registry
  // series, and trace stream as every in-flight loss.
  Message synth;
  synth.kind = MsgKind::kMbrUpdate;
  synth.origin = index;
  routing_.account_app_drop(fault::DropCause::kBackpressure, synth);
  metrics_.count(&RobustnessCounters::backpressure_drops, nullptr);
}

}  // namespace sdsi::core
