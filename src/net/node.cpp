#include "net/node.hpp"

#include <algorithm>
#include <utility>

#include "core/arc_sync.hpp"

namespace sdsi::net {

using routing::payload_of;

NetNode::NetNode(const NetRing& ring, NodeIndex self, Transport& transport,
                 NetNodeConfig config)
    : self_(self),
      config_(std::move(config)),
      strategy_(core::IndexingStrategy::make(config_.strategy,
                                             config_.features, ring.space())),
      detector_(config_.reliability.detector, ring.size(), self),
      routing_(clock_, ring, self, transport, detector_) {
  config_.features.validate();
  routing_.set_deliver(
      [this](NodeIndex, const routing::Message& msg) { handle(msg); });
}

NetNode::Counters NetNode::counters() const noexcept {
  Counters counters = counters_;
  counters.send_failures += routing_.send_failures();
  counters.detours = routing_.dead_steps();
  return counters;
}

void NetNode::publish_value(StreamId stream, Sample value, sim::SimTime now) {
  clock_.run_until(now);
  core::LocalStream& local =
      streams_.try_emplace(stream, stream, *strategy_, config_.batching)
          .first->second;
  std::vector<dsp::Mbr> closed;
  core::summarize_value(local, value, closed);
  for (dsp::Mbr& mbr : closed) {
    publish_mbr(local, std::move(mbr));
  }
}

void NetNode::publish_mbr(core::LocalStream& local, dsp::Mbr mbr) {
  // Primary range first (acks/refresh track it alone); extra probe ranges
  // (multi-probe lsh; none for dft/ecm) go out fire-and-forget.
  strategy_->key_map().mbr_ranges(mbr, range_scratch_);
  const sim::SimTime now = clock_.now();
  const sim::SimTime expires = now + config_.mbr_lifespan;
  const auto payload = std::make_shared<const core::MbrPayload>(
      core::MbrPayload{local.id, self_, std::move(mbr), local.batch_seq++,
                       expires});
  if (store_.add_mbr({payload->stream, self_, payload->mbr,
                      payload->batch_seq, now, expires})) {
    ++counters_.mbrs_stored;
  }

  ++counters_.mbrs_published;
  if (reliable()) {
    // Tracked before the first send: a copy landing here is delivered, and
    // acks, synchronously. Refresh re-multicasts it after the ack too (range
    // replicas have no ack of their own — soft state owns them).
    const auto [lo, hi] = range_scratch_.front();
    published_.track(payload, lo, hi, retry_clock());
  }
  for (const auto& [lo, hi] : range_scratch_) {
    send_range(routing::MsgKind::kMbrUpdate, payload, lo, hi);
  }
}

void NetNode::subscribe_similarity(core::QueryId id,
                                   dsp::FeatureVector features, double radius,
                                   sim::Duration lifespan, sim::SimTime now) {
  clock_.run_until(now);
  auto query = std::make_shared<const core::SimilarityQuery>(
      core::SimilarityQuery{id, self_, std::move(features), radius, lifespan,
                            now});
  strategy_->key_map().query_ranges(query->features, radius, range_scratch_);
  const auto [lo, hi] = range_scratch_.front();
  const auto payload = std::make_shared<const core::SimilarityQueryPayload>(
      core::SimilarityQueryPayload{std::move(query),
                                   routing_.id_space().midpoint(lo, hi)});
  results_.try_emplace(id);
  ++counters_.queries_posed;
  if (reliable()) {
    own_queries_.push_back(OwnQuery{payload, lo, hi});
  }
  for (const auto& [range_lo, range_hi] : range_scratch_) {
    send_range(routing::MsgKind::kSimilarityQuery, payload, range_lo,
               range_hi);
  }
}

void NetNode::send_range(routing::MsgKind kind, std::any payload, Key lo,
                         Key hi) {
  routing::Message msg;
  msg.kind = kind;
  msg.payload = std::move(payload);
  routing_.send_range(self_, lo, hi, std::move(msg),
                      routing::MulticastStrategy::kSequential);
}

void NetNode::send_direct(NodeIndex peer, routing::MsgKind kind,
                          std::any payload) {
  if (peer >= routing_.num_nodes()) {
    // Peer indices riding in reliability payloads are untrusted once link
    // corruption is in play: a flipped byte can decode into a frame whose
    // `source`/`requester`/`from` field is garbage. Drop instead of letting
    // the ring's id lookup abort the process.
    ++counters_.send_failures;
    return;
  }
  routing::Message msg;
  msg.kind = kind;
  msg.payload = std::move(payload);
  routing_.send_direct(self_, peer, std::move(msg));
}

void NetNode::deliver(routing::Message&& msg, sim::SimTime now) {
  clock_.run_until(now);
  if (reliable() && msg.origin != self_ && msg.origin < routing_.num_nodes()) {
    // Any frame is liveness evidence (epochs ride only in heartbeats).
    detector_.observe_alive(msg.origin, clock_ms_);
  }
  if (!well_shaped(msg)) {
    ++counters_.shape_rejects;
    return;
  }
  routing_.receive(std::move(msg));
}

void NetNode::handle(const routing::Message& msg) {
  switch (msg.kind) {
    case routing::MsgKind::kMbrUpdate:
      return handle_mbr(msg);
    case routing::MsgKind::kSimilarityQuery:
      return handle_similarity_query(msg);
    case routing::MsgKind::kResponse:
      return handle_response(msg);
    case routing::MsgKind::kHeartbeat:
      return handle_heartbeat(msg);
    case routing::MsgKind::kMbrAck:
      return handle_mbr_ack(msg);
    case routing::MsgKind::kResponseAck:
      return handle_response_ack(msg);
    case routing::MsgKind::kReplicaPut:
      return handle_replica_put(msg);
    case routing::MsgKind::kHandoffRequest:
      return handle_handoff_request(msg);
    case routing::MsgKind::kAntiEntropyDigest:
      return handle_anti_entropy_digest(msg);
    case routing::MsgKind::kAntiEntropyRequest:
      return handle_anti_entropy_request(msg);
    default:
      return;  // kinds outside the net pipeline's scope: ignore
  }
}

bool NetNode::well_shaped(const routing::Message& msg) const {
  if (msg.has_range && msg.kind != routing::MsgKind::kMbrUpdate &&
      msg.kind != routing::MsgKind::kSimilarityQuery) {
    return false;  // only publications and subscriptions walk a range
  }
  const std::size_t coefficients = strategy_->coefficients();
  const auto mbr_fits = [&](const dsp::Mbr& mbr) {
    return mbr.dimensions() == 2 * coefficients;
  };
  const auto query_fits = [&](const core::SimilarityQuery& query) {
    return query.features.size() == coefficients;
  };
  switch (msg.kind) {
    case routing::MsgKind::kMbrUpdate:
      return mbr_fits(payload_of<core::MbrPayload>(msg)->mbr);
    case routing::MsgKind::kSimilarityQuery:
      return query_fits(
          *payload_of<core::SimilarityQueryPayload>(msg)->query);
    case routing::MsgKind::kReplicaPut: {
      const auto& put = *payload_of<core::ReplicaPutPayload>(msg);
      return std::ranges::all_of(put.mbrs,
                                 [&](const core::ReplicaMbrEntry& entry) {
                                   return mbr_fits(entry.mbr);
                                 }) &&
             std::ranges::all_of(
                 put.subscriptions,
                 [&](const core::ReplicaSubscriptionEntry& entry) {
                   return query_fits(*entry.query);
                 });
    }
    default:
      return true;
  }
}

void NetNode::handle_mbr(const routing::Message& msg) {
  const sim::SimTime now = clock_.now();
  const auto payload = payload_of<core::MbrPayload>(msg);
  const bool own = payload->source == self_;
  // The source already stored this batch at publish time; every other node
  // stores it here (the payload's absolute expiry keeps redelivery
  // idempotent, same as the sim's handle_mbr).
  bool first_landing = false;
  if (!own) {
    first_landing =
        store_.add_mbr({payload->stream, payload->source, payload->mbr,
                        payload->batch_seq, now, payload->expires});
    if (first_landing) {
      ++counters_.mbrs_stored;
    }
  }
  if (!reliable() || msg.range_internal) {
    return;
  }
  // This node is the landing node (successor of the range's low end): ack
  // the publication end-to-end and, on its first landing, mirror the entry
  // to the live successors so a crash here cannot erase it. A batch landing
  // on its own source was stored at publish time; its first ack is its
  // first landing.
  if (own) {
    first_landing =
        published_.ack(payload->stream, payload->batch_seq) != nullptr;
  } else {
    send_direct(payload->source, routing::MsgKind::kMbrAck,
                std::make_shared<const core::MbrAckPayload>(
                    core::MbrAckPayload{payload->stream, payload->batch_seq}));
    ++counters_.mbr_acks_sent;
  }
  if (!first_landing) {
    return;  // redelivery (retransmit or refresh): mirrored the first time
  }
  core::ReplicaPutPayload put;
  put.mbrs.push_back({payload->stream, payload->source, payload->mbr,
                      payload->batch_seq, payload->expires});
  mirror(std::move(put), payload->source);
}

void NetNode::handle_similarity_query(const routing::Message& msg) {
  const auto payload = payload_of<core::SimilarityQueryPayload>(msg);
  const core::SimilarityQuery& query = *payload->query;
  const bool fresh = store_.find_subscription(query.id) == nullptr;
  store_.add_subscription(payload->query, payload->middle_key,
                          query.issued_at + query.lifespan);
  ++counters_.subscriptions_stored;
  if (!reliable() || msg.range_internal || !fresh) {
    return;
  }
  // Landing node: mirror the fresh subscription alongside the MBR replicas
  // so a crash cannot silently unsubscribe the client.
  core::ReplicaPutPayload put;
  put.subscriptions.push_back({payload->query, payload->middle_key,
                               query.issued_at + query.lifespan});
  mirror(std::move(put), query.client);
}

void NetNode::mirror(core::ReplicaPutPayload put, NodeIndex holder) {
  put.from = self_;
  const auto shared =
      std::make_shared<const core::ReplicaPutPayload>(std::move(put));
  for (const NodeIndex replica : routing_.successors(self_, kReplication)) {
    if (replica == holder) {
      continue;  // the holder keeps its own copy already
    }
    send_direct(replica, routing::MsgKind::kReplicaPut, shared);
    ++counters_.replica_puts_sent;
  }
}

void NetNode::handle_response(const routing::Message& msg) {
  const auto payload = payload_of<core::ResponsePayload>(msg);
  const auto it = results_.find(payload->query);
  if (it == results_.end()) {
    return;  // not our query (stale route)
  }
  for (const core::SimilarityMatch& match : payload->matches) {
    it->second.insert(match.stream);
  }
  if (reliable() && payload->aggregator != kInvalidNode &&
      payload->aggregator < routing_.num_nodes() &&
      payload->aggregator != self_) {
    send_direct(payload->aggregator, routing::MsgKind::kResponseAck,
                std::make_shared<const core::ResponseAckPayload>(
                    core::ResponseAckPayload{payload->query,
                                             payload->push_seq}));
    ++counters_.response_acks_sent;
  }
}

void NetNode::handle_heartbeat(const routing::Message& msg) {
  const auto payload = payload_of<core::HeartbeatPayload>(msg);
  ++counters_.heartbeats_received;
  if (!reliable()) {
    return;
  }
  if (detector_.observe_heartbeat(payload->from, payload->epoch, clock_ms_)) {
    // The peer's process restarted with an empty store: owe it a repair
    // digest on the next anti-entropy pass.
    pending_repair_.insert(payload->from);
  }
}

void NetNode::handle_mbr_ack(const routing::Message& msg) {
  const auto payload = payload_of<core::MbrAckPayload>(msg);
  ++counters_.mbr_acks_received;
  published_.ack(payload->stream, payload->batch_seq);
}

void NetNode::handle_response_ack(const routing::Message& msg) {
  const auto payload = payload_of<core::ResponseAckPayload>(msg);
  ++counters_.response_acks_received;
  unacked_responses_.ack(payload->query, payload->push_seq);
}

void NetNode::handle_replica_put(const routing::Message& msg) {
  const auto payload = payload_of<core::ReplicaPutPayload>(msg);
  counters_.replica_entries_stored +=
      core::apply_replica_put(store_, *payload, clock_.now()).added;
}

void NetNode::handle_handoff_request(const routing::Message& msg) {
  const auto payload = payload_of<core::HandoffRequestPayload>(msg);
  core::ReplicaPutPayload put =
      core::arc_entries(store_, strategy_->key_map(), routing_.id_space(),
                        payload->lo, payload->hi, clock_.now());
  if (core::entry_count(put) == 0) {
    return;
  }
  put.from = self_;
  put.handoff = true;
  counters_.handoff_entries_sent += core::entry_count(put);
  send_direct(payload->requester, routing::MsgKind::kReplicaPut,
              std::make_shared<const core::ReplicaPutPayload>(std::move(put)));
}

void NetNode::handle_anti_entropy_digest(const routing::Message& msg) {
  const sim::SimTime now = clock_.now();
  const auto payload = payload_of<core::AntiEntropyDigestPayload>(msg);
  // Pull direction: request every digest entry this store is missing.
  core::AntiEntropyRequestPayload request =
      core::digest_gaps(store_, *payload, now);
  if (!request.mbr_keys.empty() || !request.query_ids.empty()) {
    request.requester = self_;
    ++counters_.anti_entropy_requests;
    send_direct(payload->from, routing::MsgKind::kAntiEntropyRequest,
                std::make_shared<const core::AntiEntropyRequestPayload>(
                    std::move(request)));
  }
  // Push direction: back-fill arc entries the digest's sender is missing.
  core::ReplicaPutPayload missing =
      core::arc_entries(store_, strategy_->key_map(), routing_.id_space(),
                        payload->lo, payload->hi, now, payload.get());
  send_repair(payload->from, std::move(missing));
}

void NetNode::handle_anti_entropy_request(const routing::Message& msg) {
  const auto payload = payload_of<core::AntiEntropyRequestPayload>(msg);
  send_repair(payload->requester,
              core::backfill(store_, *payload, clock_.now()));
}

void NetNode::send_repair(NodeIndex peer, core::ReplicaPutPayload put) {
  if (core::entry_count(put) == 0) {
    return;
  }
  put.from = self_;
  put.repair = true;
  counters_.repair_entries_sent += core::entry_count(put);
  send_direct(peer, routing::MsgKind::kReplicaPut,
              std::make_shared<const core::ReplicaPutPayload>(std::move(put)));
}

void NetNode::tick(sim::SimTime now) {
  clock_.run_until(now);
  const std::vector<core::SimilarityMatch> fresh = store_.match(now);
  if (fresh.empty()) {
    return;
  }
  // Group this tick's fresh matches per query and respond to each client
  // directly (divergence from the sim's middle-node aggregation — see the
  // header comment for why the matched sets are unaffected).
  std::map<core::QueryId, std::vector<core::SimilarityMatch>> by_query;
  for (const core::SimilarityMatch& match : fresh) {
    by_query[match.query].push_back(match);
  }
  for (auto& [query_id, matches] : by_query) {
    const core::IndexStore::Subscription* sub =
        store_.find_subscription(query_id);
    if (sub == nullptr || sub->query == nullptr) {
      continue;  // expired between match and push
    }
    const NodeIndex client = sub->query->client;
    if (client >= routing_.num_nodes()) {
      continue;  // corrupted subscription frame carried a garbage client
    }
    // Acked push: the client confirms receipt, otherwise the push is
    // retransmitted from reliability_tick until retries run out.
    const bool acked = reliable() && client != self_;
    core::ResponsePayload response{query_id, client, false, std::move(matches),
                                   0.0, acked ? self_ : kInvalidNode, 0};
    ++counters_.responses_sent;
    send_direct(client, routing::MsgKind::kResponse,
                acked ? unacked_responses_.track(std::move(response),
                                                 retry_clock())
                      : std::make_shared<const core::ResponsePayload>(
                            std::move(response)));
  }
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
  const auto payload = std::make_shared<const core::HeartbeatPayload>(
      core::HeartbeatPayload{self_, config_.epoch, ++heartbeat_seq_});
  for (NodeIndex peer = 0; peer < routing_.num_nodes(); ++peer) {
    if (peer == self_) {
      continue;
    }
    // Dead peers are pinged too — a restarted process answers with a higher
    // epoch, which is how the rejoin is noticed.
    send_direct(peer, routing::MsgKind::kHeartbeat, payload);
    ++counters_.heartbeats_sent;
  }
}

void NetNode::reliability_tick(std::int64_t now_ms, sim::SimTime now) {
  clock_.run_until(now);
  clock_ms_ = now_ms;
  if (!reliable()) {
    return;
  }
  // 0. Forget what has lapsed, as the sim's dispatch_tick does: no store
  //    can match an expired batch, so there is nothing left to heal, and an
  //    expired query is never refreshed again.
  published_.drop_lapsed(now);
  std::erase_if(own_queries_, [now](const OwnQuery& own) {
    const core::SimilarityQuery& query = *own.payload->query;
    return query.issued_at + query.lifespan <= now;
  });

  // 1. Fast retransmit of unacked publications.
  published_.resend_overdue(
      retry_clock(), kAckPolicy,
      [&](const core::PublicationLedger::Publication& pub) {
        ++counters_.mbr_retransmits;
        send_range(routing::MsgKind::kMbrUpdate, pub.payload, pub.lo, pub.hi);
      });

  // 2. Periodic soft-state refresh: re-multicast everything this node owns.
  //    Receiver-side dedup makes the sweep idempotent; it is what heals
  //    range replicas and anything a detoured delivery mis-placed.
  if (now_ms - last_refresh_ms_ >= config_.reliability.refresh_period_ms) {
    last_refresh_ms_ = now_ms;
    ++counters_.refresh_rounds;
    published_.refresh(
        now, [&](const core::PublicationLedger::Publication& pub) {
          ++counters_.mbr_refreshes;
          send_range(routing::MsgKind::kMbrUpdate, pub.payload, pub.lo,
                     pub.hi);
        });
    for (const OwnQuery& own : own_queries_) {
      ++counters_.query_refreshes;
      send_range(routing::MsgKind::kSimilarityQuery, own.payload, own.lo,
                 own.hi);
    }
  }

  // 3. Retransmit unacked match pushes; a push out of budget is forgotten
  //    (a client that stays gone is excised by the detector anyway).
  unacked_responses_.resend_overdue(
      retry_clock(), kAckPolicy,
      [&](const std::shared_ptr<const core::ResponsePayload>& push) {
        ++counters_.response_retransmits;
        send_direct(push->client, routing::MsgKind::kResponse, push);
      });

  // 4. Anti-entropy digests toward both live ring neighbors, plus any peer
  //    whose rejoin was observed since the last pass.
  if (now_ms - last_anti_entropy_ms_ >= kAntiEntropyPeriodMs) {
    last_anti_entropy_ms_ = now_ms;
    ++counters_.anti_entropy_rounds;
    const NodeIndex up = routing_.successor_index(self_);
    if (up != self_) {
      send_digest_to(up);
    }
    const NodeIndex down = routing_.predecessor_index(self_);
    if (down != self_ && down != up) {
      send_digest_to(down);
    }
    for (const NodeIndex peer : pending_repair_) {
      if (peer != up && peer != down && routing_.is_alive(peer)) {
        send_digest_to(peer);
      }
    }
    pending_repair_.clear();
  }
}

void NetNode::request_handoff(sim::SimTime now) {
  clock_.run_until(now);
  if (!reliable()) {
    return;
  }
  const NodeIndex down = routing_.predecessor_index(self_);
  const auto payload = std::make_shared<const core::HandoffRequestPayload>(
      core::HandoffRequestPayload{self_, routing_.node_id(down),
                                  routing_.node_id(self_)});
  const NodeIndex up = routing_.successor_index(self_);
  if (up != self_) {
    ++counters_.handoff_requests_sent;
    send_direct(up, routing::MsgKind::kHandoffRequest, payload);
  }
  if (down != self_ && down != up) {
    ++counters_.handoff_requests_sent;
    send_direct(down, routing::MsgKind::kHandoffRequest, payload);
  }
}

void NetNode::send_digest_to(NodeIndex peer) {
  // Digest the entries relevant to `peer`'s owned arc: from its live
  // predecessor to itself, the arc it covers once dead peers are excised.
  core::AntiEntropyDigestPayload digest = core::arc_digest(
      store_, strategy_->key_map(), routing_.id_space(),
      routing_.node_id(routing_.predecessor_index(peer)),
      routing_.node_id(peer), clock_.now());
  digest.from = self_;
  send_direct(peer, routing::MsgKind::kAntiEntropyDigest,
              std::make_shared<const core::AntiEntropyDigestPayload>(
                  std::move(digest)));
}

}  // namespace sdsi::net
