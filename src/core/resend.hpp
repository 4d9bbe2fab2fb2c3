// The sender side of the self-healing data path of core::MiddlewareNode,
// the node object both hosts run (the simulator and net::NetNode).
// Index entries are soft state (Sec VII): a source keeps each MBR
// publication until its batch lapses, acked or not, so the refresh sweep
// can re-route it; an aggregator keeps each match push until its client
// acks it. The ledgers hold that state and decide, in key order; the node
// brings the time, arms one timer per publication and per push, and sends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/query.hpp"
#include "sim/simulator.hpp"

namespace sdsi::core {

/// Capped exponential backoff with seeded jitter. Retry n (0-based) waits
/// min(timeout * 2^n, max_backoff) + uniform[0, jitter); at most
/// max_attempts retransmissions follow the first send. Push retries resend
/// every `timeout`, with no backoff or jitter.
struct RetryPolicy {
  bool enabled = false;
  sim::Duration timeout = sim::Duration::millis(1500);
  sim::Duration max_backoff = sim::Duration::millis(12'000);
  sim::Duration jitter = sim::Duration::millis(250);
  int max_attempts = 4;  // retransmission budget beyond the first send

  /// The wait before retry number `attempts` (0-based). Draws from `rng`
  /// only when jitter is positive.
  sim::Duration delay(int attempts, common::Pcg32& rng) const;

  /// Counts one more retransmission in `attempts`; false, counting nothing,
  /// once the budget is spent.
  bool spend(int& attempts) const {
    if (attempts >= max_attempts) {
      return false;
    }
    ++attempts;
    return true;
  }
};

/// One source's acked MBR publications, keyed (stream, batch_seq).
class PublicationLedger {
 public:
  struct Publication {
    std::shared_ptr<const MbrPayload> payload;
    Key lo = 0;  // the primary range the batch is routed over
    Key hi = 0;
    sim::SimTime first_sent;
    int attempts = 0;  // retransmissions so far
    bool acked = false;
    /// A timer host's pending retry; acking or dropping the record cancels it.
    sim::TaskHandle retry_timer;
    /// One trace id for the publication's whole life (first send, retries,
    /// refreshes): the batch's story under one correlation id (obs/trace).
    std::uint64_t trace_id = 0;
  };

  enum class Retry { kNone, kSpent, kResend };

  /// Tracks a publication routed over [lo, hi] and sent at `now`, replacing
  /// any record under the same key.
  Publication& track(std::shared_ptr<const MbrPayload> payload, Key lo, Key hi,
                     sim::SimTime now) {
    Publication& pub = records_[{payload->stream, payload->batch_seq}];
    pub = Publication{};
    pub.payload = std::move(payload);
    pub.lo = lo;
    pub.hi = hi;
    pub.first_sent = now;
    return pub;
  }

  /// Marks (stream, seq) acked and cancels its retry timer. Returns the
  /// record on the first ack only.
  const Publication* ack(StreamId stream, std::uint64_t seq) {
    const auto it = records_.find({stream, seq});
    if (it == records_.end() || it->second.acked) {
      return nullptr;
    }
    it->second.acked = true;
    it->second.retry_timer.cancel();
    return &it->second;
  }

  /// The decision at (stream, seq)'s ack deadline `now`: kNone when the
  /// record is gone or acked, or its batch lapsed (the record is dropped);
  /// kSpent, with the record, once the budget is spent; otherwise kResend,
  /// with the record and the retry counted.
  std::pair<Retry, Publication*> retry(StreamId stream, std::uint64_t seq,
                                       sim::SimTime now,
                                       const RetryPolicy& policy) {
    const auto it = records_.find({stream, seq});
    if (it == records_.end() || it->second.acked) {
      return {Retry::kNone, nullptr};
    }
    if (it->second.payload->expires <= now) {
      drop(it);  // nothing left to heal
      return {Retry::kNone, nullptr};
    }
    if (!policy.spend(it->second.attempts)) {
      return {Retry::kSpent, &it->second};
    }
    return {Retry::kResend, &it->second};
  }

  /// The record of (stream, seq) while it is tracked, unacked and not
  /// lapsed at `now`; nullptr otherwise.
  const Publication* owed(StreamId stream, std::uint64_t seq,
                          sim::SimTime now) const {
    const auto it = records_.find({stream, seq});
    const bool live = it != records_.end() && !it->second.acked &&
                      it->second.payload->expires > now;
    return live ? &it->second : nullptr;
  }

  /// The refresh sweep: drops the records lapsed by `now` and calls
  /// `send(publication)` on each live one.
  template <typename Send>
  void refresh(sim::SimTime now, Send&& send) {
    for (auto it = records_.begin(); it != records_.end();) {
      if (it->second.payload->expires <= now) {
        it = drop(it);
      } else {
        send(std::as_const(it->second));
        ++it;
      }
    }
  }

  /// Drops every record whose batch lapsed by `now`.
  void drop_lapsed(sim::SimTime now) {
    refresh(now, [](const Publication&) {});
  }

  /// Drops every record (a crash wipes the source's soft state).
  void clear() {
    for (auto it = records_.begin(); it != records_.end();) {
      it = drop(it);
    }
  }

  std::size_t size() const noexcept { return records_.size(); }

 private:
  using Records = std::map<std::pair<StreamId, std::uint64_t>, Publication>;

  Records::iterator drop(Records::iterator it) {
    it->second.retry_timer.cancel();
    return records_.erase(it);
  }

  Records records_;
};

/// One aggregator's match pushes awaiting the client's kResponseAck, keyed
/// (query, push_seq).
class PushLedger {
 public:
  /// Numbers `push` (push_seq 1, 2, ...) and tracks it until it is acked
  /// or out of budget.
  std::shared_ptr<const ResponsePayload> track(ResponsePayload push) {
    push.push_seq = ++last_seq_;
    auto shared = std::make_shared<const ResponsePayload>(std::move(push));
    pushes_.emplace(std::pair(shared->query, shared->push_seq),
                    Push{shared, 0});
    return shared;
  }

  /// Retires an acked push; unknown pushes are ignored.
  void ack(QueryId query, std::uint64_t push_seq) {
    pushes_.erase({query, push_seq});
  }

  /// The retry at (query, push_seq)'s ack deadline: resends the push
  /// verbatim and returns true while its budget lasts; false, forgetting the
  /// push, once the budget is spent, and false for an acked push.
  template <typename Resend>
  bool resend_one(QueryId query, std::uint64_t push_seq,
                  const RetryPolicy& policy, Resend&& resend) {
    const auto it = pushes_.find({query, push_seq});
    if (it == pushes_.end()) {
      return false;
    }
    Push& push = it->second;
    if (!policy.spend(push.attempts)) {
      pushes_.erase(it);
      return false;
    }
    resend(push.payload);
    return true;
  }

  std::size_t size() const noexcept { return pushes_.size(); }

 private:
  struct Push {
    std::shared_ptr<const ResponsePayload> payload;
    int attempts = 0;  // resends so far
  };

  std::map<std::pair<QueryId, std::uint64_t>, Push> pushes_;
  std::uint64_t last_seq_ = 0;
};

}  // namespace sdsi::core
