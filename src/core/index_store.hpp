// Per-data-center index storage (paper Sec IV, Table I lifespans).
//
// Each node stores (a) the MBRs routed to it by content, and (b) the
// similarity-query subscriptions replicated onto it because its arc
// intersects the query's key range. Both carry lifespans: "every MBR or
// query is stored at nodes only for a certain life span after which it is
// removed, to prevent cluttering of storage space and to eliminate query
// responses that contain stale information."
//
// Matching engine (key-interval pruning). A stored MBR projects onto the
// routing dimension as the interval [low_1re, high_1re] — exactly the Eq. 6
// key range it was replicated over. A similarity ball projects onto
// [x1 - r, x1 + r]. If those two intervals do not overlap, the first-dim gap
// alone already exceeds r, so min_distance > r and the full MBR bound could
// never admit the candidate. The store therefore keeps an interval index
// sorted by `low` and evaluates min_distance only against MBRs whose
// first-coefficient interval overlaps the query interval — the surviving
// candidates still get the full multi-dimensional MBR lower bound, so the
// Sec IV-E no-false-dismissal guarantee is untouched.
//
// Matching is incremental. Stored MBRs and subscriptions never change, and
// an entry only ever goes from alive to dead, so a pair tested once gives
// the same answer on every later pass. A subscription new since the last
// pass therefore gets one full pruned scan; every older subscription is
// tested only against the MBRs stored since the last pass. "Since the last
// pass" is a slab-position watermark (compaction remaps it), and the new
// MBRs are visited in interval-index order, so each (query, stream) pair is
// reported with the same first-matching MBR — bound, order and all — that a
// full rescan would pick.
//
// A pass may take a report filter: the caller's designated-reporter rule
// (MiddlewareNode). A candidate the filter declines is skipped without
// being recorded, so a later batch of the same stream that the filter does
// accept is still reported. A filter that answers alike for the same
// (batch, subscription) keeps the incremental pass equal to a full rescan.
//
// Expiry is incremental ("expiry lanes"): a min-expiry heap per container
// pops lapsed entries in O(log n) each instead of erase_if-scanning both
// containers every NPER tick. MBR slots are deleted lazily (an entry is dead
// iff expires <= the latest expiry horizon) and the slab compacts once dead
// slots dominate.
#pragma once

#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "common/dense_map.hpp"
#include "core/query.hpp"

namespace sdsi::core {

class IndexStore {
 public:
  struct StoredMbr {
    StreamId stream = 0;
    NodeIndex source = kInvalidNode;
    dsp::Mbr mbr;
    std::uint64_t batch_seq = 0;
    sim::SimTime stored_at;
    sim::SimTime expires;
  };

  struct Subscription {
    std::shared_ptr<const SimilarityQuery> query;
    Key middle_key = 0;
    sim::SimTime expires;
    /// Streams already reported by THIS node for this query; reports are
    /// deduplicated per node, the aggregator dedups across nodes.
    DenseSet<StreamId> reported;
    /// Whether a match() pass has tested this subscription against the
    /// whole index; later passes test it only against newer MBRs.
    bool scanned = false;
  };

  /// Stores one MBR. Returns false without storing when the entry is already
  /// past the expiry horizon, or when a live entry with the same
  /// (stream, batch_seq) is present — duplicate deliveries from ack-driven
  /// retransmission or soft-state refresh are idempotent, so self-healing
  /// can never inflate match counts.
  bool add_mbr(StoredMbr entry);

  /// Inserts or refreshes a subscription (range re-replication of the same
  /// query id keeps the original state).
  void add_subscription(std::shared_ptr<const SimilarityQuery> query,
                        Key middle_key, sim::SimTime expires);

  /// Advances the expiry horizon to `now`, dropping every MBR and
  /// subscription whose lifespan passed. Incremental: O(log n) per lapsed
  /// entry, O(1) when nothing expired.
  void expire(sim::SimTime now);

  /// Whether this node reports a candidate that passed the bound. An empty
  /// filter reports every candidate.
  using ReportFilter =
      std::function<bool(const StoredMbr&, const Subscription&)>;

  /// Makes the next match() pass re-test subscription `id` against the
  /// whole index and report again every candidate `filter` accepts: clears
  /// its reported set and its scanned mark. No-op for an unknown id.
  void rescan_subscription(QueryId id);

  /// One matching pass (Eq. 8 + MBR lower bound): returns the NEW
  /// (query, stream) candidate pairs detected at `now` that `filter`
  /// accepts, recording them so they are never reported twice by this
  /// node. Runs expire(now) first, so callers need no separate sweep.
  /// Incremental (see the file comment): the result equals a full rescan of
  /// every subscription, order included.
  std::vector<SimilarityMatch> match(sim::SimTime now,
                                     const ReportFilter& filter = {});

  /// Reference oracle: the original O(subscriptions x MBRs) scan over the
  /// same state. Kept for the equivalence tests and the matching microbench;
  /// production ticks use match().
  std::vector<SimilarityMatch> match_brute_force(
      sim::SimTime now, const ReportFilter& filter = {});

  std::size_t mbr_count() const noexcept { return alive_mbrs_; }
  std::size_t subscription_count() const noexcept {
    return subscriptions_.size();
  }

  /// The node's "index work" in the most recent match() pass, read by
  /// the per-node work metric (metrics.json's load.per_node_work): the sum
  /// over subscriptions of their interval-index candidate window,
  /// upper_bound(query_high) - lower_bound(query_low - max_extent). That is
  /// what a full rescan would visit, not the pairs the incremental pass
  /// evaluated.
  std::uint64_t last_match_work() const noexcept { return last_match_work_; }

  /// Candidates the most recent match() pass found but its filter declined.
  std::uint64_t last_match_declined() const noexcept {
    return last_match_declined_;
  }

  /// Snapshot of the live MBR entries (insertion order preserved).
  std::vector<StoredMbr> mbrs() const;

  const DenseMap<QueryId, Subscription>& subscriptions() const noexcept {
    return subscriptions_;
  }
  const Subscription* find_subscription(QueryId id) const;

  /// Whether a live entry with this (stream, batch_seq) identity is stored.
  /// Lazily-deleted slots count as absent (replication digests must never
  /// claim expired state).
  bool contains_mbr(StreamId stream, std::uint64_t batch_seq) const;

  /// The live entry with this identity, or nullptr. The pointer is
  /// invalidated by any mutating call.
  const StoredMbr* find_mbr(StreamId stream, std::uint64_t batch_seq) const;

 private:
  /// One entry of the interval index: the routing-dimension interval of
  /// mbrs_[pos], plus the stream id and expiry mirrored out of the slab so
  /// the candidate scan (interval overlap, liveness, dedup) runs entirely
  /// over this hot contiguous array; the cold 100+-byte slab entry is
  /// touched only for the final multi-dimensional min_distance bound.
  struct IntervalRef {
    double low = 0.0;
    double high = 0.0;
    std::uint32_t pos = 0;
    StreamId stream = 0;
    sim::SimTime expires;
  };

  struct MbrExpiry {
    sim::SimTime expires;
    std::uint32_t pos = 0;
    friend bool operator>(const MbrExpiry& a, const MbrExpiry& b) noexcept {
      return a.expires > b.expires;
    }
  };

  struct SubExpiry {
    sim::SimTime expires;
    QueryId id = 0;
    friend bool operator>(const SubExpiry& a, const SubExpiry& b) noexcept {
      return a.expires > b.expires;
    }
  };

  template <typename T>
  using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<T>>;

  /// Identity of an MBR batch for duplicate suppression.
  struct MbrKey {
    StreamId stream = 0;
    std::uint64_t batch_seq = 0;
    bool operator==(const MbrKey&) const = default;
  };
  struct MbrKeyHash {
    std::size_t operator()(const MbrKey& k) const noexcept {
      std::uint64_t h = k.stream * 0x9E3779B97F4A7C15ull;
      h ^= k.batch_seq + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  bool dead(const StoredMbr& entry) const noexcept {
    return entry.expires <= horizon_;
  }

  /// One subscription's share of a pass: a full candidate scan of the index
  /// when the subscription is new, otherwise a scan of `fresh` only — the
  /// index entries stored since the last pass, in index order. Appends the
  /// matches `filter` accepts to `out`, records them in sub.reported, adds
  /// the candidate window to `work` and counts the declined candidates.
  void match_subscription(QueryId id, Subscription& sub,
                          std::span<const IntervalRef> fresh, sim::SimTime now,
                          const ReportFilter& filter,
                          std::vector<SimilarityMatch>& out,
                          std::uint64_t& work, std::uint64_t& declined) const;

  /// Folds slab entries added since the last merge into the sorted index.
  void merge_pending();

  /// Physically drops dead slab entries and rebuilds index + heap.
  void compact();

  // --- MBR side ---------------------------------------------------------
  std::vector<StoredMbr> mbrs_;      // slab: live entries + lazy tombstones
  std::vector<IntervalRef> sorted_;  // interval index, ascending by low
  std::size_t indexed_limit_ = 0;    // slab positions >= this are unindexed
  std::size_t matched_limit_ = 0;    // slab positions >= this are unmatched
  double max_extent_ = 0.0;  // widest routing interval in the index
  MinHeap<MbrExpiry> mbr_expiry_;
  // (stream, batch_seq) -> slab position; an entry whose slot is dead (lazy
  // tombstone) counts as absent. Rebuilt by compact().
  DenseMap<MbrKey, std::uint32_t, MbrKeyHash> by_key_;
  std::size_t alive_mbrs_ = 0;
  sim::SimTime horizon_;  // latest time passed to expire()

  // --- Subscription side ------------------------------------------------
  DenseMap<QueryId, Subscription> subscriptions_;
  MinHeap<SubExpiry> sub_expiry_;

  std::uint64_t last_match_work_ = 0;  // index work of the latest match()
  std::uint64_t last_match_declined_ = 0;  // filtered out by the latest one
};

}  // namespace sdsi::core
