// Replica repair over one key arc (core/arc_sync), the store side that the
// simulator middleware and the socket node share: which entries lie on an
// arc, the order they are offered in, and that two stores converge through
// digest -> request -> backfill.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/arc_sync.hpp"

namespace sdsi::core {
namespace {

const common::IdSpace kSpace(8);

/// Key map whose ranges are spelled out in the entries themselves: an MBR
/// spans the keys [low[0], low[1]], a query the keys [re, im] of its first
/// coefficient. Either may run through key 0.
class LiteralKeys final : public ContentKeyMap {
 public:
  Key key_for(const dsp::FeatureVector& features) const override {
    return static_cast<Key>(features[0].real());
  }
  std::pair<Key, Key> mbr_range(const dsp::Mbr& mbr) const override {
    return {static_cast<Key>(mbr.low()[0]), static_cast<Key>(mbr.low()[1])};
  }
  std::pair<Key, Key> query_range(const dsp::FeatureVector& features,
                                  double /*radius*/) const override {
    return {static_cast<Key>(features[0].real()),
            static_cast<Key>(features[0].imag())};
  }
};

const LiteralKeys kKeys;

sim::SimTime at_s(int seconds) {
  return sim::SimTime::zero() + sim::Duration::seconds(seconds);
}

IndexStore::StoredMbr mbr(StreamId stream, Key lo, Key hi,
                          int expires_s = 100) {
  const std::vector<double> corner{static_cast<double>(lo),
                                   static_cast<double>(hi)};
  IndexStore::StoredMbr entry;
  entry.stream = stream;
  entry.source = 0;
  entry.mbr = dsp::Mbr(corner, corner);
  entry.batch_seq = 1;
  entry.expires = at_s(expires_s);
  return entry;
}

std::shared_ptr<const SimilarityQuery> query(QueryId id, Key lo, Key hi) {
  SimilarityQuery q;
  q.id = id;
  q.client = 0;
  q.features = dsp::FeatureVector(
      {dsp::Complex{static_cast<double>(lo), static_cast<double>(hi)}});
  return std::make_shared<const SimilarityQuery>(std::move(q));
}

std::vector<StreamId> streams_of(const ReplicaPutPayload& put) {
  std::vector<StreamId> out;
  for (const ReplicaMbrEntry& entry : put.mbrs) {
    out.push_back(entry.stream);
  }
  return out;
}

std::vector<QueryId> queries_of(const ReplicaPutPayload& put) {
  std::vector<QueryId> out;
  for (const ReplicaSubscriptionEntry& entry : put.subscriptions) {
    out.push_back(entry.query->id);
  }
  return out;
}

/// The arc's ids, sorted: store order may differ between two stores.
std::pair<std::vector<StreamId>, std::vector<QueryId>> arc_ids(
    IndexStore& store, Key lo, Key hi, sim::SimTime now) {
  const AntiEntropyDigestPayload digest =
      arc_digest(store, kKeys, kSpace, lo, hi, now);
  std::vector<StreamId> mbrs;
  for (const MbrBatchId& id : digest.mbr_keys) {
    mbrs.push_back(id.stream);
  }
  std::sort(mbrs.begin(), mbrs.end());
  return {mbrs, digest.query_ids};
}

TEST(ArcSync, RangeMeetsArcAtEitherEndOrBySwallowingIt) {
  // Arc (50, 100].
  EXPECT_TRUE(range_meets_arc(kSpace, 60, 70, 50, 100));
  EXPECT_TRUE(range_meets_arc(kSpace, 40, 60, 50, 100));    // hi inside
  EXPECT_TRUE(range_meets_arc(kSpace, 90, 120, 50, 100));   // lo inside
  EXPECT_TRUE(range_meets_arc(kSpace, 10, 200, 50, 100));   // swallows it
  EXPECT_TRUE(range_meets_arc(kSpace, 100, 10, 50, 100));   // wraps from hi
  EXPECT_FALSE(range_meets_arc(kSpace, 10, 50, 50, 100));   // 50 is excluded
  EXPECT_FALSE(range_meets_arc(kSpace, 101, 50, 50, 100));  // all but the arc
  EXPECT_FALSE(range_meets_arc(kSpace, 240, 10, 50, 100));  // wraps key 0
}

TEST(ArcSync, RangesAndArcsThatWrapKeyZero) {
  // Arc (200, 20] holds key 0.
  EXPECT_TRUE(range_meets_arc(kSpace, 250, 5, 200, 20));
  EXPECT_TRUE(range_meets_arc(kSpace, 210, 215, 200, 20));
  EXPECT_TRUE(range_meets_arc(kSpace, 10, 30, 200, 20));
  EXPECT_TRUE(range_meets_arc(kSpace, 190, 30, 200, 20));  // swallows it
  EXPECT_FALSE(range_meets_arc(kSpace, 30, 190, 200, 20));
  EXPECT_FALSE(range_meets_arc(kSpace, 21, 200, 200, 20));
}

TEST(ArcSync, FullCircleArcMeetsEveryRange) {
  // A lone node's arc (a, a] is the whole ring.
  EXPECT_TRUE(range_meets_arc(kSpace, 1, 2, 77, 77));
  EXPECT_TRUE(range_meets_arc(kSpace, 77, 77, 77, 77));
  EXPECT_TRUE(range_meets_arc(kSpace, 250, 3, 77, 77));

  IndexStore store;
  store.add_mbr(mbr(1, 10, 20));
  store.add_mbr(mbr(2, 240, 5));
  store.add_subscription(query(3, 100, 110), 0, at_s(100));
  const ReplicaPutPayload put =
      arc_entries(store, kKeys, kSpace, 77, 77, at_s(1));
  EXPECT_EQ(streams_of(put), (std::vector<StreamId>{1, 2}));
  EXPECT_EQ(queries_of(put), (std::vector<QueryId>{3}));
}

TEST(ArcSync, ArcEntriesAreTheLiveEntriesOnTheArcInStoreOrder) {
  IndexStore store;
  store.add_mbr(mbr(5, 60, 70));       // inside (50, 100]
  store.add_mbr(mbr(4, 10, 20));       // elsewhere
  store.add_mbr(mbr(3, 240, 55));      // wraps key 0 into the arc
  store.add_mbr(mbr(2, 90, 95, 10));   // on the arc, but lapses at 10 s
  store.add_mbr(mbr(1, 20, 200));      // swallows the arc
  const ReplicaPutPayload put =
      arc_entries(store, kKeys, kSpace, 50, 100, at_s(20));
  EXPECT_EQ(streams_of(put), (std::vector<StreamId>{5, 3, 1}));
  EXPECT_TRUE(put.subscriptions.empty());
  EXPECT_EQ(entry_count(put), 3u);
}

TEST(ArcSync, SubscriptionsComeOutInAscendingIdWhateverTheInsertionOrder) {
  IndexStore store;
  for (const QueryId id : std::vector<QueryId>{9, 3, 12, 7, 1}) {
    store.add_subscription(query(id, 60, 70), 0, at_s(100));
  }
  store.add_subscription(query(4, 10, 20), 0, at_s(100));  // off the arc
  const ReplicaPutPayload put =
      arc_entries(store, kKeys, kSpace, 50, 100, at_s(1));
  EXPECT_EQ(queries_of(put), (std::vector<QueryId>{1, 3, 7, 9, 12}));
  EXPECT_EQ(arc_digest(store, kKeys, kSpace, 50, 100, at_s(1)).query_ids,
            (std::vector<QueryId>{1, 3, 7, 9, 12}));
}

TEST(ArcSync, ExpiredSubscriptionsAreNeverOffered) {
  IndexStore store;
  store.add_subscription(query(1, 60, 70), 0, at_s(10));
  store.add_subscription(query(2, 60, 70), 0, at_s(100));

  // Backfill does not expire the store, yet still skips the lapsed entry.
  AntiEntropyRequestPayload request;
  request.query_ids = {1, 2};
  EXPECT_EQ(queries_of(backfill(store, request, at_s(20))),
            (std::vector<QueryId>{2}));

  EXPECT_EQ(queries_of(arc_entries(store, kKeys, kSpace, 50, 100, at_s(20))),
            (std::vector<QueryId>{2}));
  EXPECT_EQ(arc_digest(store, kKeys, kSpace, 50, 100, at_s(20)).query_ids,
            (std::vector<QueryId>{2}));

  // Nor does a put revive one.
  ReplicaPutPayload put;
  put.subscriptions.push_back({query(3, 60, 70), 0, at_s(10)});
  IndexStore other;
  EXPECT_EQ(apply_replica_put(other, put, at_s(20)).added, 0u);
  EXPECT_EQ(other.subscription_count(), 0u);
}

TEST(ArcSync, EntriesListedInADigestAreLeftOut) {
  IndexStore store;
  store.add_mbr(mbr(1, 60, 70));
  store.add_mbr(mbr(2, 60, 70));
  store.add_subscription(query(3, 60, 70), 0, at_s(100));
  store.add_subscription(query(4, 60, 70), 0, at_s(100));
  AntiEntropyDigestPayload digest;
  digest.mbr_keys = {{1, 1}, {2, 7}};  // stream 2 listed under another batch
  digest.query_ids = {4};
  const ReplicaPutPayload put =
      arc_entries(store, kKeys, kSpace, 50, 100, at_s(1), &digest);
  EXPECT_EQ(streams_of(put), (std::vector<StreamId>{2}));
  EXPECT_EQ(queries_of(put), (std::vector<QueryId>{3}));
}

TEST(ArcSync, TwoStoresConvergeThroughDigestRequestAndBackfill) {
  const Key lo = 50;
  const Key hi = 100;
  const sim::SimTime now = at_s(1);
  IndexStore a;
  IndexStore b;
  a.add_mbr(mbr(1, 60, 70));
  a.add_mbr(mbr(2, 90, 120));
  b.add_mbr(mbr(2, 90, 120));
  b.add_mbr(mbr(3, 240, 60));
  b.add_mbr(mbr(4, 10, 20));  // off the arc: never shipped
  a.add_subscription(query(10, 60, 70), 0, at_s(100));
  b.add_subscription(query(11, 55, 56), 0, at_s(100));

  // One anti-entropy exchange per direction: the digest's receiver pulls
  // what it lacks and pushes back what the digest lacks.
  const auto exchange = [&](IndexStore& owner, IndexStore& replica) {
    const AntiEntropyDigestPayload digest =
        arc_digest(owner, kKeys, kSpace, lo, hi, now);
    const AntiEntropyRequestPayload gaps = digest_gaps(replica, digest, now);
    apply_replica_put(replica, backfill(owner, gaps, now), now);
    apply_replica_put(
        owner, arc_entries(replica, kKeys, kSpace, lo, hi, now, &digest),
        now);
  };
  exchange(a, b);
  exchange(b, a);

  const auto expected = std::make_pair(std::vector<StreamId>{1, 2, 3},
                                       std::vector<QueryId>{10, 11});
  EXPECT_EQ(arc_ids(a, lo, hi, now), expected);
  EXPECT_EQ(arc_ids(b, lo, hi, now), expected);
  EXPECT_FALSE(a.contains_mbr(4, 1));
  EXPECT_TRUE(digest_gaps(a, arc_digest(b, kKeys, kSpace, lo, hi, now), now)
                  .mbr_keys.empty());
}

TEST(ArcSync, ApplyingTheSamePutTwiceAddsNothing) {
  ReplicaPutPayload put;
  for (const IndexStore::StoredMbr& entry : {mbr(7, 60, 70), mbr(8, 1, 2)}) {
    put.mbrs.push_back({entry.stream, entry.source, entry.mbr,
                        entry.batch_seq, entry.expires});
  }
  put.subscriptions.push_back({query(5, 60, 70), 0, at_s(100)});

  IndexStore store;
  store.add_mbr(mbr(7, 60, 70));  // already held
  const AppliedPut first = apply_replica_put(store, put, at_s(1));
  EXPECT_EQ(first.added, 2u);
  EXPECT_EQ(first.first_stream, 8u);
  EXPECT_EQ(first.first_seq, 1u);
  EXPECT_EQ(apply_replica_put(store, put, at_s(2)).added, 0u);
  EXPECT_EQ(store.mbr_count(), 2u);
  EXPECT_EQ(store.subscription_count(), 1u);
}

}  // namespace
}  // namespace sdsi::core
