// Per-node index storage: lifespans, matching, and per-node deduplication.
#include <gtest/gtest.h>

#include "core/index_store.hpp"

namespace sdsi::core {
namespace {

dsp::FeatureVector fv(double re, double im = 0.0) {
  return dsp::FeatureVector({dsp::Complex{re, im}});
}

sim::SimTime at_ms(std::int64_t ms) {
  return sim::SimTime::zero() + sim::Duration::millis(ms);
}

IndexStore::StoredMbr mbr_entry(StreamId stream, double lo, double hi,
                                std::int64_t expires_ms) {
  IndexStore::StoredMbr entry;
  entry.stream = stream;
  entry.source = 0;
  entry.mbr = dsp::Mbr({lo, 0.0}, {hi, 0.0});
  entry.expires = at_ms(expires_ms);
  return entry;
}

std::shared_ptr<const SimilarityQuery> query(QueryId id, double center,
                                             double radius) {
  SimilarityQuery q;
  q.id = id;
  q.client = 1;
  q.features = fv(center);
  q.radius = radius;
  return std::make_shared<const SimilarityQuery>(std::move(q));
}

TEST(IndexStore, EmptyStoreMatchesNothing) {
  IndexStore store;
  EXPECT_TRUE(store.match(at_ms(0)).empty());
  EXPECT_EQ(store.mbr_count(), 0u);
  EXPECT_EQ(store.subscription_count(), 0u);
}

TEST(IndexStore, MatchWithinRadius) {
  IndexStore store;
  store.add_mbr(mbr_entry(7, 0.30, 0.35, 10000));
  store.add_subscription(query(1, 0.32, 0.1), 0, at_ms(10000));
  const auto matches = store.match(at_ms(100));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].query, 1u);
  EXPECT_EQ(matches[0].stream, 7u);
  EXPECT_DOUBLE_EQ(matches[0].bound_distance, 0.0);  // center inside the box
}

TEST(IndexStore, NoMatchOutsideRadius) {
  IndexStore store;
  store.add_mbr(mbr_entry(7, 0.80, 0.85, 10000));
  store.add_subscription(query(1, 0.32, 0.1), 0, at_ms(10000));
  EXPECT_TRUE(store.match(at_ms(100)).empty());
}

TEST(IndexStore, MatchReportsEachStreamOnce) {
  IndexStore store;
  store.add_subscription(query(1, 0.3, 0.1), 0, at_ms(10000));
  store.add_mbr(mbr_entry(7, 0.29, 0.31, 10000));
  EXPECT_EQ(store.match(at_ms(100)).size(), 1u);
  // A later MBR of the same stream must not re-report.
  store.add_mbr(mbr_entry(7, 0.30, 0.32, 10000));
  EXPECT_TRUE(store.match(at_ms(200)).empty());
  // But a different stream in range does.
  store.add_mbr(mbr_entry(8, 0.30, 0.32, 10000));
  EXPECT_EQ(store.match(at_ms(300)).size(), 1u);
}

TEST(IndexStore, SeparateQueriesTrackSeparateReportedSets) {
  IndexStore store;
  store.add_subscription(query(1, 0.3, 0.1), 0, at_ms(10000));
  store.add_subscription(query(2, 0.3, 0.2), 0, at_ms(10000));
  store.add_mbr(mbr_entry(7, 0.29, 0.31, 10000));
  EXPECT_EQ(store.match(at_ms(100)).size(), 2u);
}

TEST(IndexStore, ExpiredMbrsDropAndStopMatching) {
  IndexStore store;
  store.add_mbr(mbr_entry(7, 0.3, 0.3, 5000));
  store.add_subscription(query(1, 0.3, 0.1), 0, at_ms(100000));
  store.expire(at_ms(5000));  // expiry is inclusive
  EXPECT_EQ(store.mbr_count(), 0u);
  EXPECT_TRUE(store.match(at_ms(6000)).empty());
}

TEST(IndexStore, ExpiredSubscriptionsDrop) {
  IndexStore store;
  store.add_subscription(query(1, 0.3, 0.1), 0, at_ms(2000));
  store.expire(at_ms(1999));
  EXPECT_EQ(store.subscription_count(), 1u);
  store.expire(at_ms(2000));
  EXPECT_EQ(store.subscription_count(), 0u);
}

TEST(IndexStore, MatchSkipsExpiredEvenBeforeSweep) {
  IndexStore store;
  store.add_mbr(mbr_entry(7, 0.3, 0.3, 1000));
  store.add_subscription(query(1, 0.3, 0.1), 0, at_ms(10000));
  // No expire() call; match at t=2000 must still ignore the stale MBR.
  EXPECT_TRUE(store.match(at_ms(2000)).empty());
}

TEST(IndexStore, ResubscribeRefreshesLifespanKeepsReported) {
  IndexStore store;
  auto q = query(1, 0.3, 0.1);
  store.add_subscription(q, 5, at_ms(1000));
  store.add_mbr(mbr_entry(7, 0.3, 0.3, 100000));
  EXPECT_EQ(store.match(at_ms(10)).size(), 1u);
  // Range re-replication of the same query: lifespan refreshes, the
  // reported set survives (stream 7 is not re-announced).
  store.add_subscription(q, 5, at_ms(50000));
  EXPECT_EQ(store.subscription_count(), 1u);
  EXPECT_TRUE(store.match(at_ms(2000)).empty());
  const auto* sub = store.find_subscription(1);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->expires, at_ms(50000));
}

TEST(IndexStore, FindSubscriptionMissingReturnsNull) {
  IndexStore store;
  EXPECT_EQ(store.find_subscription(99), nullptr);
}

TEST(IndexStore, BoundDistanceIsBoxDistance) {
  IndexStore store;
  store.add_mbr(mbr_entry(7, 0.50, 0.60, 10000));
  store.add_subscription(query(1, 0.45, 0.1), 0, at_ms(10000));
  const auto matches = store.match(at_ms(100));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_NEAR(matches[0].bound_distance, 0.05, 1e-12);
}

TEST(IndexStore, DeclinedCandidateStaysOpenForALaterBatch) {
  // The filter declines batch 0 of stream 7, so the pair is not recorded;
  // batch 1, which the filter accepts, reports it.
  const IndexStore::ReportFilter odd_batches =
      [](const IndexStore::StoredMbr& entry, const IndexStore::Subscription&) {
        return entry.batch_seq % 2 == 1;
      };
  IndexStore store;
  store.add_subscription(query(1, 0.3, 0.1), 0, at_ms(10000));
  store.add_mbr(mbr_entry(7, 0.29, 0.31, 10000));
  EXPECT_TRUE(store.match(at_ms(100), odd_batches).empty());
  EXPECT_EQ(store.last_match_declined(), 1u);
  IndexStore::StoredMbr second = mbr_entry(7, 0.30, 0.32, 10000);
  second.batch_seq = 1;
  store.add_mbr(second);
  const auto matches = store.match(at_ms(200), odd_batches);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].stream, 7u);
  EXPECT_EQ(store.last_match_declined(), 0u);
  EXPECT_TRUE(store.match(at_ms(300), odd_batches).empty());
}

TEST(IndexStore, RescanReportsLiveCandidatesAgain) {
  IndexStore store;
  store.add_subscription(query(1, 0.3, 0.1), 0, at_ms(10000));
  store.add_mbr(mbr_entry(7, 0.29, 0.31, 10000));
  EXPECT_EQ(store.match(at_ms(100)).size(), 1u);
  EXPECT_TRUE(store.match(at_ms(200)).empty());
  store.rescan_subscription(1);
  store.rescan_subscription(99);  // unknown id: nothing to do
  const auto again = store.match(at_ms(300));
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].stream, 7u);
  EXPECT_EQ(again[0].detected_at, at_ms(300));
  EXPECT_TRUE(store.match(at_ms(400)).empty());
}

TEST(IndexStore, ManyMbrsManyQueries) {
  IndexStore store;
  for (int s = 0; s < 50; ++s) {
    const double x = s * 0.02 - 0.5;  // spread across [-0.5, 0.48]
    store.add_mbr(mbr_entry(static_cast<StreamId>(s), x, x + 0.01, 10000));
  }
  store.add_subscription(query(1, 0.0, 0.05), 0, at_ms(10000));
  const auto matches = store.match(at_ms(100));
  // Streams whose boxes intersect [-0.05, 0.05]: x in [-0.06, 0.05].
  EXPECT_GE(matches.size(), 4u);
  EXPECT_LE(matches.size(), 7u);
  for (const auto& m : matches) {
    EXPECT_LE(m.bound_distance, 0.05);
  }
}

}  // namespace
}  // namespace sdsi::core
