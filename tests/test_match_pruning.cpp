// The key-interval pruned matching engine must return exactly the
// brute-force match set — the Sec IV-E no-false-dismissal property has to
// survive the optimization, and interval pruning may not add false misses
// or false hits on top of the MBR lower bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/index_store.hpp"

namespace sdsi::core {
namespace {

sim::SimTime at_ms(std::int64_t ms) {
  return sim::SimTime::zero() + sim::Duration::millis(ms);
}

using MatchSet = std::vector<std::pair<QueryId, StreamId>>;

MatchSet to_set(const std::vector<SimilarityMatch>& matches) {
  MatchSet out;
  out.reserve(matches.size());
  for (const SimilarityMatch& m : matches) {
    out.emplace_back(m.query, m.stream);
  }
  std::sort(out.begin(), out.end());
  return out;
}

IndexStore::StoredMbr random_mbr(common::Pcg32& rng, StreamId stream,
                                 std::size_t dims, sim::SimTime expires) {
  std::vector<double> low(dims);
  std::vector<double> high(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    low[d] = rng.uniform(-1.0, 0.95);
    high[d] = low[d] + rng.uniform(0.0, 0.2);
  }
  IndexStore::StoredMbr entry;
  entry.stream = stream;
  entry.mbr = dsp::Mbr(std::move(low), std::move(high));
  entry.expires = expires;
  return entry;
}

std::shared_ptr<const SimilarityQuery> random_query(common::Pcg32& rng,
                                                    QueryId id,
                                                    std::size_t dims) {
  std::vector<dsp::Complex> coeffs(dims / 2);
  for (dsp::Complex& c : coeffs) {
    c = dsp::Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  }
  SimilarityQuery query;
  query.id = id;
  query.features = dsp::FeatureVector(std::move(coeffs));
  query.radius = rng.uniform(0.01, 0.3);
  return std::make_shared<const SimilarityQuery>(std::move(query));
}

TEST(MatchPruning, EquivalentToBruteForceRandomized) {
  // >1k random MBR/subscription mixes across trials and rounds, with
  // incremental adds, lifespan churn, and repeated matching passes (the
  // per-node dedup state evolves identically in both engines).
  common::Pcg32 rng(2024, 7);
  std::size_t total_mbrs = 0;
  std::size_t total_subs = 0;
  std::size_t total_matches = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t dims = (trial % 2 == 0) ? 2 : 4;
    IndexStore pruned;
    IndexStore brute;
    std::int64_t now_ms = 0;
    StreamId next_stream = 1;
    QueryId next_query = 1;
    for (int round = 0; round < 5; ++round) {
      const int mbr_batch = static_cast<int>(rng.bounded(40)) + 5;
      for (int i = 0; i < mbr_batch; ++i) {
        const auto expires =
            at_ms(now_ms + 1 + static_cast<std::int64_t>(rng.bounded(4000)));
        const IndexStore::StoredMbr entry =
            random_mbr(rng, next_stream++, dims, expires);
        pruned.add_mbr(entry);
        brute.add_mbr(entry);
        ++total_mbrs;
      }
      const int sub_batch = static_cast<int>(rng.bounded(8)) + 2;
      for (int i = 0; i < sub_batch; ++i) {
        const auto query = random_query(rng, next_query++, dims);
        const auto expires =
            at_ms(now_ms + 1 + static_cast<std::int64_t>(rng.bounded(6000)));
        pruned.add_subscription(query, 0, expires);
        brute.add_subscription(query, 0, expires);
        ++total_subs;
      }
      now_ms += static_cast<std::int64_t>(rng.bounded(1500));
      const auto now = at_ms(now_ms);
      const MatchSet from_pruned = to_set(pruned.match(now));
      const MatchSet from_brute = to_set(brute.match_brute_force(now));
      ASSERT_EQ(from_pruned, from_brute)
          << "trial " << trial << " round " << round << " at " << now_ms
          << "ms";
      total_matches += from_pruned.size();
    }
  }
  EXPECT_GE(total_mbrs + total_subs, 1000u);
  EXPECT_GT(total_matches, 0u);  // the workload must actually exercise hits
}

TEST(MatchPruning, BoundaryOverlapStillMatches) {
  // bound == radius is a match (<=, not <); the interval prune must keep
  // the exact-boundary candidate.
  IndexStore store;
  IndexStore::StoredMbr entry;
  entry.stream = 7;
  entry.mbr = dsp::Mbr({0.60, 0.0}, {0.70, 0.0});
  entry.expires = at_ms(10000);
  store.add_mbr(entry);
  SimilarityQuery query;
  query.id = 1;
  query.features = dsp::FeatureVector({dsp::Complex{0.50, 0.0}});
  query.radius = 0.1;
  store.add_subscription(
      std::make_shared<const SimilarityQuery>(std::move(query)), 0,
      at_ms(10000));
  const auto matches = store.match(at_ms(1));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_NEAR(matches[0].bound_distance, 0.1, 1e-12);
}

TEST(MatchPruning, WideBoxAmongNarrowOnesIsFound) {
  // The scan window is widened by the largest indexed extent; one wide box
  // among many narrow ones must still be reachable from a far-away query.
  common::Pcg32 rng(5, 5);
  IndexStore store;
  for (StreamId s = 1; s <= 200; ++s) {
    IndexStore::StoredMbr entry;
    const double lo = rng.uniform(-1.0, -0.2);
    entry.stream = s;
    entry.mbr = dsp::Mbr({lo, 0.0}, {lo + 0.02, 0.0});
    entry.expires = at_ms(10000);
    store.add_mbr(entry);
  }
  IndexStore::StoredMbr wide;
  wide.stream = 999;
  wide.mbr = dsp::Mbr({-0.9, 0.0}, {0.9, 0.0});
  wide.expires = at_ms(10000);
  store.add_mbr(wide);

  SimilarityQuery query;
  query.id = 1;
  query.features = dsp::FeatureVector({dsp::Complex{0.905, 0.0}});
  query.radius = 0.01;
  store.add_subscription(
      std::make_shared<const SimilarityQuery>(std::move(query)), 0,
      at_ms(10000));
  const auto matches = store.match(at_ms(1));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].stream, 999u);
}

TEST(MatchPruning, EquivalenceAcrossCompaction) {
  // Compaction (triggered by heavy expiry churn) must not change results.
  common::Pcg32 rng(11, 3);
  IndexStore pruned;
  IndexStore brute;
  for (int wave = 0; wave < 4; ++wave) {
    const std::int64_t base = wave * 1000;
    for (int i = 0; i < 150; ++i) {
      const IndexStore::StoredMbr entry = random_mbr(
          rng, static_cast<StreamId>(wave * 1000 + i), 2,
          at_ms(base + 500 + static_cast<std::int64_t>(rng.bounded(400))));
      pruned.add_mbr(entry);
      brute.add_mbr(entry);
    }
    const auto query = random_query(rng, static_cast<QueryId>(wave) + 1, 2);
    pruned.add_subscription(query, 0, at_ms(base + 2000));
    brute.add_subscription(query, 0, at_ms(base + 2000));
    const auto now = at_ms(base + 600);
    ASSERT_EQ(to_set(pruned.match(now)), to_set(brute.match_brute_force(now)))
        << "wave " << wave;
    // Everything from this wave dies before the next one arrives.
  }
  pruned.expire(at_ms(10000));
  EXPECT_EQ(pruned.mbr_count(), 0u);
}

// --- Incremental passes ------------------------------------------------------

/// Two stores driven through one history: `incremental` answers with
/// match(), `oracle` with match_brute_force() after the expiry step match()
/// runs first. pass() checks that both agree as a set.
struct TwinStores {
  IndexStore incremental;
  IndexStore oracle;

  void add_mbr(const IndexStore::StoredMbr& entry) {
    incremental.add_mbr(entry);
    oracle.add_mbr(entry);
  }
  void add_subscription(const std::shared_ptr<const SimilarityQuery>& query,
                        sim::SimTime expires) {
    incremental.add_subscription(query, 0, expires);
    oracle.add_subscription(query, 0, expires);
  }
  MatchSet pass(sim::SimTime now) {
    const MatchSet got = to_set(incremental.match(now));
    oracle.expire(now);
    EXPECT_EQ(got, to_set(oracle.match_brute_force(now)));
    return got;
  }
};

/// The next batch of a stream whose summary drifts slowly, so consecutive
/// batches of one stream overlap.
IndexStore::StoredMbr drifting_mbr(common::Pcg32& rng,
                                   std::vector<double>& center,
                                   StreamId stream, std::uint64_t batch_seq,
                                   sim::SimTime expires) {
  std::vector<double> low(center.size());
  std::vector<double> high(center.size());
  for (std::size_t d = 0; d < center.size(); ++d) {
    center[d] += rng.uniform(-0.05, 0.05);
    low[d] = center[d] - rng.uniform(0.0, 0.1);
    high[d] = center[d] + rng.uniform(0.0, 0.1);
  }
  IndexStore::StoredMbr entry;
  entry.stream = stream;
  entry.batch_seq = batch_seq;
  entry.mbr = dsp::Mbr(std::move(low), std::move(high));
  entry.expires = expires;
  return entry;
}

std::shared_ptr<const SimilarityQuery> query_at(QueryId id, double x,
                                                double radius) {
  SimilarityQuery query;
  query.id = id;
  query.features = dsp::FeatureVector({dsp::Complex{x, 0.0}});
  query.radius = radius;
  return std::make_shared<const SimilarityQuery>(std::move(query));
}

IndexStore::StoredMbr box_at(StreamId stream, double x, double half_width,
                             sim::SimTime expires) {
  IndexStore::StoredMbr entry;
  entry.stream = stream;
  entry.mbr = dsp::Mbr({x - half_width, -half_width}, {x + half_width,
                                                       half_width});
  entry.expires = expires;
  return entry;
}

TEST(MatchPruning, MultiPassHistoriesEqualBruteForce) {
  // Streams publish many overlapping batches across passes; queries are
  // refreshed, lapse and come back under the same id; short-lived batches
  // fill the slab with tombstones so it compacts; every fifth pass sees
  // nothing new and must report nothing.
  common::Pcg32 rng(77, 1);
  std::size_t total_matches = 0;
  std::size_t readds = 0;
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const std::size_t dims = trial % 2 == 0 ? 2 : 4;
    constexpr std::uint32_t kStreams = 24;
    TwinStores stores;
    std::vector<std::vector<double>> centers(kStreams,
                                             std::vector<double>(dims));
    for (auto& center : centers) {
      for (double& x : center) {
        x = rng.uniform(-0.8, 0.8);
      }
    }
    std::vector<std::uint64_t> next_seq(kStreams, 0);
    std::vector<std::shared_ptr<const SimilarityQuery>> queries;
    std::vector<std::int64_t> expires_ms;
    std::int64_t now_ms = 0;
    for (int round = 0; round < 30; ++round) {
      SCOPED_TRACE(testing::Message() << "round " << round);
      const bool quiet = round % 5 == 4;
      if (!quiet) {
        for (int i = 0; i < 12; ++i) {
          const auto s = static_cast<StreamId>(rng.bounded(kStreams));
          const std::int64_t life =
              round % 3 == 0 ? 50 + static_cast<std::int64_t>(rng.bounded(300))
                             : 500 + static_cast<std::int64_t>(
                                         rng.bounded(3000));
          stores.add_mbr(drifting_mbr(rng, centers[s], s, next_seq[s]++,
                                      at_ms(now_ms + life)));
        }
        for (int i = 0; i < 3; ++i) {
          const std::int64_t expires =
              now_ms + 200 + static_cast<std::int64_t>(rng.bounded(2500));
          if (queries.empty() || rng.bounded(3) == 0) {
            queries.push_back(random_query(
                rng, static_cast<QueryId>(queries.size()) + 1, dims));
            expires_ms.push_back(expires);
            stores.add_subscription(queries.back(), at_ms(expires));
            continue;
          }
          // Refresh a live id, or re-add one the last pass dropped.
          const std::size_t k = rng.bounded(
              static_cast<std::uint32_t>(queries.size()));
          if (expires_ms[k] <= now_ms) {
            ++readds;
          }
          expires_ms[k] = expires;
          stores.add_subscription(queries[k], at_ms(expires));
        }
      }
      now_ms += 1 + static_cast<std::int64_t>(rng.bounded(400));
      const MatchSet got = stores.pass(at_ms(now_ms));
      if (quiet) {
        EXPECT_TRUE(got.empty()) << "a pass with nothing new reported pairs";
      }
      total_matches += got.size();
    }
  }
  EXPECT_GT(total_matches, 0u);
  EXPECT_GT(readds, 0u);
}

TEST(MatchPruning, FilteredPassesEqualBruteForce) {
  // A report filter that declines by batch (the designated-reporter rule
  // does so by key range): a declined pair stays open for the stream's later
  // batches on both paths, and no pass reports a pair twice.
  const IndexStore::ReportFilter filter =
      [](const IndexStore::StoredMbr& entry,
         const IndexStore::Subscription& sub) {
        return (entry.batch_seq + sub.query->id) % 3 == 0;
      };
  common::Pcg32 rng(91, 4);
  constexpr std::uint32_t kStreams = 16;
  IndexStore incremental;
  IndexStore oracle;
  std::vector<std::vector<double>> centers(kStreams, std::vector<double>(2));
  for (auto& center : centers) {
    for (double& x : center) {
      x = rng.uniform(-0.5, 0.5);
    }
  }
  std::vector<std::uint64_t> next_seq(kStreams, 0);
  std::size_t matched = 0;
  std::uint64_t declined = 0;
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    const std::int64_t now_ms = round * 100;
    for (int i = 0; i < 8; ++i) {
      const auto s = static_cast<StreamId>(rng.bounded(kStreams));
      const IndexStore::StoredMbr entry = drifting_mbr(
          rng, centers[s], s, next_seq[s]++, at_ms(now_ms + 1500));
      incremental.add_mbr(entry);
      oracle.add_mbr(entry);
    }
    if (round % 4 == 0) {
      const auto query =
          random_query(rng, static_cast<QueryId>(round / 4 + 1), 2);
      incremental.add_subscription(query, 0, at_ms(now_ms + 1200));
      oracle.add_subscription(query, 0, at_ms(now_ms + 1200));
    }
    const MatchSet got = to_set(incremental.match(at_ms(now_ms), filter));
    declined += incremental.last_match_declined();
    oracle.expire(at_ms(now_ms));
    ASSERT_EQ(got, to_set(oracle.match_brute_force(at_ms(now_ms), filter)));
    matched += got.size();
  }
  EXPECT_GT(matched, 0u);
  EXPECT_GT(declined, 0u);
}

TEST(MatchPruning, ReaddedQueryIdStartsOver) {
  // A query id that lapsed and comes back is a new subscription and owes
  // its client every stream again; a refresh of a live one keeps its state.
  TwinStores stores;
  stores.add_mbr(box_at(7, 0.0, 0.01, at_ms(10000)));
  const auto query = query_at(1, 0.0, 0.05);
  stores.add_subscription(query, at_ms(500));
  EXPECT_EQ(stores.pass(at_ms(1)), (MatchSet{{1, 7}}));
  EXPECT_TRUE(stores.pass(at_ms(600)).empty());  // lapsed and dropped
  stores.add_subscription(query, at_ms(5000));
  EXPECT_EQ(stores.pass(at_ms(700)), (MatchSet{{1, 7}}));
  stores.add_subscription(query, at_ms(9000));
  EXPECT_TRUE(stores.pass(at_ms(800)).empty());
}

TEST(MatchPruning, CompactionBetweenPassesKeepsTheWatermark) {
  // After the first pass all 200 stored batches lapse; the next pass
  // compacts the slab before matching, which moves the ten batches stored
  // in between down to the positions the dead ones held. They must still
  // count as new for the subscription that was scanned already.
  TwinStores stores;
  stores.add_subscription(query_at(1, 0.0, 0.05), at_ms(10000));
  for (StreamId s = 1; s <= 200; ++s) {
    stores.add_mbr(box_at(s, 0.5, 0.02, at_ms(100)));
  }
  EXPECT_TRUE(stores.pass(at_ms(1)).empty());
  for (StreamId s = 1001; s <= 1010; ++s) {
    stores.add_mbr(box_at(s, 0.0, 0.01, at_ms(10000)));
  }
  EXPECT_EQ(stores.pass(at_ms(200)).size(), 10u);
  EXPECT_EQ(stores.incremental.mbr_count(), 10u);
}

/// Sum over the live subscriptions of their interval-index candidate
/// window: entries with low in [query_low - max_extent, query_high]. Valid
/// for a store without lapsed entries, whose index then holds exactly
/// mbrs().
std::uint64_t candidate_windows(const IndexStore& store) {
  const std::vector<IndexStore::StoredMbr> mbrs = store.mbrs();
  double max_extent = 0.0;
  for (const IndexStore::StoredMbr& entry : mbrs) {
    max_extent = std::max(max_extent,
                          entry.mbr.routing_high() - entry.mbr.routing_low());
  }
  std::uint64_t total = 0;
  for (const auto& [id, sub] : store.subscriptions()) {
    const SimilarityQuery& query = *sub.query;
    const double center = query.features.routing_coordinate();
    const double query_low = center - query.radius;
    const double query_high = center + query.radius;
    const double scan_from = query_low - max_extent;
    for (const IndexStore::StoredMbr& entry : mbrs) {
      const double low = entry.mbr.routing_low();
      if (low >= scan_from && low <= query_high) {
        ++total;
      }
    }
  }
  return total;
}

TEST(MatchPruning, WorkProxyIsTheCandidateWindowOnEveryPass) {
  // On a steady pass old subscriptions meet only the new batches, but
  // last_match_work() — metrics.json's load.per_node_work — must still
  // report the full candidate windows.
  common::Pcg32 rng(9, 4);
  IndexStore store;
  const auto forever = at_ms(1000000);
  StreamId next = 1;
  for (int i = 0; i < 300; ++i) {
    store.add_mbr(random_mbr(rng, next++, 2, forever));
  }
  for (QueryId id = 1; id <= 40; ++id) {
    store.add_subscription(random_query(rng, id, 2), 0, forever);
  }
  store.match(at_ms(1));
  EXPECT_GT(store.last_match_work(), 0u);
  EXPECT_EQ(store.last_match_work(), candidate_windows(store));
  for (std::int64_t pass = 2; pass <= 4; ++pass) {
    for (int i = 0; i < 3; ++i) {
      store.add_mbr(random_mbr(rng, next++, 2, forever));
    }
    store.match(at_ms(pass));
    EXPECT_EQ(store.last_match_work(), candidate_windows(store))
        << "pass " << pass;
  }
  store.match(at_ms(5));  // nothing new
  EXPECT_EQ(store.last_match_work(), candidate_windows(store));
}

}  // namespace
}  // namespace sdsi::core
