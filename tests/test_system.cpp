// Middleware integration tests over the idealized ring: the full Sec IV
// machinery — content routing of MBRs, range-replicated similarity queries,
// middle-node aggregation, response pushes, the location service, and
// inner-product answering — verified end to end against ground truth.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>

#include "common/rng.hpp"
#include "core/system.hpp"
#include "obs/timeseries.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kWindow = 16;

MiddlewareConfig small_config() {
  MiddlewareConfig config;
  config.features.window_size = kWindow;
  config.features.num_coefficients = 2;
  config.batching.batch_size = 3;
  config.mbr_lifespan = sim::Duration::seconds(30);
  config.notify_period = sim::Duration::millis(500);
  return config;
}

struct Harness {
  sim::Simulator sim;
  routing::StaticRing ring;
  MiddlewareSystem system;

  explicit Harness(std::size_t nodes, MiddlewareConfig config = small_config())
      : ring(sim, common::IdSpace(16),
             routing::hash_node_ids(nodes, common::IdSpace(16), 77)),
        system(ring, config) {
    system.start();
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + sim::Duration::seconds(seconds));
  }

  /// Feeds an exponential stream x_t = gamma^t: its window shape is
  /// invariant under sliding, so its (z-normalized) feature vector is a
  /// fixed point — ground truth becomes computable.
  void feed_exponential(NodeIndex node, StreamId stream, double gamma,
                        int samples) {
    double value = 1.0;
    for (int i = 0; i < samples; ++i) {
      value *= gamma;
      system.post_stream_value(node, stream, value);
    }
  }

  dsp::FeatureVector exponential_features(double gamma) const {
    std::vector<Sample> window(kWindow);
    double value = 1.0;
    for (Sample& x : window) {
      value *= gamma;
      x = value;
    }
    return dsp::extract_features(window, system.config().features);
  }
};

TEST(MiddlewareMbr, ReplicatedExactlyOnRangeNodes) {
  Harness h(8);
  h.system.register_stream(0, 100);
  h.feed_exponential(0, 100, 1.15, 40);
  h.run_for(5.0);

  // A constant-feature stream produces point MBRs: exactly one node (the
  // successor of its key) must store them — plus the source's local copy.
  const Key key =
      h.system.strategy().key_map().key_for(h.exponential_features(1.15));
  const NodeIndex home = h.ring.find_successor_oracle(key);
  for (NodeIndex i = 0; i < h.system.num_nodes(); ++i) {
    const auto& mbrs = h.system.node(i).store.mbrs();
    if (i == home || i == 0) {
      EXPECT_FALSE(mbrs.empty()) << "node " << i;
      for (const auto& entry : mbrs) {
        EXPECT_EQ(entry.stream, 100u);
        EXPECT_EQ(entry.source, 0u);
      }
    } else {
      EXPECT_TRUE(mbrs.empty()) << "node " << i;
    }
  }
}

TEST(MiddlewareMbr, LocalCopyKeptWhenConfigured) {
  MiddlewareConfig config = small_config();
  Harness h(8, config);
  h.system.register_stream(2, 5);
  h.feed_exponential(2, 5, 1.2, 30);
  h.run_for(2.0);
  EXPECT_FALSE(h.system.node(2).store.mbrs().empty());
}

TEST(MiddlewareMbr, BatcherGovernsEmissionRate) {
  Harness h(4);
  h.system.register_stream(0, 1);
  // kWindow fills the window; after that each sample yields one feature
  // vector, and every batch_size=3 of them closes one MBR.
  h.feed_exponential(0, 1, 1.1, static_cast<int>(kWindow) + 9);
  EXPECT_EQ(h.system.mbrs_routed(), 3u);
}

TEST(MiddlewareSimilarity, EndToEndMatchSetEqualsGroundTruth) {
  // Eight exponential streams -> eight fixed feature points. A similarity
  // query must report exactly the streams within its radius: the MBRs are
  // points, so no false positives; no false dismissals is the Sec IV-E
  // invariant.
  Harness h(8);
  const double gammas[8] = {1.02, 1.05, 1.08, 1.12, 1.16, 1.20, 1.25, 1.30};
  for (NodeIndex i = 0; i < 8; ++i) {
    h.system.register_stream(i, 200 + i);
    h.feed_exponential(i, 200 + i, gammas[i], 60);
  }
  h.run_for(2.0);

  const dsp::FeatureVector probe = h.exponential_features(1.10);
  const double radius = 0.15;
  std::set<StreamId> expected;
  for (NodeIndex i = 0; i < 8; ++i) {
    if (h.exponential_features(gammas[i]).distance(probe) <= radius) {
      expected.insert(200 + i);
    }
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), 8u);  // query must discriminate

  const QueryId id = h.system.subscribe_similarity(
      3, probe, radius, sim::Duration::seconds(60));
  h.run_for(5.0);

  const ClientQueryRecord* record = h.system.client_record(id);
  ASSERT_NE(record, nullptr);
  EXPECT_GT(record->responses_received, 0u);
  EXPECT_EQ(record->matched_streams,
            (std::unordered_set<StreamId>(expected.begin(), expected.end())));
}

TEST(MiddlewareSimilarity, ContinuousQuerySeesLateArrivingStream) {
  Harness h(8);
  h.system.register_stream(0, 300);
  h.feed_exponential(0, 300, 1.10, 60);
  const dsp::FeatureVector probe = h.exponential_features(1.10);
  const QueryId id = h.system.subscribe_similarity(
      1, probe, 0.05, sim::Duration::seconds(120));
  h.run_for(3.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_EQ(record->matched_streams.size(), 1u);

  // A new stream with the same profile starts later; the continuous query
  // must pick it up too.
  h.system.register_stream(4, 301);
  h.feed_exponential(4, 301, 1.10, 60);
  h.run_for(3.0);
  EXPECT_EQ(record->matched_streams.size(), 2u);
  EXPECT_TRUE(record->matched_streams.contains(301));
}

TEST(MiddlewareSimilarity, MatchesAreDeduplicatedAcrossNodes) {
  // Radius 2.0 covers the entire feature space: every node holds the
  // subscription and every stream matches everywhere it is stored (source
  // copy + routed copy). Each stream must still be reported exactly once.
  Harness h(4);
  for (NodeIndex i = 0; i < 4; ++i) {
    h.system.register_stream(i, 400 + i);
    h.feed_exponential(i, 400 + i, 1.05 + 0.05 * i, 60);
  }
  h.run_for(2.0);
  const QueryId id = h.system.subscribe_similarity(
      0, h.exponential_features(1.10), 2.0, sim::Duration::seconds(60));
  h.run_for(10.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_EQ(record->matched_streams.size(), 4u);
  EXPECT_EQ(record->match_events, 4u);  // no duplicates slipped through
}

TEST(MiddlewareSimilarity, ExpiredQueryStopsResponding) {
  Harness h(4);
  h.system.register_stream(0, 500);
  h.feed_exponential(0, 500, 1.1, 60);
  const QueryId id = h.system.subscribe_similarity(
      1, h.exponential_features(1.1), 0.1, sim::Duration::seconds(3));
  h.run_for(6.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  const std::uint64_t responses_at_expiry = record->responses_received;
  EXPECT_GT(responses_at_expiry, 0u);
  h.run_for(6.0);
  EXPECT_EQ(record->responses_received, responses_at_expiry);
}

TEST(MiddlewareSimilarity, MbrLifespanEvictionStopsMatching) {
  MiddlewareConfig config = small_config();
  config.mbr_lifespan = sim::Duration::seconds(2);
  Harness h(4, config);
  h.system.register_stream(0, 600);
  h.feed_exponential(0, 600, 1.1, 60);
  // Let the MBRs expire before the query arrives.
  h.run_for(4.0);
  const QueryId id = h.system.subscribe_similarity(
      1, h.exponential_features(1.1), 0.1, sim::Duration::seconds(20));
  h.run_for(4.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_TRUE(record->matched_streams.empty());
}

TEST(MiddlewareInnerProduct, ValueMatchesDirectComputation) {
  // Band-limited stream (DC + first harmonic): the k=2 synopsis reconstructs
  // the window exactly, so the answer must match the raw computation.
  Harness h(6);
  h.system.register_stream(2, 700);
  std::vector<Sample> window;
  for (int t = 0; t < 64; ++t) {
    const double x =
        5.0 + 2.0 * std::cos(2.0 * std::numbers::pi * t / kWindow);
    h.system.post_stream_value(2, 700, x);
    window.push_back(x);
  }
  h.run_for(1.0);

  std::vector<double> index(4, 1.0);
  std::vector<double> weights{0.1, 0.2, 0.3, 0.4};
  const QueryId id = h.system.subscribe_inner_product(
      5, 700, index, weights, sim::Duration::seconds(30));
  h.run_for(3.0);

  double expected = 0.0;
  for (int i = 0; i < 4; ++i) {
    expected += weights[static_cast<std::size_t>(i)] *
                window[window.size() - 4 + static_cast<std::size_t>(i)];
  }
  const ClientQueryRecord* record = h.system.client_record(id);
  ASSERT_NE(record, nullptr);
  EXPECT_GT(record->inner_updates, 0u);
  EXPECT_NEAR(record->last_inner_value, expected, 1e-6);
}

TEST(MiddlewareInnerProduct, LocationServiceResolvesAndCaches) {
  Harness h(6);
  h.system.register_stream(1, 800);
  h.feed_exponential(1, 800, 1.05, 40);
  h.run_for(1.0);

  (void)h.system.subscribe_inner_product(3, 800, {1.0}, {1.0},
                                         sim::Duration::seconds(30));
  h.run_for(2.0);
  const auto& metrics = h.system.metrics();
  const std::uint64_t gets_after_first = metrics.location().originated;

  (void)h.system.subscribe_inner_product(3, 800, {1.0}, {2.0},
                                         sim::Duration::seconds(30));
  h.run_for(2.0);
  // The second subscription reuses the cached mapping: no new location
  // traffic beyond the first resolution (1 put + 1 get + 1 reply).
  EXPECT_EQ(metrics.location().originated, gets_after_first);
  EXPECT_TRUE(
      h.system.node(3).location_cache.contains(static_cast<StreamId>(800)));
}

TEST(MiddlewareInnerProduct, UnknownStreamRetriesThenDrains) {
  Harness h(4);
  const QueryId id = h.system.subscribe_inner_product(
      0, 999, {1.0}, {1.0}, sim::Duration::seconds(2));
  // While the query lives, resolution keeps retrying (a registration might
  // still be in flight through the overlay).
  h.run_for(1.0);
  EXPECT_FALSE(h.system.node(0).pending_inner_queries.empty());
  // Once the lifespan passes, the pending set drains and retries stop.
  h.run_for(4.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_EQ(record->inner_updates, 0u);
  EXPECT_TRUE(h.system.node(0).pending_inner_queries.empty());
}

TEST(MiddlewareInnerProduct, ExpiredSubscriptionStopsPushes) {
  Harness h(4);
  h.system.register_stream(0, 810);
  h.feed_exponential(0, 810, 1.08, 40);
  const QueryId id = h.system.subscribe_inner_product(
      1, 810, {1.0}, {1.0}, sim::Duration::seconds(2));
  h.run_for(5.0);
  const ClientQueryRecord* record = h.system.client_record(id);
  const std::uint64_t updates = record->inner_updates;
  EXPECT_GT(updates, 0u);
  h.run_for(5.0);
  EXPECT_EQ(record->inner_updates, updates);
  // The source-side subscription list must be empty again.
  const auto& local = h.system.node(0).streams.at(810);
  EXPECT_TRUE(local.inner_subscriptions.empty());
}

TEST(MiddlewareQueries, RangeReplicationCoversQueryBall) {
  // Every node whose arc intersects [h(q-r), h(q+r)] must hold the
  // subscription; nodes outside must not.
  Harness h(10);
  const dsp::FeatureVector probe = h.exponential_features(1.10);
  const double radius = 0.3;
  const QueryId id =
      h.system.subscribe_similarity(0, probe, radius,
                                    sim::Duration::seconds(60));
  h.run_for(5.0);
  const auto [lo, hi] =
      h.system.strategy().key_map().query_range(probe, radius);
  for (NodeIndex i = 0; i < h.system.num_nodes(); ++i) {
    const bool has =
        h.system.node(i).store.find_subscription(id) != nullptr;
    const Key pred_id = h.ring.node_id(h.ring.predecessor_index(i));
    const Key self_id = h.ring.node_id(i);
    // Node covers part of [lo, hi] iff lo..hi intersects (pred, self].
    const bool expected = h.ring.id_space().in_half_open(lo, pred_id, self_id) ||
                          h.ring.id_space().in_half_open(hi, pred_id, self_id) ||
                          h.ring.id_space().in_closed(self_id, lo, hi);
    EXPECT_EQ(has, expected) << "node " << i;
  }
}

TEST(MiddlewareMetrics, MbrTrafficIsAttributed) {
  Harness h(8);
  h.system.register_stream(0, 900);
  h.feed_exponential(0, 900, 1.12, 80);
  h.run_for(2.0);
  const auto& metrics = h.system.metrics();
  EXPECT_GT(metrics.mbr().originated, 0u);
  EXPECT_EQ(metrics.mbr().originated, h.system.mbrs_routed());
  EXPECT_EQ(metrics.mbr().delivered,
            metrics.mbr().originated + metrics.mbr().range_internal);
}

TEST(MiddlewareOverload, EveryShedAndBackpressureLossIsAccounted) {
  // Three sources publish point batches that all land on one home node,
  // whose ingest budget takes one store per window: two sheds. The first
  // source closes five batches against a publish budget of one and a
  // deferral queue of two: one publishes, four defer, two overflow. It then
  // unregisters with two still queued, and the next window drops both.
  MiddlewareConfig config = small_config();
  OverloadOptions overload;
  overload.ingest_capacity = 1;
  overload.publish_budget = 1;
  overload.defer_capacity = 2;
  config.overload = overload;
  Harness h(8, config);
  obs::MetricsRegistry registry(&h.sim, {});
  h.system.metrics().set_registry(&registry);

  const Key key =
      h.system.strategy().key_map().key_for(h.exponential_features(1.15));
  const NodeIndex home = h.ring.find_successor_oracle(key);
  std::vector<NodeIndex> sources;
  for (NodeIndex i = 0; sources.size() < 3; ++i) {
    if (i != home) {
      sources.push_back(i);
    }
  }
  for (std::size_t s = 0; s < sources.size(); ++s) {
    h.system.register_stream(sources[s], 700 + s);
    // kWindow + 2 samples close one batch; every 3 more close another.
    h.feed_exponential(sources[s], 700 + s, 1.15,
                       static_cast<int>(kWindow) + (s == 0 ? 14 : 2));
  }
  EXPECT_EQ(h.system.ingest_backpressure(sources[0]), 1.0);
  h.system.unregister_stream(sources[0], 700);
  h.run_for(2.5);  // past the first overload window at t = 2 s

  const MetricsCollector& metrics = h.system.metrics();
  EXPECT_EQ(h.system.mbrs_routed(), 3u);
  EXPECT_EQ(metrics.robustness().shed_mbrs, 2u);
  EXPECT_EQ(metrics.robustness().backpressure_deferrals, 4u);
  EXPECT_EQ(metrics.robustness().backpressure_drops, 4u);
  EXPECT_EQ(h.system.ingest_backpressure(sources[0]), 0.0);
  for (const auto& [cause, count] :
       {std::pair{fault::DropCause::kShedOverload, 2u},
        std::pair{fault::DropCause::kBackpressure, 4u}}) {
    EXPECT_EQ(h.ring.drop_count(cause), count);
    EXPECT_EQ(metrics.drops(cause), count);
    EXPECT_EQ(registry
                  .counter(std::string("drops.") +
                           fault::drop_cause_slug(cause))
                  .total(),
              count);
  }
  EXPECT_EQ(h.ring.total_drops(), 6u);
}

TEST(MiddlewareSystem, RingWiderThan52BitsAbortsForEveryStrategy) {
  // Eq. 6 needs 2^m exact in a double. The guard holds for every strategy,
  // whether or not its key map runs Eq. 6.
  const common::IdSpace space(53);
  for (const StrategyKind kind :
       {StrategyKind::kDft, StrategyKind::kEcm, StrategyKind::kLsh}) {
    MiddlewareConfig config = small_config();
    config.strategy = kind;
    EXPECT_DEATH(
        {
          sim::Simulator sim;
          routing::StaticRing ring(sim, space,
                                   routing::hash_node_ids(4, space, 77));
          MiddlewareSystem system(ring, config);
        },
        "bits\\(\\) <= 52")
        << strategy_name(kind);
  }
}

}  // namespace
}  // namespace sdsi::core
