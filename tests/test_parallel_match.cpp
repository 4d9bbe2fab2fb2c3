// Serial/parallel equivalence of the sharded execution paths, at the unit
// level: IndexStore::match with a WorkerPool attached must return the
// byte-identical match vector of the serial pass (across rounds with
// insertions, expiry, and the per-node reported-dedup state), and
// MiddlewareSystem::post_stream_burst / tick_all_nodes must leave a system
// in exactly the state the serial per-value / per-node loops produce.
//
// Carries the tsan-smoke label: under the tsan preset this doubles as the
// data-race gate over the real (non-synthetic) parallel workloads.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/index_store.hpp"
#include "core/system.hpp"
#include "core/worker_pool.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::core {
namespace {

// --- IndexStore::match -----------------------------------------------------

dsp::Mbr random_mbr(common::Pcg32& rng) {
  std::vector<double> low(4);
  std::vector<double> high(4);
  for (std::size_t d = 0; d < low.size(); ++d) {
    low[d] = rng.uniform(-1.0, 0.9);
    high[d] = low[d] + rng.uniform(0.0, 0.08);
  }
  return dsp::Mbr(std::move(low), std::move(high));
}

std::shared_ptr<const SimilarityQuery> random_query(common::Pcg32& rng,
                                                    QueryId id) {
  SimilarityQuery query;
  query.id = id;
  query.features = dsp::FeatureVector(
      {dsp::Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)},
       dsp::Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)}});
  query.radius = rng.uniform(0.05, 0.3);
  return std::make_shared<const SimilarityQuery>(std::move(query));
}

/// Drives `serial` and `pooled` through the identical randomized sequence of
/// insertions and advancing-time match passes; every pass must return the
/// exact same vector (order included).
void run_equivalence_rounds(std::size_t threads, std::uint64_t seed) {
  WorkerPool pool(threads);
  IndexStore serial;
  IndexStore pooled;
  common::Pcg32 rng(seed, 23);
  sim::SimTime now;
  std::vector<std::shared_ptr<const SimilarityQuery>> queries;
  std::uint64_t next_seq = 0;
  std::size_t matched = 0;
  for (int round = 0; round < 12; ++round) {
    // Mixed-lifespan insertions: some entries expire between rounds, so the
    // passes also agree on expiry and on the reported-dedup carry-over.
    // Streams recur, so most publish several batches across the passes;
    // earlier query ids are refreshed or, once lapsed, re-added; every
    // fourth pass sees nothing new.
    const bool quiet = round % 4 == 3;
    const int new_mbrs = quiet ? 0 : 20 + round * 5;
    const int new_subs = quiet ? 0 : 6 + round * 2;
    for (int i = 0; i < new_mbrs; ++i) {
      IndexStore::StoredMbr entry;
      entry.stream = rng.bounded(150);
      entry.batch_seq = next_seq++;
      entry.mbr = random_mbr(rng);
      entry.expires =
          now + sim::Duration::millis(500 + 500 * (i % 5));
      IndexStore::StoredMbr copy = entry;
      serial.add_mbr(std::move(entry));
      pooled.add_mbr(std::move(copy));
    }
    for (int i = 0; i < new_subs; ++i) {
      const bool reuse = !queries.empty() && i % 3 == 2;
      if (!reuse) {
        queries.push_back(
            random_query(rng, static_cast<QueryId>(queries.size())));
      }
      const auto& query =
          reuse ? queries[rng.bounded(static_cast<std::uint32_t>(
                      queries.size()))]
                : queries.back();
      const auto expires =
          now + sim::Duration::millis(800 + 700 * (i % 4));
      serial.add_subscription(query, 0, expires);
      pooled.add_subscription(query, 0, expires);
    }
    const auto a = serial.match(now);
    const auto b = pooled.match(now, &pool);
    ASSERT_EQ(a.size(), b.size()) << "round " << round;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].query, b[i].query) << "round " << round << " #" << i;
      ASSERT_EQ(a[i].stream, b[i].stream) << "round " << round << " #" << i;
      ASSERT_EQ(a[i].bound_distance, b[i].bound_distance)
          << "round " << round << " #" << i;
    }
    ASSERT_EQ(serial.mbr_count(), pooled.mbr_count());
    ASSERT_EQ(serial.subscription_count(), pooled.subscription_count());
    if (quiet) {
      EXPECT_TRUE(a.empty()) << "round " << round;
    }
    matched += a.size();
    now = now + sim::Duration::millis(400);
  }
  EXPECT_GT(matched, 0u);
}

TEST(ParallelMatch, TwoLanesMatchSerialExactly) {
  run_equivalence_rounds(2, 1);
}

TEST(ParallelMatch, EightLanesMatchSerialExactly) {
  run_equivalence_rounds(8, 2);
}

TEST(ParallelMatch, InlinePoolMatchesSerialExactly) {
  // threads == 1: the pool exists but must take the inline path.
  run_equivalence_rounds(1, 3);
}

// --- MiddlewareSystem: burst ingest and tick_all_nodes ----------------------

constexpr std::size_t kWindow = 16;

MiddlewareConfig middleware_config(std::size_t threads) {
  MiddlewareConfig config;
  config.features.window_size = kWindow;
  config.features.num_coefficients = 2;
  config.batching.batch_size = 3;
  config.mbr_lifespan = sim::Duration::seconds(30);
  config.notify_period = sim::Duration::millis(500);
  config.threads = threads;
  return config;
}

struct Harness {
  sim::Simulator sim;
  routing::StaticRing ring;
  MiddlewareSystem system;

  Harness(std::size_t nodes, std::size_t threads)
      : ring(sim, common::IdSpace(16),
             routing::hash_node_ids(nodes, common::IdSpace(16), 77)),
        system(ring, middleware_config(threads)) {}
};

std::vector<StreamBurst> make_bursts(std::size_t nodes) {
  // One long burst per (node, stream): random walks long enough to close
  // several MBR batches past the window-fill prefix.
  std::vector<StreamBurst> bursts;
  common::Pcg32 rng(99, 5);
  for (NodeIndex node = 0; node < nodes; ++node) {
    StreamBurst burst;
    burst.node = node;
    burst.stream = 500 + node;
    double value = 0.0;
    for (int i = 0; i < 64; ++i) {
      value += rng.uniform(-1.0, 1.0);
      burst.values.push_back(value);
    }
    bursts.push_back(std::move(burst));
  }
  return bursts;
}

/// The observable state two equivalent systems must agree on.
void expect_systems_equal(const MiddlewareSystem& a,
                          const MiddlewareSystem& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.mbrs_routed(), b.mbrs_routed());
  for (NodeIndex i = 0; i < a.num_nodes(); ++i) {
    const auto mbrs_a = a.node(i).store.mbrs();
    const auto mbrs_b = b.node(i).store.mbrs();
    ASSERT_EQ(mbrs_a.size(), mbrs_b.size()) << "node " << i;
    for (std::size_t k = 0; k < mbrs_a.size(); ++k) {
      EXPECT_EQ(mbrs_a[k].stream, mbrs_b[k].stream);
      EXPECT_EQ(mbrs_a[k].batch_seq, mbrs_b[k].batch_seq);
      EXPECT_EQ(mbrs_a[k].source, mbrs_b[k].source);
    }
    EXPECT_EQ(a.node(i).store.subscription_count(),
              b.node(i).store.subscription_count())
        << "node " << i;
  }
  ASSERT_EQ(a.client_records().size(), b.client_records().size());
  for (const auto& [id, record] : a.client_records()) {
    const ClientQueryRecord* other = b.client_record(id);
    ASSERT_NE(other, nullptr) << "query " << id;
    EXPECT_EQ(record.responses_received, other->responses_received);
    EXPECT_EQ(record.match_events, other->match_events);
    EXPECT_EQ(record.matched_streams, other->matched_streams);
  }
}

TEST(ParallelIngest, BurstEqualsPerValueLoop) {
  // Same ring, same data: system A ingests value by value (serial), system B
  // takes the sharded post_stream_burst path at 4 lanes. All downstream
  // state — routed MBRs, stored batches, match deliveries — must be
  // identical.
  constexpr std::size_t kNodes = 6;
  Harness serial(kNodes, 1);
  Harness burst(kNodes, 4);
  ASSERT_NE(burst.system.worker_pool(), nullptr);
  ASSERT_EQ(serial.system.worker_pool(), nullptr);
  serial.system.start();
  burst.system.start();

  const auto bursts = make_bursts(kNodes);
  for (const StreamBurst& b : bursts) {
    serial.system.register_stream(b.node, b.stream);
    burst.system.register_stream(b.node, b.stream);
  }
  // A query in each system so the burst data feeds the full match pipeline.
  const auto probe = bursts.front().values;
  std::vector<Sample> window(probe.end() - static_cast<std::ptrdiff_t>(kWindow),
                             probe.end());
  const QueryId qa = serial.system.subscribe_similarity_window(
      2, window, 0.4, sim::Duration::seconds(60));
  const QueryId qb = burst.system.subscribe_similarity_window(
      2, window, 0.4, sim::Duration::seconds(60));
  ASSERT_EQ(qa, qb);
  serial.sim.run_for(sim::Duration::seconds(2));
  burst.sim.run_for(sim::Duration::seconds(2));

  for (const StreamBurst& b : bursts) {
    for (const Sample value : b.values) {
      serial.system.post_stream_value(b.node, b.stream, value);
    }
  }
  burst.system.post_stream_burst(bursts);

  serial.sim.run_for(sim::Duration::seconds(5));
  burst.sim.run_for(sim::Duration::seconds(5));
  expect_systems_equal(serial.system, burst.system);
  EXPECT_GT(serial.system.mbrs_routed(), 0u);
}

TEST(ParallelTick, TickAllNodesEqualsSerialLoop) {
  // tick_all_nodes with a pool hoists the per-node match passes into a
  // sharded pre-pass; the post-state must equal the serial system's.
  constexpr std::size_t kNodes = 8;
  Harness serial(kNodes, 1);
  Harness pooled(kNodes, 4);

  const auto bursts = make_bursts(kNodes);
  for (const StreamBurst& b : bursts) {
    serial.system.register_stream(b.node, b.stream);
    pooled.system.register_stream(b.node, b.stream);
    for (const Sample value : b.values) {
      serial.system.post_stream_value(b.node, b.stream, value);
      pooled.system.post_stream_value(b.node, b.stream, value);
    }
  }
  const auto probe = bursts.back().values;
  std::vector<Sample> window(probe.end() - static_cast<std::ptrdiff_t>(kWindow),
                             probe.end());
  serial.system.subscribe_similarity_window(1, window, 0.4,
                                            sim::Duration::seconds(60));
  pooled.system.subscribe_similarity_window(1, window, 0.4,
                                            sim::Duration::seconds(60));
  serial.sim.run_for(sim::Duration::seconds(1));
  pooled.sim.run_for(sim::Duration::seconds(1));

  for (int round = 0; round < 4; ++round) {
    serial.system.tick_all_nodes();
    pooled.system.tick_all_nodes();
    serial.sim.run_for(sim::Duration::seconds(1));
    pooled.sim.run_for(sim::Duration::seconds(1));
  }
  expect_systems_equal(serial.system, pooled.system);
}

}  // namespace
}  // namespace sdsi::core
