// Churn convergence under replication (chaos-smoke).
//
// A seeded random schedule of crashes, recoveries, and fresh joins runs
// against the replication layer (successor-list mirroring, ownership
// handoff, anti-entropy) with soft-state query refresh DISABLED — the
// subscriptions survive churn only because replicas and handoffs carry
// them. After the schedule ends and stabilization + anti-entropy settle,
// every query's client-visible match set must equal the reference
// match_brute_force scan over a global store fed with every publication
// and every query — exact set equality, no lost and no spurious matches.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "chord/network.hpp"
#include "core/experiment.hpp"
#include "core/index_store.hpp"
#include "core/system.hpp"
#include "routing/prefix_ring.hpp"
#include "routing/static_ring.hpp"
#include "streams/generators.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kNodes = 24;
constexpr NodeIndex kClient = 0;  // poses every query; never crashed

struct ChurnHarness {
  sim::Simulator sim;
  chord::ChordNetwork net;
  MiddlewareSystem system;
  IndexStore reference;  // global store: every publication + every query
  std::vector<std::shared_ptr<const SimilarityQuery>> queries;

  explicit ChurnHarness(std::uint64_t seed)
      : net(sim, chord_config()),
        system((net.bootstrap(
                    routing::hash_node_ids(kNodes, common::IdSpace(32), seed)),
                net),
               middleware_config()) {
    system.set_publish_hook([this](const MbrPayload& payload) {
      reference.add_mbr(IndexStore::StoredMbr{payload.stream, payload.source,
                                              payload.mbr, payload.batch_seq,
                                              sim.now(), payload.expires});
    });
    system.set_query_hook(
        [this](std::shared_ptr<const SimilarityQuery> query) {
          reference.add_subscription(
              query, 0, query->issued_at + query->lifespan);
          queries.push_back(std::move(query));
        });
  }

  static chord::ChordConfig chord_config() {
    chord::ChordConfig config;
    config.successor_list_length = 6;
    return config;
  }

  static MiddlewareConfig middleware_config() {
    MiddlewareConfig config;
    config.features = experiment_feature_config();
    config.features.window_size = 16;  // MBRs flow within seconds
    // Batches from the whole churn window must still be live at the final
    // check, or the test would only ever examine post-churn state.
    config.mbr_lifespan = sim::Duration::seconds(60);
    config.notify_period = sim::Duration::millis(1000);
    // Publication losses at crash instants heal through acks + refresh;
    // query refresh stays OFF so subscription survival is pure replication.
    config.mbr_ack.enabled = true;
    config.mbr_refresh_period = sim::Duration::seconds(5);
    config.replication_factor = 2;
    config.anti_entropy_period = sim::Duration::millis(500);
    return config;
  }
};

TEST(ChurnConvergence, MatchSetsEqualTheBruteForceReferenceAfterChurn) {
  ChurnHarness h(1337);
  common::RngFactory rng_factory(1337);

  // Background stabilization, as a deployment would run it.
  h.sim.schedule_periodic(h.sim.now() + sim::Duration::millis(250),
                          sim::Duration::millis(250),
                          [&h] { h.net.run_maintenance_rounds(1); });

  // One random-walk stream per original node; a dead data center's sensor
  // uplink is gone, so posting gates on liveness.
  std::vector<std::unique_ptr<streams::RandomWalkGenerator>> generators;
  common::Pcg32 period_rng = rng_factory.make("periods");
  for (NodeIndex node = 0; node < kNodes; ++node) {
    const StreamId sid = 1000 + node;
    h.system.register_stream(node, sid);
    generators.push_back(std::make_unique<streams::RandomWalkGenerator>(
        rng_factory.make("walk", node)));
    auto* generator = generators.back().get();
    const auto period =
        sim::Duration::micros(period_rng.uniform_int(150'000, 250'000));
    h.sim.schedule_periodic(h.sim.now() + period, period,
                            [&h, node, sid, generator] {
                              if (h.net.is_alive(node)) {
                                h.system.post_stream_value(node, sid,
                                                           generator->next());
                              }
                            });
  }

  // Six similarity queries from the fixed client, spread over the churn
  // window, all outliving the run.
  auto query_rng = std::make_shared<common::Pcg32>(rng_factory.make("q"));
  for (int q = 0; q < 6; ++q) {
    h.sim.schedule_at(
        sim::SimTime::zero() + sim::Duration::seconds(2 + 3 * q),
        [&h, query_rng] {
          std::vector<Sample> window(16);
          Sample value = query_rng->uniform(-5.0, 5.0);
          for (Sample& x : window) {
            value += query_rng->uniform(-1.0, 1.0);
            x = value;
          }
          (void)h.system.subscribe_similarity_window(
              kClient, window, 0.2, sim::Duration::seconds(60));
        });
  }

  h.system.start();

  // The churn schedule: one random membership event every ~1.5 s between
  // t=5 s and t=30 s — crash an alive node (never the client, never below
  // two-thirds of the ring), recover a dead one (empty soft state + handoff
  // pull, the Experiment recover idiom), or join a fresh data center.
  auto churn_rng = std::make_shared<common::Pcg32>(rng_factory.make("churn"));
  auto dead = std::make_shared<std::vector<NodeIndex>>();
  for (double at = 5.0; at < 30.0; at += 1.5) {
    h.sim.schedule_at(
        sim::SimTime::zero() + sim::Duration::seconds(at),
        [&h, churn_rng, dead] {
          const std::uint32_t kind = churn_rng->bounded(3);
          if (kind == 0 && h.net.alive_count() > 2 * kNodes / 3) {
            NodeIndex victim;
            do {
              victim = static_cast<NodeIndex>(
                  churn_rng->bounded(static_cast<std::uint32_t>(
                      h.net.num_nodes())));
            } while (victim == kClient || !h.net.is_alive(victim));
            h.net.crash(victim);
            dead->push_back(victim);
          } else if (kind == 1 && !dead->empty()) {
            const std::size_t pick = churn_rng->bounded(
                static_cast<std::uint32_t>(dead->size()));
            const NodeIndex back = (*dead)[pick];
            dead->erase(dead->begin() + static_cast<std::ptrdiff_t>(pick));
            NodeIndex via = kClient;
            h.net.recover(back, via);
            h.system.reset_node_soft_state(back);
            h.system.handle_node_join(back);
          } else {
            const Key id = h.net.id_space().wrap(churn_rng->next64());
            for (NodeIndex n = 0; n < h.net.num_nodes(); ++n) {
              if (h.net.node_id(n) == id) {
                return;  // astronomically unlikely; keep ids distinct
              }
            }
            const NodeIndex newcomer = h.net.join(id, kClient);
            h.system.attach_node(newcomer);
            h.system.handle_node_join(newcomer);
          }
        });
  }

  // Churn ends at t=30 s; settle to t=50 s (stabilization, anti-entropy,
  // ack retries, one refresh period, response pushes all complete).
  h.sim.run_until(sim::SimTime::zero() + sim::Duration::seconds(50));

  // Reference: the global brute-force scan at the final instant.
  std::map<QueryId, std::set<StreamId>> expected;
  for (const auto& query : h.queries) {
    expected[query->id];  // every posed query appears, even if matchless
  }
  for (const SimilarityMatch& match :
       h.reference.match_brute_force(h.sim.now())) {
    expected[match.query].insert(match.stream);
  }

  // Delivered: what the clients actually saw.
  std::map<QueryId, std::set<StreamId>> delivered;
  for (const auto& query : h.queries) {
    const ClientQueryRecord* record = h.system.client_record(query->id);
    ASSERT_NE(record, nullptr) << "query " << query->id;
    delivered[query->id] = std::set<StreamId>(
        record->matched_streams.begin(), record->matched_streams.end());
  }

  std::size_t total_pairs = 0;
  for (const auto& [id, streams] : expected) {
    total_pairs += streams.size();
    EXPECT_EQ(delivered[id], streams) << "query " << id;
  }
  // The schedule must have produced real work or the equality is vacuous.
  EXPECT_GT(total_pairs, 0u);
  EXPECT_GT(h.system.metrics().robustness().replica_puts, 0u);
  EXPECT_GT(h.system.metrics().robustness().handoff_entries, 0u);
}

// The substrate-agnostic successor-list contract the replication layer
// mirrors through: every substrate returns the next `count` distinct live
// nodes in ring order, never including the node itself.
TEST(ChurnConvergence, SuccessorListsAgreeAcrossSubstrates) {
  sim::Simulator sim;
  const auto ids = routing::hash_node_ids(10, common::IdSpace(32), 7);

  routing::StaticRing ring(sim, common::IdSpace(32), ids);
  routing::PrefixRing prefix(sim, common::IdSpace(32), ids);
  chord::ChordNetwork net(sim, ChurnHarness::chord_config());
  net.bootstrap(ids);

  for (NodeIndex node = 0; node < 10; ++node) {
    const auto expect = ring.successors(node, 3);
    ASSERT_EQ(expect.size(), 3u);
    EXPECT_EQ(net.successors(node, 3), expect) << "node " << node;
    EXPECT_EQ(prefix.successors(node, 3), expect) << "node " << node;
    EXPECT_EQ(std::count(expect.begin(), expect.end(), node), 0);
    // Ring order: each entry is the successor of the previous one.
    EXPECT_EQ(expect[0], ring.successor_index(node));
    EXPECT_EQ(expect[1], ring.successor_index(expect[0]));

    // A count past the ring size wraps to every other node exactly once.
    const auto all = ring.successors(node, 12);
    ASSERT_EQ(all.size(), 9u) << "node " << node;
    EXPECT_EQ(prefix.successors(node, 12), all) << "node " << node;
    EXPECT_EQ(std::count(all.begin(), all.end(), node), 0);
    NodeIndex previous = node;
    for (const NodeIndex entry : all) {
      EXPECT_EQ(entry, ring.successor_index(previous)) << "node " << node;
      previous = entry;
    }
  }
}

}  // namespace
}  // namespace sdsi::core
