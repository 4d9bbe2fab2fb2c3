// The self-healing MBR data path: acked publication with capped exponential
// backoff, soft-state MBR refresh, idempotent (deduplicated) stores, the
// location-get retry counter — and the headline equivalence: a lossy run
// with healing enabled converges to exactly the fault-free match sets.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "chord/network.hpp"
#include "core/system.hpp"
#include "fault/model.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kWindow = 16;

MiddlewareConfig base_config() {
  MiddlewareConfig config;
  config.features.window_size = kWindow;
  config.features.num_coefficients = 2;
  config.batching.batch_size = 3;
  config.mbr_lifespan = sim::Duration::seconds(10);
  config.notify_period = sim::Duration::millis(500);
  return config;
}

struct Harness {
  sim::Simulator sim;
  chord::ChordNetwork net;
  MiddlewareSystem system;

  Harness(std::size_t nodes, MiddlewareConfig config, std::uint64_t seed = 13)
      : net(sim,
            [] {
              chord::ChordConfig chord_config;
              chord_config.successor_list_length = 4;
              return chord_config;
            }()),
        system((net.bootstrap(routing::hash_node_ids(nodes, common::IdSpace(32),
                                                     seed)),
                net),
               config) {
    system.start();
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + sim::Duration::seconds(seconds));
  }

  dsp::FeatureVector exponential_features(double gamma) const {
    std::vector<Sample> window(kWindow);
    double value = 1.0;
    for (Sample& x : window) {
      value *= gamma;
      x = value;
    }
    return dsp::extract_features(window, base_config().features);
  }

  void start_stream(NodeIndex node, StreamId stream, double gamma) {
    system.register_stream(node, stream);
    auto value = std::make_shared<double>(1.0);
    sim.schedule_periodic(sim.now() + sim::Duration::millis(100),
                          sim::Duration::millis(100),
                          [this, node, stream, gamma, value] {
                            *value *= gamma;
                            if (*value > 1e12) {
                              *value = 1.0;
                            }
                            system.post_stream_value(node, stream, *value);
                          });
  }
};

TEST(AckedPublication, RetriesHealLostBatchesAndRecordLatency) {
  MiddlewareConfig config = base_config();
  config.mbr_ack.enabled = true;
  config.mbr_ack.timeout = sim::Duration::millis(400);
  config.mbr_ack.jitter = sim::Duration::millis(50);
  // The subscription multicast and the match pushes are equally lossy;
  // soft-state query refresh and acked responses keep those paths alive so
  // this test exercises the MBR-side acks end to end.
  config.query_refresh_period = sim::Duration::seconds(1);
  config.response_ack.enabled = true;
  Harness h(10, config);
  fault::FaultPlan plan;
  plan.uniform_loss = 0.35;
  h.net.set_fault_model(std::make_shared<fault::LinkFaultModel>(
      plan, h.net.id_space(), common::Pcg32(5, 5), common::Pcg32(5, 5)));
  h.start_stream(0, 100, 1.10);
  h.run_for(15.0);

  const RobustnessCounters& counters = h.system.metrics().robustness();
  EXPECT_GT(counters.mbr_acks, 0u);
  EXPECT_GT(counters.mbr_retries, 0u) << "35% loss must trigger ack timeouts";
  EXPECT_GT(counters.heal_latency_ms.count(), 0u);
  EXPECT_GT(counters.heal_latency_ms.mean(), 0.0);

  // The retried batches actually arrived: a tight matching query sees the
  // stream despite the loss.
  const QueryId id = h.system.subscribe_similarity(
      4, h.exponential_features(1.10), 0.08, sim::Duration::seconds(30));
  h.run_for(10.0);
  EXPECT_TRUE(h.system.client_record(id)->matched_streams.contains(100));
}

TEST(AckedPublication, CleanNetworkNeedsNoRetries) {
  MiddlewareConfig config = base_config();
  config.mbr_ack.enabled = true;
  Harness h(10, config);
  h.start_stream(0, 100, 1.10);
  h.run_for(10.0);
  const RobustnessCounters& counters = h.system.metrics().robustness();
  EXPECT_GT(counters.mbr_acks, 0u);
  EXPECT_EQ(counters.mbr_retries, 0u);
  EXPECT_EQ(counters.mbr_retry_exhausted, 0u);
  EXPECT_EQ(counters.heal_latency_ms.count(), 0u)
      << "heal latency samples only retried batches";
}

TEST(MbrRefresh, ReroutesLiveBatchesAfterHolderRestart) {
  // The node whose arc stores a stream's MBRs crashes and restarts empty.
  // Without MBR refresh the re-owned arc stays blank until new data
  // arrives; with refresh the source re-routes its live batches and a query
  // posed after the restart still matches the OLD batches.
  for (const bool refresh_enabled : {false, true}) {
    MiddlewareConfig config = base_config();
    config.mbr_lifespan = sim::Duration::seconds(120);  // old batches live on
    if (refresh_enabled) {
      config.mbr_refresh_period = sim::Duration::seconds(1);
    }
    Harness h(10, config);

    // Emit enough values to fill the window and close a few batches, then
    // stop the stream for good.
    h.system.register_stream(0, 300);
    double value = 1.0;
    for (int i = 0; i < 30; ++i) {
      value *= 1.12;
      h.system.post_stream_value(0, 300, value);
      h.run_for(0.1);
    }
    h.run_for(2.0);

    const dsp::FeatureVector probe = h.exponential_features(1.12);
    const Key key = h.system.strategy().key_map().key_for(probe);
    const NodeIndex holder = h.net.find_successor_oracle(key);
    if (holder == 0 || holder == 2) {
      continue;  // degenerate layout for this seed; scenario not applicable
    }
    h.net.crash(holder);
    h.net.run_maintenance_rounds(4);
    NodeIndex via = 0;
    h.net.recover(holder, via);
    h.net.run_maintenance_rounds(4);
    h.system.reset_node_soft_state(holder);
    h.run_for(3.0);  // give the refresh (if any) a period to fire

    const QueryId id = h.system.subscribe_similarity(
        2, probe, 0.05, sim::Duration::seconds(30));
    h.run_for(5.0);
    const ClientQueryRecord* record = h.system.client_record(id);
    if (refresh_enabled) {
      EXPECT_TRUE(record->matched_streams.contains(300))
          << "refresh failed to re-route the live batches";
      EXPECT_GT(h.system.metrics().robustness().mbr_refreshes, 0u);
    } else {
      EXPECT_FALSE(record->matched_streams.contains(300))
          << "without refresh the restarted holder cannot know old batches";
    }
  }
}

TEST(IdempotentStores, RefreshRedeliveriesNeverInflateMatches) {
  // Aggressive refresh re-routes every live batch once a second; the store
  // suppresses every redelivery and the client counts each matched stream
  // once, so healing cannot inflate the reported matches.
  MiddlewareConfig config = base_config();
  config.mbr_refresh_period = sim::Duration::seconds(1);
  Harness h(10, config);
  h.start_stream(0, 100, 1.10);
  h.run_for(5.0);
  const QueryId id = h.system.subscribe_similarity(
      4, h.exponential_features(1.10), 0.08, sim::Duration::seconds(60));
  h.run_for(15.0);

  const RobustnessCounters& counters = h.system.metrics().robustness();
  EXPECT_GT(counters.mbr_refreshes, 0u);
  EXPECT_GT(counters.duplicate_stores, 0u)
      << "every refresh of a still-stored batch must be suppressed";
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_EQ(record->match_events, record->matched_streams.size());
  EXPECT_TRUE(record->matched_streams.contains(100));
}

TEST(LocationRetry, UnknownStreamBacksOffAndCounts) {
  // The inner-product query races the stream's directory registration: the
  // first resolution comes back unknown, the client retries under capped
  // exponential backoff, and the retry counter records it.
  MiddlewareConfig config = base_config();
  Harness h(10, config);
  const QueryId id =
      h.system.subscribe_latest_value(2, 500, sim::Duration::seconds(60));
  h.run_for(2.0);  // resolution fails: the stream does not exist yet
  h.system.register_stream(0, 500);
  auto value = std::make_shared<double>(0.0);
  h.sim.schedule_periodic(h.sim.now() + sim::Duration::millis(100),
                          sim::Duration::millis(100), [&h, value] {
                            *value += 1.0;
                            h.system.post_stream_value(0, 500, *value);
                          });
  h.run_for(20.0);

  EXPECT_GT(h.system.metrics().robustness().location_retries, 0u);
  const ClientQueryRecord* record = h.system.client_record(id);
  EXPECT_GT(record->inner_updates, 0u)
      << "backoff retries must eventually resolve the stream";
}

TEST(SelfHealing, LossyHealedRunMatchesFaultFreeExactly) {
  // The acceptance property: run the same seeded workload twice — once
  // fault-free with healing off, once under heavy uniform loss with the
  // full self-healing path — clear the faults, let the soft state converge,
  // and require the per-query match sets AND match_events to be identical.
  auto run = [](bool lossy) {
    MiddlewareConfig config = base_config();
    if (lossy) {
      config.mbr_ack.enabled = true;
      config.mbr_ack.timeout = sim::Duration::millis(400);
      config.response_ack.enabled = true;
      config.mbr_refresh_period = sim::Duration::seconds(1);
      config.query_refresh_period = sim::Duration::seconds(1);
    }
    auto h = std::make_unique<Harness>(12, config);
    if (lossy) {
      fault::FaultPlan plan;
      plan.uniform_loss = 0.15;
      h->net.set_fault_model(std::make_shared<fault::LinkFaultModel>(
          plan, h->net.id_space(), common::Pcg32(21, 21),
          common::Pcg32(21, 21)));
    }

    // Randomized (seeded) workload, identical across both runs.
    common::Pcg32 workload_rng(77, 77);
    std::vector<double> gammas;
    for (int s = 0; s < 5; ++s) {
      gammas.push_back(workload_rng.uniform(1.05, 1.30));
      h->start_stream(static_cast<NodeIndex>(s),
                      100 + static_cast<StreamId>(s), gammas.back());
    }
    h->run_for(3.0);
    std::vector<QueryId> queries;
    for (int q = 0; q < 4; ++q) {
      const double gamma = gammas[workload_rng.bounded(5)];
      const double radius = workload_rng.uniform(0.05, 0.15);
      queries.push_back(h->system.subscribe_similarity(
          static_cast<NodeIndex>(6 + q), h->exponential_features(gamma),
          radius, sim::Duration::seconds(120)));
    }
    h->run_for(8.0);  // faulty window (loss active in the lossy run)
    h->net.set_fault_model(nullptr);
    h->run_for(12.0);  // convergence: refreshes and retries settle

    struct Result {
      std::vector<std::set<StreamId>> matched;
      std::vector<std::uint64_t> events;
    };
    Result result;
    for (const QueryId id : queries) {
      const ClientQueryRecord* record = h->system.client_record(id);
      result.matched.emplace_back(record->matched_streams.begin(),
                                  record->matched_streams.end());
      result.events.push_back(record->match_events);
    }
    return result;
  };

  const auto clean = run(false);
  const auto healed = run(true);
  EXPECT_EQ(clean.matched, healed.matched)
      << "healed run must converge to the fault-free match sets";
  EXPECT_EQ(clean.events, healed.events)
      << "match_events must not be inflated by retries or refreshes";
}

}  // namespace
}  // namespace sdsi::core
