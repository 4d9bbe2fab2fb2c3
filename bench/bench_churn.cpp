// Churn under load — measuring the claim the paper makes but never
// quantifies: "the underlying communication stratum accommodates dynamic
// changes such as data center failures ... without the need to temporarily
// block the normal system operation" (Sec VII).
//
// Part 1, churn under load: a 100-node system runs the Table I workload
// with background stabilization and successor-list replication (r = 2 +
// anti-entropy). Mid-run, 10% of the data centers crash simultaneously;
// 20 seconds later 10 fresh ones join (with ownership handoff). We track,
// in 10-second windows: response throughput to clients, new matches
// delivered, and messages lost in flight — before, during, and after.
//
// Part 2, middle-node failover drill: a deterministic fault-free run and
// an identical run that crashes the query's aggregation middle node are
// compared match-for-match. With replication on, the replica set promotes
// a new aggregator and the client-visible match set must be IDENTICAL —
// zero lost matches from a middle-node crash. The drill exits nonzero on
// any divergence, so `ctest -L churn-smoke` gates the failover invariant.
//
// --obs-dir additionally runs the canonical Experiment churn scenario
// (crash wave + replication) with the observability layer on, producing a
// metrics.json/trace.jsonl pair that tools/make_figures schema-validates.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "dsp/features.hpp"

namespace {

using namespace sdsi;

struct Window {
  double start_s = 0.0;
  std::uint64_t responses = 0;
  std::uint64_t matches = 0;
  std::uint64_t lost = 0;
  std::size_t alive = 0;
};

// ---------------------------------------------------------------------------
// Part 2: the middle-node failover drill.
//
// Both runs are byte-identical up to the crash instant: same ring, same
// streams (placed on every node EXCEPT the aggregator-to-be, so the crash
// removes only aggregation state, not source data), same single query. The
// query window is fixed first so the aggregation middle key — and thus the
// victim — is known before any workload is wired.
// ---------------------------------------------------------------------------

struct DrillOutcome {
  std::set<StreamId> matched;
  std::uint64_t responses = 0;
  std::uint64_t failovers = 0;
  std::uint64_t detours = 0;
  NodeIndex aggregator = 0;
};

DrillOutcome run_drill(bool crash_middle) {
  constexpr std::size_t kDrillNodes = 30;
  constexpr std::uint64_t kDrillSeed = 99;

  sim::Simulator sim;
  chord::ChordConfig chord_config;
  chord_config.successor_list_length = 6;
  chord::ChordNetwork net(sim, chord_config);
  net.bootstrap(
      routing::hash_node_ids(kDrillNodes, common::IdSpace(32), kDrillSeed));

  core::MiddlewareConfig mw;
  mw.features = core::experiment_feature_config();
  mw.features.window_size = 16;  // MBRs flow within seconds
  // Every batch published during the run is still live at the final check.
  mw.mbr_lifespan = sim::Duration::seconds(60);
  mw.notify_period = sim::Duration::millis(1000);
  mw.mbr_ack.enabled = true;
  mw.replication_factor = 2;
  mw.anti_entropy_period = sim::Duration::millis(500);
  core::MiddlewareSystem system(net, mw);

  // Fix the query window, then locate its aggregation middle node exactly
  // the way subscribe_similarity_window will.
  common::RngFactory rng_factory(kDrillSeed);
  common::Pcg32 query_rng = rng_factory.make("drill-query");
  std::vector<Sample> query_window(mw.features.window_size);
  Sample value = 0.0;
  for (Sample& x : query_window) {
    value += query_rng.uniform(-1.0, 1.0);
    x = value;
  }
  const auto features = dsp::extract_features(query_window, mw.features);
  const double radius = 0.3;
  const auto [lo, hi] =
      system.strategy().key_map().query_range(features, radius);
  const Key middle = net.id_space().midpoint(lo, hi);
  const NodeIndex aggregator = net.find_successor_oracle(middle);
  const NodeIndex client = aggregator == 0 ? 1 : 0;

  sim.schedule_periodic(sim.now() + sim::Duration::millis(250),
                        sim::Duration::millis(250),
                        [&net] { net.run_maintenance_rounds(1); });

  // Streams everywhere except the aggregator-to-be (identical workload in
  // both runs; the crash must not silence any source).
  std::vector<std::unique_ptr<streams::RandomWalkGenerator>> generators;
  common::Pcg32 period_rng = rng_factory.make("periods");
  for (NodeIndex node = 0; node < kDrillNodes; ++node) {
    if (node == aggregator) {
      continue;
    }
    const StreamId sid = 1000 + node;
    system.register_stream(node, sid);
    generators.push_back(std::make_unique<streams::RandomWalkGenerator>(
        rng_factory.make("walk", node)));
    auto* generator = generators.back().get();
    const auto period =
        sim::Duration::micros(period_rng.uniform_int(150'000, 250'000));
    sim.schedule_periodic(sim.now() + period, period,
                          [&system, &net, node, sid, generator] {
                            if (net.is_alive(node)) {
                              system.post_stream_value(node, sid,
                                                       generator->next());
                            }
                          });
  }

  auto query_id = std::make_shared<core::QueryId>(0);
  sim.schedule_at(
      sim::SimTime::zero() + sim::Duration::seconds(1),
      [&system, query_id, query_window, client, radius] {
        *query_id = system.subscribe_similarity_window(
            client, query_window, radius, sim::Duration::seconds(60));
      });

  system.start();

  if (crash_middle) {
    sim.schedule_at(sim::SimTime::zero() + sim::Duration::seconds(20),
                    [&net, aggregator] { net.crash(aggregator); });
  }

  sim.run_until(sim::SimTime::zero() + sim::Duration::seconds(40));

  DrillOutcome outcome;
  outcome.aggregator = aggregator;
  if (const core::ClientQueryRecord* record = system.client_record(*query_id);
      record != nullptr) {
    outcome.matched.insert(record->matched_streams.begin(),
                           record->matched_streams.end());
    outcome.responses = record->responses_received;
  }
  outcome.failovers = system.metrics().robustness().aggregator_failovers;
  outcome.detours = system.metrics().robustness().report_detours;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::consume_json_flag(argc, argv);
  const std::string obs_dir = bench::consume_value_flag(argc, argv, "--obs-dir");
  const bool smoke = bench::consume_flag(argc, argv, "--smoke");

  bench::JsonBenchReporter reporter("churn");

  std::printf("=== Churn under load: 10%% of data centers crash mid-run ===\n");

  // Smoke shrinks the ring and the sliding window so the whole bench (and
  // the churn-smoke ctest gate) finishes in seconds; the full run keeps the
  // historical 100-node / 256-sample shape.
  const std::size_t kNodes = smoke ? 40 : 100;
  const double kChurnAt = smoke ? 40.0 : 120.0;
  const double kEnd = smoke ? 90.0 : 220.0;
  const std::size_t kChurnCount = kNodes / 10;

  sim::Simulator sim;
  chord::ChordConfig chord_config;
  chord_config.successor_list_length = 6;
  chord::ChordNetwork net(sim, chord_config);
  net.bootstrap(routing::hash_node_ids(kNodes, common::IdSpace(32), 42));

  core::MiddlewareConfig mw_config;
  mw_config.features = core::experiment_feature_config();
  if (smoke) {
    mw_config.features.window_size = 32;  // fills before the churn window
  }
  // Soft-state refresh keeps subscriptions alive across holder crashes;
  // successor-list replication keeps the stored state itself alive, so
  // matching resumes in O(stabilization) instead of O(refresh period).
  mw_config.query_refresh_period = sim::Duration::seconds(10);
  mw_config.replication_factor = 2;
  mw_config.anti_entropy_period = sim::Duration::seconds(2);
  core::MiddlewareSystem system(net, mw_config);
  core::WorkloadConfig workload;
  bench::print_workload_banner(workload);

  // Background ring maintenance, as a real deployment would run.
  sim.schedule_periodic(sim.now() + sim::Duration::millis(500),
                        sim::Duration::millis(500),
                        [&net] { net.run_maintenance_rounds(1); });

  // Streams: one random walk per original node; sources stop if their data
  // center dies (the sensor's uplink is gone).
  common::RngFactory rng_factory(42);
  std::vector<std::unique_ptr<streams::RandomWalkGenerator>> generators;
  common::Pcg32 period_rng = rng_factory.make("periods");
  for (NodeIndex node = 0; node < kNodes; ++node) {
    const StreamId sid = 1000 + node;
    system.register_stream(node, sid);
    generators.push_back(std::make_unique<streams::RandomWalkGenerator>(
        rng_factory.make("walk", node)));
    const auto period = sim::Duration::micros(
        period_rng.uniform_int(workload.stream_period_min.count_micros(),
                               workload.stream_period_max.count_micros()));
    auto* generator = generators.back().get();
    sim.schedule_periodic(sim.now() + period, period,
                          [&system, &net, node, sid, generator] {
                            if (net.is_alive(node)) {
                              system.post_stream_value(node, sid,
                                                       generator->next());
                            }
                          });
  }

  // Queries: Poisson arrivals from random ALIVE nodes.
  auto query_rng = std::make_shared<common::Pcg32>(rng_factory.make("q"));
  auto walk_rng = std::make_shared<common::Pcg32>(rng_factory.make("qw"));
  auto arrival = std::make_shared<std::function<void()>>();
  *arrival = [&, arrival, query_rng, walk_rng] {
    NodeIndex client;
    do {
      client = static_cast<NodeIndex>(
          query_rng->bounded(static_cast<std::uint32_t>(net.num_nodes())));
    } while (!net.is_alive(client));
    std::vector<Sample> window(mw_config.features.window_size);
    Sample value = walk_rng->uniform(-10.0, 10.0);
    for (Sample& x : window) {
      value += walk_rng->uniform(-1.0, 1.0);
      x = value;
    }
    const auto lifespan = sim::Duration::micros(
        query_rng->uniform_int(workload.query_lifespan_min.count_micros(),
                               workload.query_lifespan_max.count_micros()));
    (void)system.subscribe_similarity_window(client, window,
                                             workload.query_radius, lifespan);
    sim.schedule_after(
        sim::Duration::seconds(
            query_rng->exponential(workload.query_rate_per_sec)),
        [arrival] { (*arrival)(); });
  };
  sim.schedule_after(sim::Duration::seconds(0.3), [arrival] { (*arrival)(); });

  system.start();

  // The churn event, phase 1: simultaneous crashes (10% of the ring).
  sim.schedule_at(
      sim::SimTime::zero() + sim::Duration::seconds(kChurnAt), [&] {
        common::Pcg32 churn_rng(7, 7);
        std::size_t crashed = 0;
        while (crashed < kChurnCount) {
          const auto victim = static_cast<NodeIndex>(
              churn_rng.bounded(static_cast<std::uint32_t>(kNodes)));
          if (net.is_alive(victim)) {
            net.crash(victim);
            ++crashed;
          }
        }
      });

  // Phase 2, twenty seconds later: the same number of fresh data centers
  // join; ownership handoff pulls each newcomer's key-range slice from its
  // successor so it serves its arc immediately.
  sim.schedule_at(
      sim::SimTime::zero() + sim::Duration::seconds(kChurnAt + 20.0), [&] {
        common::Pcg32 churn_rng(8, 8);
        for (std::size_t j = 0; j < kChurnCount; ++j) {
          // Fresh ring id (collisions in 2^32 are ~impossible; checked
          // anyway for determinism's sake).
          Key id;
          bool unique;
          do {
            id = net.id_space().wrap(churn_rng.next64());
            unique = true;
            for (NodeIndex k = 0; k < net.num_nodes(); ++k) {
              unique = unique && net.node_id(k) != id;
            }
          } while (!unique);
          NodeIndex via = 0;
          while (!net.is_alive(via)) {
            ++via;
          }
          const NodeIndex newcomer = net.join(id, via);
          system.attach_node(newcomer);
          system.handle_node_join(newcomer);
          const StreamId sid = 2000 + static_cast<StreamId>(j);
          system.register_stream(newcomer, sid);
          generators.push_back(std::make_unique<streams::RandomWalkGenerator>(
              rng_factory.make("walk-new", static_cast<std::uint64_t>(j))));
          auto* generator = generators.back().get();
          sim.schedule_periodic(sim.now() + sim::Duration::millis(200),
                                sim::Duration::millis(200),
                                [&system, &net, newcomer, sid, generator] {
                                  if (net.is_alive(newcomer)) {
                                    system.post_stream_value(
                                        newcomer, sid, generator->next());
                                  }
                                });
        }
      });

  // Sample windowed stats every 10 s.
  std::vector<Window> windows;
  std::uint64_t last_responses = 0;
  std::uint64_t last_matches = 0;
  std::uint64_t last_lost = 0;
  sim.schedule_periodic(
      sim.now() + sim::Duration::seconds(10), sim::Duration::seconds(10),
      [&] {
        std::uint64_t responses = 0;
        std::uint64_t matches = 0;
        for (const auto& [id, record] : system.client_records()) {
          responses += record.responses_received;
          matches += record.match_events;
        }
        const std::uint64_t lost = net.total_drops();
        windows.push_back(Window{sim.now().as_seconds() - 10.0,
                                 responses - last_responses,
                                 matches - last_matches, lost - last_lost,
                                 net.alive_count()});
        last_responses = responses;
        last_matches = matches;
        last_lost = lost;
      });

  sim.run_until(sim::SimTime::zero() + sim::Duration::seconds(kEnd));
  // The arrival closure holds its own shared_ptr (self-rescheduling); break
  // the cycle so the run is leak-clean under the asan preset.
  *arrival = std::function<void()>();

  common::TextTable table({"Window (s)", "Alive DCs", "Responses delivered",
                           "New matches", "Messages lost", "Phase"});
  double steady_responses = 0.0, churn_responses = 0.0, recov_responses = 0.0;
  std::size_t steady_n = 0, churn_n = 0, recov_n = 0;
  std::uint64_t lost_total = 0;
  for (const Window& window : windows) {
    const bool pre = window.start_s + 10.0 <= kChurnAt;
    const bool during = !pre && window.start_s < kChurnAt + 20.0;
    if (pre) {
      steady_responses += static_cast<double>(window.responses);
      ++steady_n;
    } else if (during) {
      churn_responses += static_cast<double>(window.responses);
      ++churn_n;
    } else {
      recov_responses += static_cast<double>(window.responses);
      ++recov_n;
    }
    lost_total += window.lost;
    table.begin_row()
        .add_cell(common::format_fixed(window.start_s, 0) + "-" +
                  common::format_fixed(window.start_s + 10.0, 0))
        .add_int(static_cast<long long>(window.alive))
        .add_int(static_cast<long long>(window.responses))
        .add_int(static_cast<long long>(window.matches))
        .add_int(static_cast<long long>(window.lost))
        .add_cell(pre ? "steady" : (during ? "CHURN +/- repair" : "recovered"));
  }
  std::printf("%s", table.render().c_str());

  const auto& robustness = system.metrics().robustness();
  std::printf(
      "\nReplication layer during the churn run: %llu replica puts, %llu\n"
      "anti-entropy repairs, %llu handoff entries (%llu bytes) pulled by the\n"
      "%zu joining data centers.\n",
      static_cast<unsigned long long>(robustness.replica_puts),
      static_cast<unsigned long long>(robustness.replica_repairs),
      static_cast<unsigned long long>(robustness.handoff_entries),
      static_cast<unsigned long long>(robustness.handoff_bytes),
      kChurnCount);
  std::printf(
      "\nShape check: what few messages are lost at all are lost in the churn\n"
      "window — with dead-hop detours on, traffic addressed to a crashed\n"
      "data center reroutes through its successor list instead of dying in\n"
      "flight. Response and match throughput dip briefly and recover to the\n"
      "steady-state rate without any restart — the Sec VII adaptivity claim,\n"
      "measured. Joined data centers host new streams that queries pick up\n"
      "via soft-state refresh, and pull their key-range slice through\n"
      "ownership handoff.\n");

  const std::string churn_label =
      "chord N=" + std::to_string(kNodes) + " crash=" +
      std::to_string(kChurnCount) + " join=" + std::to_string(kChurnCount) +
      " repl=2 anti-entropy=2000ms";
  const double churn_sim_ms = kEnd * 1000.0;
  reporter.add({"responses_per_10s/steady", churn_label,
                steady_n > 0 ? steady_responses / static_cast<double>(steady_n)
                             : 0.0,
                churn_sim_ms});
  reporter.add({"responses_per_10s/churn", churn_label,
                churn_n > 0 ? churn_responses / static_cast<double>(churn_n)
                            : 0.0,
                churn_sim_ms});
  reporter.add({"responses_per_10s/recovered", churn_label,
                recov_n > 0 ? recov_responses / static_cast<double>(recov_n)
                            : 0.0,
                churn_sim_ms});
  reporter.add({"lost_messages_total", churn_label,
                static_cast<double>(lost_total), churn_sim_ms});
  reporter.add({"replica_puts", churn_label,
                static_cast<double>(robustness.replica_puts), churn_sim_ms});
  reporter.add({"handoff_entries", churn_label,
                static_cast<double>(robustness.handoff_entries),
                churn_sim_ms});

  // -------------------------------------------------------------------------
  // Part 2: the middle-node failover drill (always runs; it is fast).
  // -------------------------------------------------------------------------
  std::printf(
      "\n=== Failover drill: crash the query's aggregation middle node ===\n");
  const DrillOutcome baseline = run_drill(/*crash_middle=*/false);
  const DrillOutcome crashed = run_drill(/*crash_middle=*/true);

  std::vector<StreamId> lost_matches;
  std::set_difference(baseline.matched.begin(), baseline.matched.end(),
                      crashed.matched.begin(), crashed.matched.end(),
                      std::back_inserter(lost_matches));
  std::vector<StreamId> spurious_matches;
  std::set_difference(crashed.matched.begin(), crashed.matched.end(),
                      baseline.matched.begin(), baseline.matched.end(),
                      std::back_inserter(spurious_matches));

  std::printf(
      "Aggregator node %zu crashed at t=20s (replication r=2, anti-entropy\n"
      "500ms, no link faults). Baseline matched %zu streams; crashed run\n"
      "matched %zu. Lost: %zu, spurious: %zu. Failovers: %llu, report\n"
      "detours: %llu.\n",
      static_cast<std::size_t>(crashed.aggregator), baseline.matched.size(),
      crashed.matched.size(), lost_matches.size(), spurious_matches.size(),
      static_cast<unsigned long long>(crashed.failovers),
      static_cast<unsigned long long>(crashed.detours));

  const std::string drill_label =
      "chord N=30 repl=2 anti-entropy=500ms crash-middle@20s";
  reporter.add({"drill/baseline_matches", drill_label,
                static_cast<double>(baseline.matched.size()), 40000.0});
  reporter.add({"drill/crashed_matches", drill_label,
                static_cast<double>(crashed.matched.size()), 40000.0});
  reporter.add({"drill/lost_matches", drill_label,
                static_cast<double>(lost_matches.size()), 40000.0});
  reporter.add({"drill/spurious_matches", drill_label,
                static_cast<double>(spurious_matches.size()), 40000.0});
  reporter.add({"drill/aggregator_failovers", drill_label,
                static_cast<double>(crashed.failovers), 40000.0});

  bool drill_ok = true;
  if (baseline.matched.empty()) {
    std::printf("FAIL: drill baseline matched no streams (vacuous drill)\n");
    drill_ok = false;
  }
  if (!lost_matches.empty() || !spurious_matches.empty()) {
    std::printf(
        "FAIL: middle-node crash changed the client-visible match set\n");
    drill_ok = false;
  }
  if (crashed.failovers == 0) {
    std::printf("FAIL: no aggregator failover recorded in the crashed run\n");
    drill_ok = false;
  }
  if (drill_ok) {
    std::printf(
        "OK: a middle-node crash with live replicas loses zero client-\n"
        "visible matches; a promoted replica aggregator carried the query.\n");
  }

  // -------------------------------------------------------------------------
  // --obs-dir: canonical Experiment churn scenario through the observability
  // layer, so make_figures can schema-validate a replication-era run.
  // -------------------------------------------------------------------------
  if (!obs_dir.empty()) {
    core::ExperimentConfig config;
    config.num_nodes = smoke ? 20 : 50;
    config.seed = 42;
    config.features.window_size = 16;
    config.warmup = sim::Duration::seconds(smoke ? 6 : 30);
    config.measure = sim::Duration::seconds(smoke ? 8 : 30);
    config.drain = sim::Duration::millis(2000);
    config.mbr_acks = true;
    config.mbr_refresh_period = sim::Duration::millis(2000);
    config.replication_factor = 2;
    config.anti_entropy_period = sim::Duration::millis(1000);
    fault::CrashWave wave;
    wave.at = sim::SimTime::zero() + config.warmup + sim::Duration::seconds(2);
    wave.fraction = 0.2;
    wave.down_for = sim::Duration::seconds(3);
    config.faults.crash_waves.push_back(wave);
    config.obs.dir = obs_dir + "/churn";
    config.obs.trace = true;
    config.obs.window = sim::Duration::millis(500);
    core::Experiment experiment(config);
    experiment.run();
    std::printf("\nObservability export: %s/churn/metrics.json (+trace)\n",
                obs_dir.c_str());
  }

  if (!json_path.empty() && !reporter.write(json_path)) {
    return 1;
  }
  return drill_ok ? 0 : 1;
}
