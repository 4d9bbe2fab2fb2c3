// Robustness under chaos — recall vs a fault-free oracle while the system
// absorbs bursty link loss and a crash/recover wave, with and without the
// self-healing data path (acked MBR publication + soft-state refresh).
//
// Scenario (absolute sim times; warmup starts at 0):
//   - Gilbert-Elliott bursty link loss, ~10% stationary loss rate, active
//     for the whole run (bursts can swallow an entire range multicast);
//   - at warmup+10s a crash wave takes down 20% of the data centers; they
//     recover 20s later with empty soft state, after which the injector
//     runs Chord maintenance so the ring heals around them.
//
// Five runs per seed, identical workload (query patterns are drawn even
// when a client is dead, so every run poses the same queries):
//   fault-free      — no faults, no healing: the recall ceiling;
//   chaos           — faults on, healing off: measured degradation;
//   chaos+heal      — faults on, acked MBRs + MBR/query refresh: the
//                     paper's soft-state argument, measured;
//   chaos+repl      — faults on, healing off, successor-list replication
//                     (r=2) + anti-entropy: state outlives its node, so
//                     recall holes close in O(stabilization) without any
//                     source-driven refresh;
//   chaos+heal+repl — both layers: the production configuration.
//
// Acceptance shape: chaos+heal recall >= 0.95 within two refresh periods of
// the faults clearing; chaos (no healing) demonstrably below that;
// chaos+heal+repl at or above chaos+heal with a lower heal-latency p90
// (a replica stores and acks a copy whose landing node died). All numbers
// are pure functions of the seed (byte-identical BENCH output).
#include <string>

#include "bench/bench_common.hpp"
#include "core/report_render.hpp"

namespace {

using namespace sdsi;

struct Scenario {
  const char* name;
  bool faults;
  bool healing;
  bool replication;
};

core::ExperimentConfig chaos_config(const Scenario& scenario,
                                    std::uint64_t seed, bool smoke) {
  core::ExperimentConfig config;
  config.num_nodes = 50;
  config.seed = seed;
  config.warmup = sim::Duration::seconds(smoke ? 30 : 60);
  config.measure = sim::Duration::seconds(smoke ? 30 : 60);
  config.oracle_sample_period = sim::Duration::millis(500);

  if (scenario.faults) {
    // ~10% stationary loss: p_bad = p_g2b / (p_g2b + p_b2g) = 0.1 with
    // mean burst length 1 / p_b2g = 4 transmissions.
    fault::GilbertElliottParams burst;
    burst.p_good_to_bad = 0.25 * 0.1 / 0.9;
    burst.p_bad_to_good = 0.25;
    config.faults.burst_loss = burst;

    fault::CrashWave wave;
    wave.at = sim::SimTime::zero() + config.warmup + sim::Duration::seconds(10);
    wave.fraction = 0.2;
    wave.down_for = sim::Duration::seconds(20);
    config.faults.crash_waves.push_back(wave);
  }
  if (scenario.healing) {
    config.mbr_acks = true;
    config.response_acks = true;
    config.mbr_refresh_period = sim::Duration::millis(1500);
    // Subscriptions must re-register faster than MBRs expire (BSPAN 5s),
    // or a query fragment lost to a burst misses whole batches.
    config.query_refresh_period = sim::Duration::millis(2500);
  }
  if (scenario.replication) {
    config.replication_factor = 2;
    config.anti_entropy_period = sim::Duration::millis(2000);
  }
  // Same settling time for every run (fair comparison): two refresh
  // periods. Healing must reach the recall floor inside this window; the
  // no-healing run gets the same wall clock and still cannot.
  config.drain = sim::Duration::millis(3000);
  return config;
}

std::string scenario_label(const Scenario& scenario, std::uint64_t seed) {
  std::string label = "chord N=50 seed=" + std::to_string(seed);
  label += scenario.faults ? " burst~10% wave=20%/20s" : " fault-free";
  label += scenario.healing ? " acks+refresh=1500ms" : " healing=off";
  label += scenario.replication ? " repl=2 anti-entropy=2000ms" : "";
  return label;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::consume_json_flag(argc, argv);
  const std::string obs_dir = bench::consume_value_flag(argc, argv, "--obs-dir");
  const bool smoke = bench::consume_flag(argc, argv, "--smoke");

  std::printf(
      "=== Robustness: recall under bursty loss + crash wave, healing "
      "on/off ===\n");

  const Scenario scenarios[] = {
      {"fault-free", false, false, false},
      {"chaos", true, false, false},
      {"chaos+heal", true, true, false},
      {"chaos+repl", true, false, true},
      {"chaos+heal+repl", true, true, true},
  };
  constexpr std::uint64_t kSeed = 42;

  std::vector<core::ExperimentConfig> configs;
  for (const Scenario& scenario : scenarios) {
    core::ExperimentConfig config = chaos_config(scenario, kSeed, smoke);
    if (!obs_dir.empty()) {
      // One run directory per scenario; the chaos runs then carry their
      // heal-latency histogram and drop/load series over time.
      config.obs.dir = obs_dir + "/" + scenario.name;
    }
    configs.push_back(std::move(config));
  }
  bench::print_workload_banner(configs.front().workload);
  const auto experiments = bench::run_sweep(configs);

  bench::JsonBenchReporter reporter("robustness");
  common::TextTable table({"Scenario", "Recall", "Oracle pairs", "Delivered",
                           "Dup rate", "MBR retries", "Refreshes", "Heals",
                           "Heal ms (mean)", "Heal ms (p90)",
                           "Crash/Recover"});
  common::TextTable repl_table(
      {"Scenario", "Replica puts", "Repairs", "Handoff entries",
       "Handoff bytes", "Failovers", "Failover ms (p90)", "Detours",
       "Oracle fallbacks"});
  // Columns derive from drop_cause_name, so new causes appear automatically.
  common::TextTable drops(core::drop_cause_columns("Scenario"));
  for (std::size_t i = 0; i < experiments.size(); ++i) {
    const Scenario& scenario = scenarios[i];
    const auto& experiment = experiments[i];
    const core::RobustnessReport report = experiment->robustness_report();
    const double simulated_ms = (experiment->config().measure +
                                 experiment->config().drain).as_millis();
    const std::string config_label = scenario_label(scenario, kSeed);

    table.begin_row()
        .add_cell(scenario.name)
        .add_num(report.recall, 4)
        .add_int(static_cast<long long>(report.oracle_pairs))
        .add_int(static_cast<long long>(report.delivered_pairs))
        .add_num(report.duplicate_delivery_rate, 4)
        .add_int(static_cast<long long>(report.mbr_retries))
        .add_int(static_cast<long long>(report.mbr_refreshes))
        .add_int(static_cast<long long>(report.heal_latency_ms.count()))
        .add_num(report.heal_latency_ms.mean(), 2)
        .add_num(report.heal_latency_ms.p90(), 2)
        .add_cell(std::to_string(report.crashes) + "/" +
                  std::to_string(report.recoveries));

    std::uint64_t total_drops = 0;
    drops.begin_row().add_cell(scenario.name);
    for (const std::uint64_t count : report.drops_by_cause) {
      drops.add_int(static_cast<long long>(count));
      total_drops += count;
    }
    drops.add_int(static_cast<long long>(total_drops));

    reporter.add({std::string("recall/") + scenario.name, config_label,
                  report.recall, simulated_ms});
    reporter.add({std::string("duplicate_delivery_rate/") + scenario.name,
                  config_label, report.duplicate_delivery_rate, simulated_ms});
    reporter.add({std::string("drops_total/") + scenario.name, config_label,
                  static_cast<double>(total_drops), simulated_ms});
    if (scenario.healing) {
      reporter.add({std::string("mbr_retries/") + scenario.name, config_label,
                    static_cast<double>(report.mbr_retries), simulated_ms});
      reporter.add({std::string("mbr_refreshes/") + scenario.name,
                    config_label, static_cast<double>(report.mbr_refreshes),
                    simulated_ms});
      reporter.add({std::string("heals/") + scenario.name, config_label,
                    static_cast<double>(report.heal_latency_ms.count()),
                    simulated_ms});
      reporter.add({std::string("mean_heal_latency_ms/") + scenario.name,
                    config_label, report.heal_latency_ms.mean(),
                    simulated_ms});
      reporter.add({std::string("p90_heal_latency_ms/") + scenario.name,
                    config_label, report.heal_latency_ms.p90(), simulated_ms});
    }
    if (scenario.replication) {
      repl_table.begin_row()
          .add_cell(scenario.name)
          .add_int(static_cast<long long>(report.replica_puts))
          .add_int(static_cast<long long>(report.replica_repairs))
          .add_int(static_cast<long long>(report.handoff_entries))
          .add_int(static_cast<long long>(report.handoff_bytes))
          .add_int(static_cast<long long>(report.aggregator_failovers))
          .add_num(report.failover_latency_ms.p90(), 2)
          .add_int(static_cast<long long>(report.report_detours))
          .add_int(static_cast<long long>(report.oracle_fallbacks));
      reporter.add({std::string("replica_puts/") + scenario.name, config_label,
                    static_cast<double>(report.replica_puts), simulated_ms});
      reporter.add({std::string("replica_repairs/") + scenario.name,
                    config_label, static_cast<double>(report.replica_repairs),
                    simulated_ms});
      reporter.add({std::string("handoff_entries/") + scenario.name,
                    config_label, static_cast<double>(report.handoff_entries),
                    simulated_ms});
      reporter.add({std::string("aggregator_failovers/") + scenario.name,
                    config_label,
                    static_cast<double>(report.aggregator_failovers),
                    simulated_ms});
      reporter.add({std::string("report_detours/") + scenario.name,
                    config_label, static_cast<double>(report.report_detours),
                    simulated_ms});
      reporter.add({std::string("p90_failover_latency_ms/") + scenario.name,
                    config_label, report.failover_latency_ms.p90(),
                    simulated_ms});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nReplication & failover layer:\n%s",
              repl_table.render().c_str());
  std::printf("\nDrops by cause (measurement window):\n%s",
              drops.render().c_str());

  const double ceiling = experiments[0]->robustness_report().recall;
  const double degraded = experiments[1]->robustness_report().recall;
  const double healed = experiments[2]->robustness_report().recall;
  const double replicated = experiments[3]->robustness_report().recall;
  const double both = experiments[4]->robustness_report().recall;
  std::printf(
      "\nShape check: fault-free recall %.4f is the ceiling; chaos without\n"
      "healing degrades to %.4f; acked publication + soft-state refresh\n"
      "recovers to %.4f within two refresh periods of the faults clearing.\n"
      "Successor-list replication alone (no refresh) reaches %.4f because\n"
      "promoted replicas already hold the crashed owners' state; with both\n"
      "layers on, recall is %.4f and the heal-latency p90 drops from\n"
      "%.0f ms to %.0f ms (a replica acks a copy whose landing node died).\n",
      ceiling, degraded, healed, replicated, both,
      experiments[2]->robustness_report().heal_latency_ms.p90(),
      experiments[4]->robustness_report().heal_latency_ms.p90());

  if (!json_path.empty() && !reporter.write(json_path)) {
    return 1;
  }
  return 0;
}
