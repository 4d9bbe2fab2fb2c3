// sdsi_sim — command-line driver for the Section V experiment harness.
//
// Runs one full simulation with the Table I workload and prints the
// Fig 6(a) load decomposition, Fig 7 overheads, Fig 8 hops, and the quality
// summary, so a configuration can be explored without writing C++.
//
//   sdsi_sim [options]
//
// `sdsi_sim --help` lists every flag; EXPERIMENTS.md's flag reference
// documents each one, and tools/check_cli_docs keeps the two in agreement.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_common.hpp"
#include "core/report_render.hpp"
#include "tools/flags.hpp"

namespace {

using namespace sdsi;

[[noreturn]] void usage(const char* argv0, std::FILE* out = stderr,
                        int code = 2) {
  std::fprintf(
      out,
      "usage: %s [options]\n"
      "  --nodes N            data centers (default 100)\n"
      "  --radius R           similarity query radius (default 0.1)\n"
      "  --seed S             master seed (default 42)\n"
      "  --substrate KIND     chord | prefix | ideal (default chord)\n"
      "  --strategy KIND      dft | ecm | lsh indexing strategy (default dft;\n"
      "                       see docs/STRATEGIES.md)\n"
      "  --multicast KIND     seq | bidir (default seq)\n"
      "  --beta B             MBR batch size (default 5)\n"
      "  --window W           sliding window length (default 256)\n"
      "  --coeffs K           retained coefficients (default 2)\n"
      "  --warmup SECONDS     warm-up before measuring (default 80)\n"
      "  --measure SECONDS    measurement window (default 60)\n"
      "  --query-rate Q       queries per second (default 2)\n"
      "  --family KIND        walk | stock | hostload (default walk)\n"
      "  --adaptive-precision enable the Sec VI-A closed loop\n"
      "  --loss P             message loss probability (default 0)\n"
      "  --burst-loss P       Gilbert-Elliott bursty loss, stationary rate P\n"
      "  --crash-wave F       crash fraction F at warmup+10s, recover 20s later\n"
      "  --jitter MS          per-transmission latency jitter, uniform [0,MS]\n"
      "  --mbr-acks           acked MBR publication with retry/backoff\n"
      "  --response-acks      acked match pushes with retransmission\n"
      "  --mbr-refresh S      soft-state MBR re-routing period (0 = off)\n"
      "  --query-refresh S    subscription refresh period (0 = off)\n"
      "  --replication-factor R  mirror stores to R successors (0 = off)\n"
      "  --anti-entropy-period S digest exchange period (0 = off)\n"
      "  --adversarial        skewed workload with defaults (Zipf pattern\n"
      "                       pool; see --zipf/--pattern-pool)\n"
      "  --zipf S             Zipf exponent for pattern/client skew\n"
      "                       (default 1.1; implies --adversarial)\n"
      "  --pattern-pool N     query patterns drawn from N Zipf-popular bases\n"
      "                       (0 = fresh pattern per query)\n"
      "  --zipf-clients       Zipf-skewed query client placement\n"
      "  --placement-skew S   non-uniform node ids (u^S; 0 = uniform hash)\n"
      "  --flash-crowd T      sector-correlated flash crowd at T seconds\n"
      "                       (stock family only; implies --adversarial)\n"
      "  --overload-window MS each node's shed/drain window (default 2000)\n"
      "  --ingest-capacity N  stores accepted per node per window before\n"
      "                       shedding (0 = unbounded)\n"
      "  --shed-rate P        deterministic forced shed fraction in [0,1)\n"
      "  --publish-budget N   publications per source per window before\n"
      "                       deferral (0 = unbounded)\n"
      "  --defer-capacity N   per-source deferral queue bound (default 64)\n"
      "  --oracle S           recall-oracle sampling period (enables recall)\n"
      "  --drain S            settling time after measure before reports\n"
      "  --obs-dir DIR        write DIR/metrics.json (time series + reports)\n"
      "  --trace              with --obs-dir: also stream DIR/trace.jsonl\n"
      "  --obs-window MS      time-series window in ms (default 1000)\n",
      argv0);
  std::exit(code);
}

using tools::parse_double;
using tools::parse_long;
using tools::parse_millis;
using tools::parse_probability;
using tools::parse_seconds;

}  // namespace

void sdsi::tools::usage_error(const char* argv0) { usage(argv0); }

int main(int argc, char** argv) {
  core::ExperimentConfig config = bench::paper_experiment(100);
  double crash_fraction = 0.0;
  const auto adversarial = [&]() -> streams::AdversarialSpec& {
    if (!config.adversarial.has_value()) {
      config.adversarial.emplace();
    }
    return *config.adversarial;
  };
  const auto overload = [&]() -> core::OverloadOptions& {
    if (!config.overload.has_value()) {
      config.overload.emplace();
    }
    return *config.overload;
  };

  for (int i = 1; i < argc; ++i) {
    const auto is = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0;
    };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (is("--help") || is("-h")) {
      usage(argv[0], stdout, 0);
    } else if (is("--nodes")) {
      config.num_nodes =
          static_cast<std::size_t>(parse_long(value(), argv[0], 1));
    } else if (is("--radius")) {
      config.workload.query_radius = parse_double(value(), argv[0]);
    } else if (is("--seed")) {
      config.seed = static_cast<std::uint64_t>(parse_long(value(), argv[0]));
    } else if (is("--substrate")) {
      const std::string kind = value();
      if (kind == "chord") {
        config.substrate = core::SubstrateKind::kChord;
      } else if (kind == "prefix") {
        config.substrate = core::SubstrateKind::kPrefixRing;
      } else if (kind == "ideal") {
        config.substrate = core::SubstrateKind::kStaticRing;
      } else {
        usage(argv[0]);
      }
    } else if (is("--strategy")) {
      const auto kind = core::parse_strategy(value());
      if (!kind.has_value()) {
        usage(argv[0]);
      }
      config.strategy = *kind;
    } else if (is("--multicast")) {
      const std::string kind = value();
      if (kind == "seq") {
        config.multicast = routing::MulticastStrategy::kSequential;
      } else if (kind == "bidir") {
        config.multicast = routing::MulticastStrategy::kBidirectional;
      } else {
        usage(argv[0]);
      }
    } else if (is("--beta")) {
      config.batching.batch_size =
          static_cast<std::size_t>(parse_long(value(), argv[0], 1));
    } else if (is("--window")) {
      config.features.window_size =
          static_cast<std::size_t>(parse_long(value(), argv[0]));
    } else if (is("--coeffs")) {
      config.features.num_coefficients =
          static_cast<std::size_t>(parse_long(value(), argv[0]));
    } else if (is("--warmup")) {
      config.warmup = sim::Duration::seconds(parse_seconds(value(), argv[0]));
    } else if (is("--measure")) {
      config.measure =
          sim::Duration::seconds(parse_seconds(value(), argv[0]));
    } else if (is("--query-rate")) {
      config.workload.query_rate_per_sec =
          tools::parse_rate(value(), argv[0]);
    } else if (is("--adaptive-precision")) {
      config.adaptive_precision = core::AdaptivePrecisionController::Options{};
    } else if (is("--family")) {
      const std::string kind = value();
      if (kind == "walk") {
        config.stream_family = core::StreamFamily::kRandomWalk;
      } else if (kind == "stock") {
        config.stream_family = core::StreamFamily::kStockMarket;
      } else if (kind == "hostload") {
        config.stream_family = core::StreamFamily::kHostLoad;
      } else {
        usage(argv[0]);
      }
    } else if (is("--loss")) {
      config.faults.uniform_loss = parse_probability(value(), argv[0]);
    } else if (is("--burst-loss")) {
      const double rate = tools::parse_burst_loss(value(), argv[0]);
      if (rate > 0.0) {
        // Mean burst length 4 transmissions; solve p_g2b for the requested
        // stationary loss rate (see fault::GilbertElliottParams).
        fault::GilbertElliottParams burst;
        burst.p_bad_to_good = 0.25;
        burst.p_good_to_bad = 0.25 * rate / (1.0 - rate);
        config.faults.burst_loss = burst;
      }
    } else if (is("--crash-wave")) {
      crash_fraction = parse_probability(value(), argv[0], tools::kBelowOne);
    } else if (is("--jitter")) {
      config.faults.jitter = fault::LatencyJitter{
          sim::Duration::seconds(parse_seconds(value(), argv[0], 1000.0))};
    } else if (is("--mbr-acks")) {
      config.mbr_acks = true;
    } else if (is("--response-acks")) {
      config.response_acks = true;
    } else if (is("--mbr-refresh")) {
      config.mbr_refresh_period =
          sim::Duration::seconds(parse_seconds(value(), argv[0]));
    } else if (is("--query-refresh")) {
      config.query_refresh_period =
          sim::Duration::seconds(parse_seconds(value(), argv[0]));
    } else if (is("--replication-factor")) {
      config.replication_factor =
          static_cast<std::size_t>(parse_long(value(), argv[0]));
    } else if (is("--anti-entropy-period")) {
      config.anti_entropy_period =
          sim::Duration::seconds(parse_seconds(value(), argv[0]));
    } else if (is("--adversarial")) {
      adversarial();
    } else if (is("--zipf")) {
      adversarial().zipf_exponent = parse_double(value(), argv[0]);
    } else if (is("--pattern-pool")) {
      adversarial().pattern_pool =
          static_cast<std::size_t>(parse_long(value(), argv[0]));
    } else if (is("--zipf-clients")) {
      adversarial().zipf_clients = true;
    } else if (is("--placement-skew")) {
      adversarial().placement_skew = parse_double(value(), argv[0]);
    } else if (is("--flash-crowd")) {
      streams::FlashCrowd crowd;
      crowd.at_seconds = parse_seconds(value(), argv[0]);
      adversarial().flash_crowd = crowd;
    } else if (is("--overload-window")) {
      overload().window =
          sim::Duration::millis(parse_millis(value(), argv[0], 1));
    } else if (is("--ingest-capacity")) {
      overload().ingest_capacity =
          static_cast<std::uint64_t>(parse_long(value(), argv[0]));
    } else if (is("--shed-rate")) {
      overload().forced_shed_rate =
          parse_probability(value(), argv[0], tools::kBelowOne);
    } else if (is("--publish-budget")) {
      overload().publish_budget =
          static_cast<std::uint64_t>(parse_long(value(), argv[0]));
    } else if (is("--defer-capacity")) {
      overload().defer_capacity =
          static_cast<std::size_t>(parse_long(value(), argv[0]));
    } else if (is("--oracle")) {
      config.oracle_sample_period =
          sim::Duration::seconds(parse_seconds(value(), argv[0]));
    } else if (is("--drain")) {
      config.drain = sim::Duration::seconds(parse_seconds(value(), argv[0]));
    } else if (is("--obs-dir")) {
      config.obs.dir = value();
    } else if (is("--trace")) {
      config.obs.trace = true;
    } else if (is("--obs-window")) {
      config.obs.window =
          sim::Duration::millis(parse_millis(value(), argv[0], 1));
    } else {
      usage(argv[0]);
    }
  }
  if (!config.features.valid()) {
    usage(argv[0]);  // the window cannot hold the retained coefficients
  }
  if (config.obs.trace && !config.obs.enabled()) {
    std::fprintf(stderr, "%s: --trace requires --obs-dir\n", argv[0]);
    return 2;
  }
  if (config.adversarial.has_value() &&
      config.adversarial->flash_crowd.has_value() &&
      config.stream_family != core::StreamFamily::kStockMarket) {
    std::fprintf(stderr, "%s: --flash-crowd requires --family stock\n",
                 argv[0]);
    return 2;
  }
  if (crash_fraction > 0.0) {
    // The canonical chaos wave: hits 10s into the measurement ramp,
    // recovers 20s later, Chord maintenance heals the ring around it.
    fault::CrashWave wave;
    wave.at = sim::SimTime::zero() + config.warmup + sim::Duration::seconds(10);
    wave.fraction = crash_fraction;
    wave.down_for = sim::Duration::seconds(20);
    config.faults.crash_waves.push_back(wave);
  }

  std::printf("sdsi_sim: %zu nodes, radius %.2f, seed %llu, strategy %s\n",
              config.num_nodes, config.workload.query_radius,
              static_cast<unsigned long long>(config.seed),
              core::strategy_name(config.strategy));
  bench::print_workload_banner(config.workload);

  if (config.faults.uniform_loss > 0.0) {
    std::printf("message loss: %.1f%% of transmissions dropped\n",
                config.faults.uniform_loss * 100.0);
  }
  if (config.adversarial.has_value()) {
    const auto& adv = *config.adversarial;
    std::printf(
        "adversarial: pattern pool %zu (zipf %.2f), clients %s, "
        "placement skew %.2f%s\n",
        adv.pattern_pool, adv.zipf_exponent,
        adv.zipf_clients ? "zipf" : "uniform", adv.placement_skew,
        adv.flash_crowd.has_value() ? ", flash crowd armed" : "");
  }
  if (config.overload.has_value()) {
    const auto& ov = *config.overload;
    std::printf(
        "overload control: window %.0f ms, ingest cap %llu, "
        "shed rate %.2f, publish budget %llu, defer cap %zu\n",
        static_cast<double>(ov.window.count_micros()) / 1000.0,
        static_cast<unsigned long long>(ov.ingest_capacity),
        ov.forced_shed_rate,
        static_cast<unsigned long long>(ov.publish_budget), ov.defer_capacity);
  }
  core::Experiment experiment(config);
  experiment.run();
  if (config.obs.enabled()) {
    std::printf("observability: wrote %s/metrics.json%s\n",
                config.obs.dir.c_str(),
                config.obs.trace ? " and trace.jsonl" : "");
  }

  const core::LoadReport load = experiment.load_report();
  std::printf("\n-- Fig 6(a) load decomposition (msgs/node/s) --\n%s",
              core::render_load_table(load).render().c_str());

  const core::OverheadReport overhead = experiment.overhead_report();
  std::printf("\n-- Fig 7 overhead per event --\n");
  std::printf("  MBR internal %.3f  MBR transit %.3f\n", overhead.mbr_internal,
              overhead.mbr_transit);
  std::printf("  query internal %.3f  query transit %.3f\n",
              overhead.query_internal, overhead.query_transit);
  std::printf("  neighbor/resp %.3f  resp transit %.3f\n",
              overhead.neighbor_exchange, overhead.response_transit);

  const core::HopsReport hops = experiment.hops_report();
  std::printf("\n-- Fig 8 hops --\n");
  std::printf("  MBR %.2f  query %.2f  response %.2f\n", hops.mbr, hops.query,
              hops.response);

  const core::QualityReport quality = experiment.quality_report();
  std::printf("\n-- quality --\n");
  std::printf(
      "  queries posed %llu, responses %llu, matched streams %llu,\n"
      "  mean first response %.0f ms\n"
      "  match delivery p50 %.0f ms p99 %.0f ms (%llu pairs)\n",
      static_cast<unsigned long long>(quality.queries_posed),
      static_cast<unsigned long long>(quality.responses_received),
      static_cast<unsigned long long>(quality.matches_reported),
      quality.mean_first_response_ms, quality.match_delivery_p50_ms,
      quality.match_delivery_p99_ms,
      static_cast<unsigned long long>(quality.match_delivery_pairs));

  // Every loss, healing, replication, oracle and overload knob opens the
  // robustness block: a run that can lose or heal anything reports it.
  const bool chaos_run = !config.faults.empty() || config.mbr_acks ||
                         config.response_acks ||
                         config.mbr_refresh_period > sim::Duration() ||
                         config.query_refresh_period > sim::Duration() ||
                         config.replication_factor > 0 ||
                         config.anti_entropy_period > sim::Duration() ||
                         config.oracle_sample_period > sim::Duration() ||
                         config.overload.has_value() ||
                         config.adversarial.has_value();
  if (chaos_run) {
    const core::RobustnessReport robustness = experiment.robustness_report();
    std::printf("\n-- robustness --\n");
    if (config.oracle_sample_period > sim::Duration()) {
      std::printf("  recall vs oracle %.4f (%llu of %llu pairs delivered)\n",
                  robustness.recall,
                  static_cast<unsigned long long>(robustness.delivered_pairs),
                  static_cast<unsigned long long>(robustness.oracle_pairs));
    }
    std::printf(
        "  duplicate delivery rate %.4f, duplicate stores %llu\n"
        "  MBR acks %llu, retries %llu (exhausted %llu), refreshes %llu\n"
        "  response retries %llu, location retries %llu\n"
        "  heals %llu, heal latency mean %.0f ms max %.0f ms\n"
        "  heal latency p50 %.0f ms p90 %.0f ms p99 %.0f ms\n"
        "  crashes %llu, recoveries %llu\n",
        robustness.duplicate_delivery_rate,
        static_cast<unsigned long long>(robustness.duplicate_stores),
        static_cast<unsigned long long>(robustness.mbr_acks),
        static_cast<unsigned long long>(robustness.mbr_retries),
        static_cast<unsigned long long>(robustness.mbr_retry_exhausted),
        static_cast<unsigned long long>(robustness.mbr_refreshes),
        static_cast<unsigned long long>(robustness.response_retries),
        static_cast<unsigned long long>(robustness.location_retries),
        static_cast<unsigned long long>(robustness.heal_latency_ms.count()),
        robustness.heal_latency_ms.mean(), robustness.heal_latency_ms.max(),
        robustness.heal_latency_ms.p50(), robustness.heal_latency_ms.p90(),
        robustness.heal_latency_ms.p99(),
        static_cast<unsigned long long>(robustness.crashes),
        static_cast<unsigned long long>(robustness.recoveries));
    if (config.replication_factor > 0) {
      std::printf(
          "  replica puts %llu, repairs %llu, handoff entries %llu"
          " (%llu bytes)\n"
          "  aggregator failovers %llu (mean %.0f ms, p90 %.0f ms),"
          " detours %llu\n",
          static_cast<unsigned long long>(robustness.replica_puts),
          static_cast<unsigned long long>(robustness.replica_repairs),
          static_cast<unsigned long long>(robustness.handoff_entries),
          static_cast<unsigned long long>(robustness.handoff_bytes),
          static_cast<unsigned long long>(robustness.aggregator_failovers),
          robustness.failover_latency_ms.mean(),
          robustness.failover_latency_ms.p90(),
          static_cast<unsigned long long>(robustness.report_detours));
    }
    std::printf(
        "  load imbalance p99/median: messages %.2f, work %.2f\n",
        robustness.message_load_p99_over_median,
        robustness.work_p99_over_median);
    if (config.overload.has_value()) {
      std::printf(
          "  shed MBRs %llu, backpressure deferrals %llu, drops %llu\n",
          static_cast<unsigned long long>(robustness.shed_mbrs),
          static_cast<unsigned long long>(robustness.backpressure_deferrals),
          static_cast<unsigned long long>(robustness.backpressure_drops));
    }
    std::printf(
        "%s", core::render_drops_table(robustness.drops_by_cause).render()
                  .c_str());
  }
  return 0;
}
