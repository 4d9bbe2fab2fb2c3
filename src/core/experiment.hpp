// The Section V evaluation harness: builds a ring of data centers, attaches
// the middleware, replays the Table I workload, and reduces the metrics into
// exactly the series Figures 6-8 plot.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chord/network.hpp"
#include "core/robustness.hpp"
#include "core/system.hpp"
#include "fault/injector.hpp"
#include "routing/prefix_ring.hpp"
#include "routing/static_ring.hpp"
#include "streams/adversarial.hpp"
#include "streams/generators.hpp"

namespace sdsi::core {

/// Table I of the paper, plus the query radius used in Section V.
struct WorkloadConfig {
  sim::Duration stream_period_min = sim::Duration::millis(150);   // PMIN
  sim::Duration stream_period_max = sim::Duration::millis(250);   // PMAX
  sim::Duration mbr_lifespan = sim::Duration::millis(5000);       // BSPAN
  double query_rate_per_sec = 2.0;                                // QRATE
  sim::Duration query_lifespan_min = sim::Duration::seconds(20);  // QMIN
  sim::Duration query_lifespan_max = sim::Duration::seconds(100); // QMAX
  sim::Duration notify_period = sim::Duration::millis(2000);      // NPER
  double query_radius = 0.1;  // "similarity queries with radius 0.1"
};

enum class SubstrateKind {
  kChord,       // the paper's testbed
  kPrefixRing,  // Pastry-style prefix routing (portability claim, Sec II-B)
  kStaticRing,  // idealized one-hop DHT (ablation baseline)
};

/// What each node's stream emits. The paper evaluates on synthetic
/// random-walk streams plus real S&P500 and host-load datasets; the latter
/// two are modeled by the synthetic equivalents of DESIGN.md §2.
enum class StreamFamily {
  kRandomWalk,   // the paper's synthetic model
  kStockMarket,  // S&P500-like correlated daily closes (one ticker/node)
  kHostLoad,     // CMU-host-load-like machine utilization
};

/// Feature scheme used by the Section V experiments. The paper does not
/// state its window length; W = 256 is in the range typical for the cited
/// stream indexes (SWAT / StatStream) and gives consecutive summaries the
/// strong locality the paper's MBR mechanism assumes ("MBRs with relatively
/// small ranges"): with the Table I stream periods, one node emits ~1 MBR/s
/// whose first-coordinate extent stays small. See EXPERIMENTS.md for the
/// sensitivity of the Fig 6(a) "MBRs internal" component to this choice.
inline dsp::FeatureConfig experiment_feature_config() {
  dsp::FeatureConfig config;
  config.window_size = 256;
  config.num_coefficients = 2;
  config.normalization = dsp::Normalization::kZNormalize;
  return config;
}

/// Observability exports. When `dir` is non-empty the run attaches a
/// time-series MetricsRegistry and writes `<dir>/metrics.json` when it
/// finishes; with `trace` also set it streams `<dir>/trace.jsonl`
/// span events as the run executes. The directory is created if missing.
/// docs/OBSERVABILITY.md documents both schemas.
struct ObsOptions {
  std::string dir;
  bool trace = false;
  /// Simulated-time window the series fold into.
  sim::Duration window = sim::Duration::seconds(1);

  bool enabled() const noexcept { return !dir.empty(); }
};

struct ExperimentConfig {
  std::size_t num_nodes = 50;
  unsigned id_bits = 32;
  std::uint64_t seed = 42;
  WorkloadConfig workload;
  dsp::FeatureConfig features = experiment_feature_config();
  /// Summary/index/routing-key strategy (core/strategy.hpp): the default
  /// kDft is the paper's pipeline, byte-identical to pre-strategy builds.
  StrategyKind strategy = StrategyKind::kDft;
  MbrBatcher::Options batching;  // defaults: fixed batches of beta = 5
  routing::MulticastStrategy multicast =
      routing::MulticastStrategy::kSequential;
  /// Sec VI-A closed loop for every stream (nullopt = paper's fixed beta).
  std::optional<AdaptivePrecisionController::Options> adaptive_precision;
  SubstrateKind substrate = SubstrateKind::kChord;
  StreamFamily stream_family = StreamFamily::kRandomWalk;
  /// Steady-state ramp before measurement starts (active query population
  /// needs query_rate * mean lifespan ~ 120 queries to stabilize).
  sim::Duration warmup = sim::Duration::seconds(60);
  sim::Duration measure = sim::Duration::seconds(60);

  // --- Robustness (chaos) extensions --------------------------------------

  /// Fault injection: uniform and bursty loss, latency jitter, key-range
  /// partitions, crash/recover waves. Times in the plan are absolute
  /// simulation times (warmup starts at 0). Empty injects nothing.
  fault::FaultPlan faults;
  /// Self-healing knobs forwarded into MiddlewareConfig.
  bool mbr_acks = false;
  bool response_acks = false;
  sim::Duration mbr_refresh_period = sim::Duration();
  sim::Duration query_refresh_period = sim::Duration();
  /// Successor-list replication degree (0 disables the replication layer);
  /// forwarded into MiddlewareConfig. Recovered nodes additionally pull
  /// their key-range slice from their successor (ownership handoff).
  std::size_t replication_factor = 0;
  /// Anti-entropy digest period (0 disables); forwarded into
  /// MiddlewareConfig.
  sim::Duration anti_entropy_period = sim::Duration();
  /// Recall-oracle sampling period (zero disables the oracle entirely).
  /// Sampling stops at the end of `measure`.
  sim::Duration oracle_sample_period = sim::Duration();
  /// Extra settling time after `measure` (faults cleared, deliveries and
  /// refreshes draining) before the reports are read. Robustness runs use
  /// ~2 refresh periods; load/overhead figure runs keep it zero.
  sim::Duration drain = sim::Duration();

  // --- Adversarial-skew extensions ----------------------------------------

  /// Adversarial workload shaping (streams/adversarial.hpp): Zipf pattern
  /// pools, Zipf clients, skewed node placement, flash crowds. nullopt (the
  /// default) keeps the paper's uniform workload byte-identical.
  std::optional<streams::AdversarialSpec> adversarial;
  /// Overload-survival layer (load shedding, ingest backpressure);
  /// forwarded into MiddlewareConfig. When set, stream
  /// emission additionally honors MiddlewareSystem::ingest_backpressure —
  /// a source under publish backpressure stretches its emission gaps
  /// (slows down) instead of having the middleware drop its batches.
  std::optional<OverloadOptions> overload;

  /// Observability exports (metrics.json / trace.jsonl); off by default.
  ObsOptions obs;
};

/// Fig 6(a): average per-node message load per second, seven components.
struct LoadReport {
  std::array<double, static_cast<std::size_t>(LoadComponent::kCount)>
      per_component{};
  double total = 0.0;
  /// Fig 6(b): total load rate of every individual node.
  std::vector<double> per_node_total;
};

/// Fig 7: additional messages the system sends per input event.
struct OverheadReport {
  double mbr_internal = 0.0;       // range-span copies per MBR
  double mbr_transit = 0.0;        // overlay relays per MBR
  double query_internal = 0.0;     // range-span copies per query
  double query_transit = 0.0;      // overlay relays per query
  double neighbor_exchange = 0.0;  // report digests per response
  double response_transit = 0.0;   // overlay relays per response
};

/// Fig 8: average hops traversed by each message type.
struct HopsReport {
  double mbr = 0.0;
  double mbr_internal = 0.0;
  double query = 0.0;
  double query_internal = 0.0;
  double response = 0.0;
};

/// End-to-end quality numbers (not in the paper's figures, but what the
/// index is *for*; EXPERIMENTS.md reports them as sanity checks).
struct QualityReport {
  std::uint64_t queries_posed = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t matches_reported = 0;
  double mean_first_response_ms = 0.0;
  /// Match delivery (MetricsCollector::match_delivery_ms): pairs that first
  /// reached their client in the measurement window, and the p50/p99 of
  /// their detecting pass -> client times.
  std::uint64_t match_delivery_pairs = 0;
  double match_delivery_p50_ms = 0.0;
  double match_delivery_p99_ms = 0.0;
};

/// Degradation + self-healing numbers of a (chaos) run: the measurement
/// window's RobustnessCounters, plus what only the experiment knows.
struct RobustnessReport : RobustnessCounters {
  /// Recall vs the fault-free oracle over queries from never-crashed
  /// clients; 0 when the oracle was disabled or detected nothing.
  double recall = 0.0;
  std::uint64_t oracle_pairs = 0;     // oracle (query, stream) pairs
  std::uint64_t delivered_pairs = 0;  // of those, reaching their client
  /// Duplicate match entries per delivered match entry (client side).
  double duplicate_delivery_rate = 0.0;
  /// Drops by cause label (fault::DropCause order), unified across the link
  /// loss models and routing-level losses, measurement window only.
  std::array<std::uint64_t, static_cast<std::size_t>(fault::DropCause::kCount)>
      drops_by_cause{};
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  /// Load-imbalance ratios over the measurement window (nearest-rank p99 /
  /// median across nodes; 0 when the median is 0). `message_load_*` counts
  /// delivered messages; `work_*` counts index work — stores, match scans,
  /// subscription installs.
  double message_load_p99_over_median = 0.0;
  double work_p99_over_median = 0.0;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Builds the ring + workload and schedules the stream/query arrivals,
  /// without executing any simulated time. run() calls this implicitly;
  /// benches call it explicitly so wall-clock timing covers only the
  /// event-execution phase, not substrate bootstrap.
  void prepare();

  /// Runs warm-up (metrics off), then the measurement window (metrics on).
  /// Calls prepare() first unless it already ran.
  void run();

  const ExperimentConfig& config() const noexcept { return config_; }
  double measured_seconds() const noexcept {
    return config_.measure.as_seconds();
  }

  LoadReport load_report() const;
  OverheadReport overhead_report() const;
  HopsReport hops_report() const;
  QualityReport quality_report() const;
  RobustnessReport robustness_report() const;

  const fault::FaultInjector* injector() const noexcept {
    return injector_.get();
  }
  const RecallOracle* oracle() const noexcept { return oracle_.get(); }

  MiddlewareSystem& system() { return *system_; }
  const MetricsCollector& metrics() const { return system_->metrics(); }
  sim::Simulator& simulator() { return sim_; }
  routing::RoutingSystem& routing_system() { return *routing_; }

  /// Time-series registry; nullptr unless config.obs.dir was set.
  const obs::MetricsRegistry* registry() const noexcept {
    return registry_.get();
  }

 private:
  void build();
  void schedule_streams();
  void schedule_queries();
  void schedule_adversarial();
  dsp::FeatureVector random_query_features();
  dsp::FeatureVector query_features_from(common::Pcg32& rng);
  std::unique_ptr<streams::StreamGenerator> make_generator(NodeIndex node);

  void wire_faults();
  void wire_observability();
  void write_obs_exports();

  ExperimentConfig config_;
  common::RngFactory rng_factory_;
  sim::Simulator sim_;
  // Declared before routing_/system_, which hold raw pointers into them, so
  // destruction runs in the safe order.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::JsonlTraceSink> trace_sink_;
  std::unique_ptr<routing::RoutingSystem> routing_;
  std::unique_ptr<MiddlewareSystem> system_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<RecallOracle> oracle_;
  sim::TaskHandle oracle_task_;
  std::vector<std::unique_ptr<streams::StreamGenerator>> generators_;
  std::shared_ptr<streams::StockMarketModel> market_;  // stock family only
  common::Pcg32 query_rng_;
  common::Pcg32 query_walk_rng_;
  /// Adversarial machinery; null unless config.adversarial asks for it.
  std::unique_ptr<streams::ZipfSampler> pattern_pool_;
  std::unique_ptr<streams::ZipfSampler> client_zipf_;
  /// Live query arrival rate: the flash-crowd boost raises it mid-run and
  /// restores it afterwards; benign runs never touch it.
  double current_query_rate_ = 0.0;
  std::uint64_t queries_posed_ = 0;
  bool prepared_ = false;
  bool ran_ = false;
};

}  // namespace sdsi::core
