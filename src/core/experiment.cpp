#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>

#include "core/obs_export.hpp"

namespace sdsi::core {

namespace {

StreamId stream_id_for_node(NodeIndex node) { return 1000 + node; }

}  // namespace

Experiment::Experiment(ExperimentConfig config)
    : config_(config),
      rng_factory_(config.seed),
      query_rng_(rng_factory_.make("query-arrivals")),
      query_walk_rng_(rng_factory_.make("query-patterns")),
      current_query_rate_(config.workload.query_rate_per_sec) {
  SDSI_CHECK(config_.num_nodes >= 1);
}

Experiment::~Experiment() = default;

void Experiment::build() {
  const common::IdSpace space(config_.id_bits);
  const bool skewed_placement = config_.adversarial.has_value() &&
                                config_.adversarial->placement_skew > 0.0;
  const std::vector<Key> ids =
      skewed_placement
          ? streams::skewed_node_ids(config_.num_nodes, space, config_.seed,
                                     config_.adversarial->placement_skew)
          : routing::hash_node_ids(config_.num_nodes, space, config_.seed);

  switch (config_.substrate) {
    case SubstrateKind::kChord: {
      chord::ChordConfig chord_config;
      chord_config.id_bits = config_.id_bits;
      auto network = std::make_unique<chord::ChordNetwork>(sim_, chord_config);
      network->bootstrap(ids);
      routing_ = std::move(network);
      break;
    }
    case SubstrateKind::kPrefixRing:
      routing_ = std::make_unique<routing::PrefixRing>(sim_, space, ids);
      break;
    case SubstrateKind::kStaticRing:
      routing_ = std::make_unique<routing::StaticRing>(sim_, space, ids);
      break;
  }

  MiddlewareConfig middleware;
  middleware.features = config_.features;
  middleware.strategy = config_.strategy;
  middleware.batching = config_.batching;
  middleware.multicast = config_.multicast;
  middleware.mbr_lifespan = config_.workload.mbr_lifespan;
  middleware.notify_period = config_.workload.notify_period;
  middleware.adaptive_precision = config_.adaptive_precision;
  middleware.mbr_ack.enabled = config_.mbr_acks;
  middleware.response_ack.enabled = config_.response_acks;
  middleware.mbr_refresh_period = config_.mbr_refresh_period;
  middleware.query_refresh_period = config_.query_refresh_period;
  middleware.replication_factor = config_.replication_factor;
  middleware.anti_entropy_period = config_.anti_entropy_period;
  middleware.overload = config_.overload;
  middleware.rng_seed = rng_factory_.make("middleware-seed").next64();
  system_ = std::make_unique<MiddlewareSystem>(*routing_, middleware);
  system_->metrics().set_enabled(false);

  wire_observability();
  wire_faults();

  if (config_.oracle_sample_period > sim::Duration()) {
    oracle_ = std::make_unique<RecallOracle>();
    RecallOracle* oracle = oracle_.get();
    system_->set_publish_hook([oracle, this](const MbrPayload& payload) {
      oracle->on_publish(payload, sim_.now());
    });
    system_->set_query_hook(
        [oracle](std::shared_ptr<const SimilarityQuery> query) {
          oracle->on_subscribe(std::move(query));
        });
    oracle_task_ = sim_.schedule_periodic(
        sim_.now() + config_.oracle_sample_period,
        config_.oracle_sample_period, [this] { oracle_->sample(sim_.now()); });
  }
}

void Experiment::wire_observability() {
  if (!config_.obs.enabled()) {
    return;
  }
  std::filesystem::create_directories(config_.obs.dir);
  obs::MetricsRegistry::Options options;
  options.window = config_.obs.window;
  registry_ = std::make_unique<obs::MetricsRegistry>(&sim_, options);
  system_->metrics().set_registry(registry_.get());
  if (config_.obs.trace) {
    const std::string path = config_.obs.dir + "/trace.jsonl";
    trace_sink_ = std::make_unique<obs::JsonlTraceSink>(path);
    SDSI_CHECK(trace_sink_->ok());
    routing_->set_trace_sink(trace_sink_.get());
  }
  // Membership over time: sample the alive-node count once per window.
  sim_.schedule_periodic(sim_.now() + config_.obs.window, config_.obs.window,
                         [this] {
                           std::size_t alive = 0;
                           for (NodeIndex node = 0;
                                node < routing_->num_nodes(); ++node) {
                             if (routing_->is_alive(node)) {
                               ++alive;
                             }
                           }
                           registry_->gauge("nodes.alive")
                               .set(static_cast<double>(alive));
                         });
}

void Experiment::write_obs_exports() {
  if (registry_ == nullptr) {
    return;
  }
  registry_->flush();
  const std::string path = config_.obs.dir + "/metrics.json";
  SDSI_CHECK(write_metrics_json(*this, path));
  if (trace_sink_ != nullptr) {
    trace_sink_->flush();
  }
}

void Experiment::wire_faults() {
  if (config_.faults.empty()) {
    return;
  }
  if (config_.faults.has_link_faults()) {
    routing_->set_fault_model(std::make_shared<fault::LinkFaultModel>(
        config_.faults, routing_->id_space(), rng_factory_.make("fault-links"),
        rng_factory_.make("message-loss")));
  }
  if (config_.faults.crash_waves.empty()) {
    return;
  }
  // Crash waves need a substrate with a membership protocol.
  auto* chord = dynamic_cast<chord::ChordNetwork*>(routing_.get());
  SDSI_CHECK(chord != nullptr);
  fault::MembershipHooks hooks;
  hooks.alive_nodes = [chord] {
    std::vector<NodeIndex> alive;
    for (NodeIndex node = 0; node < chord->num_nodes(); ++node) {
      if (chord->is_alive(node)) {
        alive.push_back(node);
      }
    }
    return alive;
  };
  hooks.crash = [chord](NodeIndex node) { chord->crash(node); };
  hooks.recover = [chord, this](NodeIndex node) {
    NodeIndex via = kInvalidNode;
    for (NodeIndex i = 0; i < chord->num_nodes(); ++i) {
      if (i != node && chord->is_alive(i)) {
        via = i;
        break;
      }
    }
    SDSI_CHECK(via != kInvalidNode);
    chord->recover(node, via);
    // A restarted data center comes back with empty soft state.
    system_->reset_node_soft_state(node);
    // With replication on, the rejoined node immediately pulls its key-range
    // slice from its successor instead of waiting for the refresh period.
    system_->handle_node_join(node);
  };
  hooks.maintenance = [chord](int rounds) {
    chord->run_maintenance_rounds(rounds);
  };
  injector_ = std::make_unique<fault::FaultInjector>(
      sim_, config_.faults, std::move(hooks),
      rng_factory_.make("fault-injector"));
  injector_->arm();
}

std::unique_ptr<streams::StreamGenerator> Experiment::make_generator(
    NodeIndex node) {
  switch (config_.stream_family) {
    case StreamFamily::kRandomWalk:
      return std::make_unique<streams::RandomWalkGenerator>(
          rng_factory_.make("stream-walk", node));
    case StreamFamily::kStockMarket: {
      // One shared market so tickers stay cross-correlated; built lazily on
      // the first node. Tickers advance the market in lockstep: all stock
      // streams share one period (closes arrive together), so ticker 0's
      // pull steps the whole market (see StockTickerStream).
      if (market_ == nullptr) {
        streams::StockMarketModel::Params params;
        params.num_tickers = config_.num_nodes;
        market_ = std::make_shared<streams::StockMarketModel>(
            rng_factory_.make("stock-market"), params);
      }
      return std::make_unique<streams::StockTickerStream>(market_, node);
    }
    case StreamFamily::kHostLoad:
      return std::make_unique<streams::HostLoadGenerator>(
          rng_factory_.make("stream-load", node));
  }
  SDSI_CHECK(false);
}

void Experiment::schedule_streams() {
  // "Each node is a source of exactly one stream", simulated as a periodic
  // process with per-stream period uniform in [PMIN, PMAX]. The stock
  // family keeps one common period so the shared market advances in
  // lockstep (daily closes arrive together at every data center).
  generators_.reserve(config_.num_nodes);
  common::Pcg32 period_rng = rng_factory_.make("stream-periods");
  const bool lockstep = config_.stream_family == StreamFamily::kStockMarket;
  const auto common_period = sim::Duration::micros(
      (config_.workload.stream_period_min.count_micros() +
       config_.workload.stream_period_max.count_micros()) /
      2);
  for (NodeIndex node = 0; node < config_.num_nodes; ++node) {
    const StreamId sid = stream_id_for_node(node);
    system_->register_stream(node, sid);
    generators_.push_back(make_generator(node));
    const auto period =
        lockstep ? common_period
                 : sim::Duration::micros(period_rng.uniform_int(
                       config_.workload.stream_period_min.count_micros(),
                       config_.workload.stream_period_max.count_micros()));
    const auto offset =
        lockstep ? sim::Duration()
                 : sim::Duration::micros(
                       period_rng.uniform_int(0, period.count_micros()));
    streams::StreamGenerator* generator = generators_.back().get();
    if (config_.overload.has_value()) {
      // Backpressure-aware emission: the gap to the next sample stretches
      // with the source's deferral-queue fill (up to 2x at a full queue), so
      // an overloaded source slows down instead of feeding the drop path.
      // Self-rescheduling closure with the same weak-ref pattern as
      // schedule_queries; benign runs keep the plain periodic schedule, so
      // enabling nothing changes nothing.
      auto emit = std::make_shared<std::function<void()>>();
      *emit = [this, node, sid, generator, period,
               weak = std::weak_ptr<std::function<void()>>(emit)] {
        if (routing_->is_alive(node)) {
          system_->post_stream_value(node, sid, generator->next());
        }
        const double stretch = 1.0 + system_->ingest_backpressure(node);
        if (auto self = weak.lock()) {
          sim_.schedule_after(
              sim::Duration::micros(static_cast<std::int64_t>(
                  static_cast<double>(period.count_micros()) * stretch)),
              [self] { (*self)(); });
        }
      };
      sim_.schedule_after(offset + period, [emit] { (*emit)(); });
      continue;
    }
    sim_.schedule_periodic(sim_.now() + offset + period, period,
                           [this, node, sid, generator] {
                             if (!routing_->is_alive(node)) {
                               return;  // crashed source emits nothing
                             }
                             system_->post_stream_value(node, sid,
                                                        generator->next());
                           });
  }
}

dsp::FeatureVector Experiment::query_features_from(common::Pcg32& rng) {
  // Query patterns are drawn from the same family as the data, so query
  // keys follow the data key distribution.
  std::vector<Sample> window(config_.features.window_size);
  switch (config_.stream_family) {
    case StreamFamily::kRandomWalk: {
      streams::RandomWalkGenerator walk(rng, rng.uniform(-10.0, 10.0));
      for (Sample& x : window) {
        x = walk.next();
      }
      break;
    }
    case StreamFamily::kStockMarket: {
      // A GBM price path with market-typical volatility.
      double price = 100.0;
      for (Sample& x : window) {
        price *= std::exp(0.0002 + 0.012 * rng.normal());
        x = price;
      }
      break;
    }
    case StreamFamily::kHostLoad: {
      streams::HostLoadGenerator load(rng);
      for (Sample& x : window) {
        x = load.next();
      }
      break;
    }
  }
  return system_->strategy().features_from_window(window);
}

dsp::FeatureVector Experiment::random_query_features() {
  if (pattern_pool_ != nullptr) {
    // Popularity-skewed pattern pool: one Zipf draw picks the rank, and the
    // pattern is regenerated from a rank-keyed rng stream — every query of
    // rank k carries the identical pattern (and thus the identical key
    // range), so popular ranks concentrate subscriptions onto one arc.
    const std::size_t rank = pattern_pool_->sample(query_walk_rng_);
    common::Pcg32 pattern_rng = rng_factory_.make("adversarial-pattern", rank);
    return query_features_from(pattern_rng);
  }
  dsp::FeatureVector features = query_features_from(query_walk_rng_);
  // Advance the shared rng so consecutive queries differ.
  query_walk_rng_ = common::Pcg32(query_walk_rng_.next64(),
                                  query_walk_rng_.next64());
  return features;
}

void Experiment::schedule_queries() {
  // Poisson arrivals at QRATE; every query is issued by a random node
  // ("queries are generated synthetically using a uniform distribution").
  auto arrival = std::make_shared<std::function<void()>>();
  // The closure must not own itself (shared_ptr cycle): each scheduled
  // event holds the strong reference, the closure only a weak one.
  *arrival = [this, weak = std::weak_ptr<std::function<void()>>(arrival)] {
    const NodeIndex client =
        client_zipf_ != nullptr
            ? static_cast<NodeIndex>(client_zipf_->sample(query_rng_))
            : static_cast<NodeIndex>(query_rng_.bounded(
                  static_cast<std::uint32_t>(config_.num_nodes)));
    const auto lifespan = sim::Duration::micros(query_rng_.uniform_int(
        config_.workload.query_lifespan_min.count_micros(),
        config_.workload.query_lifespan_max.count_micros()));
    // Draw the pattern unconditionally so the query workload stays
    // identical across runs that differ only in their fault plan.
    dsp::FeatureVector features = random_query_features();
    if (routing_->is_alive(client)) {
      system_->subscribe_similarity(client, std::move(features),
                                    config_.workload.query_radius, lifespan);
      ++queries_posed_;
    }
    const double gap = query_rng_.exponential(current_query_rate_);
    if (auto self = weak.lock()) {
      sim_.schedule_after(sim::Duration::seconds(gap),
                          [self] { (*self)(); });
    }
  };
  const double first_gap = query_rng_.exponential(current_query_rate_);
  sim_.schedule_after(sim::Duration::seconds(first_gap),
                      [arrival] { (*arrival)(); });
}

void Experiment::schedule_adversarial() {
  if (!config_.adversarial.has_value()) {
    return;
  }
  const streams::AdversarialSpec& spec = *config_.adversarial;
  if (spec.pattern_pool > 0) {
    pattern_pool_ = std::make_unique<streams::ZipfSampler>(
        spec.pattern_pool, spec.zipf_exponent);
  }
  if (spec.zipf_clients) {
    client_zipf_ = std::make_unique<streams::ZipfSampler>(config_.num_nodes,
                                                          spec.zipf_exponent);
  }
  if (spec.flash_crowd.has_value()) {
    // The shock marches the sector's tickers in lockstep (correlated keys)
    // while the crowd's queries arrive kQueryBoost times faster — the
    // combined pile-up the overload layer exists to survive.
    SDSI_CHECK(config_.stream_family == StreamFamily::kStockMarket &&
               "flash crowds shock the stock-market sector factor");
    SDSI_CHECK(market_ != nullptr);
    using Crowd = streams::FlashCrowd;
    const double at_seconds = spec.flash_crowd->at_seconds;
    sim_.schedule_after(sim::Duration::seconds(at_seconds), [this] {
      market_->apply_sector_shock(Crowd::kSector, Crowd::kMagnitude,
                                  Crowd::kSteps);
      current_query_rate_ =
          config_.workload.query_rate_per_sec * Crowd::kQueryBoost;
    });
    sim_.schedule_after(
        sim::Duration::seconds(at_seconds + Crowd::kBoostDurationSeconds),
        [this] {
          current_query_rate_ = config_.workload.query_rate_per_sec;
        });
  }
}

void Experiment::prepare() {
  SDSI_CHECK(!ran_);
  SDSI_CHECK(!prepared_);
  prepared_ = true;
  build();
  schedule_streams();
  // Before schedule_queries: the first arrival draws its pattern from the
  // pool sampler, and after schedule_streams: the flash crowd needs the
  // shared market built by the first stock generator.
  schedule_adversarial();
  schedule_queries();
  system_->start();
}

void Experiment::run() {
  SDSI_CHECK(!ran_);
  if (!prepared_) {
    prepare();
  }
  ran_ = true;

  sim_.run_until(sim::SimTime::zero() + config_.warmup);
  system_->metrics().reset();
  system_->metrics().set_enabled(true);
  sim_.run_until(sim::SimTime::zero() + config_.warmup + config_.measure);
  // Oracle sampling ends with the measurement window; the drain below lets
  // the real system's in-flight detections, pushes, retries, and refreshes
  // settle so recall is read after healing, not mid-flight.
  oracle_task_.cancel();
  if (config_.drain > sim::Duration()) {
    sim_.run_until(sim::SimTime::zero() + config_.warmup + config_.measure +
                   config_.drain);
  }
  system_->metrics().set_enabled(false);
  write_obs_exports();
}

LoadReport Experiment::load_report() const {
  SDSI_CHECK(ran_);
  const MetricsCollector& metrics = system_->metrics();
  const double seconds = measured_seconds();
  const auto nodes = static_cast<double>(config_.num_nodes);
  LoadReport report;
  for (std::size_t c = 0; c < report.per_component.size(); ++c) {
    std::uint64_t total = 0;
    for (NodeIndex node = 0; node < config_.num_nodes; ++node) {
      total += metrics.node_load(node, static_cast<LoadComponent>(c));
    }
    report.per_component[c] = static_cast<double>(total) / seconds / nodes;
    report.total += report.per_component[c];
  }
  report.per_node_total.reserve(config_.num_nodes);
  for (NodeIndex node = 0; node < config_.num_nodes; ++node) {
    report.per_node_total.push_back(
        static_cast<double>(metrics.node_load_total(node)) / seconds);
  }
  return report;
}

OverheadReport Experiment::overhead_report() const {
  SDSI_CHECK(ran_);
  const MetricsCollector& metrics = system_->metrics();
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  OverheadReport report;
  report.mbr_internal =
      ratio(metrics.mbr().range_internal, metrics.mbr().originated);
  report.mbr_transit = ratio(metrics.mbr().transit, metrics.mbr().originated);
  report.query_internal =
      ratio(metrics.query().range_internal, metrics.query().originated);
  report.query_transit =
      ratio(metrics.query().transit, metrics.query().originated);
  report.neighbor_exchange =
      ratio(metrics.neighbor().originated, metrics.response().originated);
  report.response_transit =
      ratio(metrics.response().transit, metrics.response().originated);
  return report;
}

HopsReport Experiment::hops_report() const {
  SDSI_CHECK(ran_);
  const MetricsCollector& metrics = system_->metrics();
  HopsReport report;
  report.mbr = metrics.mbr().hops_routed.mean();
  report.mbr_internal = metrics.mbr().hops_internal.mean();
  report.query = metrics.query().hops_routed.mean();
  report.query_internal = metrics.query().hops_internal.mean();
  report.response = metrics.response().hops_routed.mean();
  return report;
}

QualityReport Experiment::quality_report() const {
  SDSI_CHECK(ran_);
  QualityReport report;
  report.queries_posed = queries_posed_;
  common::OnlineStats first_response;
  for (const auto& [id, record] : system_->client_records()) {
    report.responses_received += record.responses_received;
    report.matches_reported += record.matched_streams.size();
    if (record.first_response_at.has_value()) {
      first_response.add(
          (*record.first_response_at - record.issued_at).as_millis());
    }
  }
  report.mean_first_response_ms = first_response.mean();
  const obs::LogHistogram& delivery = system_->metrics().match_delivery_ms();
  report.match_delivery_pairs = delivery.count();
  report.match_delivery_p50_ms = delivery.p50();
  report.match_delivery_p99_ms = delivery.p99();
  return report;
}

RobustnessReport Experiment::robustness_report() const {
  SDSI_CHECK(ran_);
  const MetricsCollector& metrics = system_->metrics();
  RobustnessReport report;
  static_cast<RobustnessCounters&>(report) = metrics.robustness();

  if (oracle_ != nullptr) {
    const auto* crashed =
        injector_ != nullptr ? &injector_->ever_crashed() : nullptr;
    for (const auto& [query_id, stream] : oracle_->pairs()) {
      const ClientQueryRecord* record = system_->client_record(query_id);
      SDSI_CHECK(record != nullptr);
      if (crashed != nullptr && crashed->contains(record->client)) {
        continue;  // a dead client's losses are its own, not the index's
      }
      ++report.oracle_pairs;
      if (record->matched_streams.contains(stream)) {
        ++report.delivered_pairs;
      }
    }
    if (report.oracle_pairs > 0) {
      report.recall = static_cast<double>(report.delivered_pairs) /
                      static_cast<double>(report.oracle_pairs);
    }
  }

  std::uint64_t unique_events = 0;
  std::uint64_t duplicate_events = 0;
  for (const auto& [id, record] : system_->client_records()) {
    unique_events += record.match_events;
    duplicate_events += record.duplicate_match_events;
  }
  if (unique_events + duplicate_events > 0) {
    report.duplicate_delivery_rate =
        static_cast<double>(duplicate_events) /
        static_cast<double>(unique_events + duplicate_events);
  }

  for (std::size_t c = 0; c < report.drops_by_cause.size(); ++c) {
    report.drops_by_cause[c] = metrics.drops(static_cast<fault::DropCause>(c));
  }
  if (injector_ != nullptr) {
    report.crashes = injector_->crashes_executed();
    report.recoveries = injector_->recoveries_executed();
  }
  const auto p99_over_median = [](std::vector<std::uint64_t> values) {
    if (values.empty()) {
      return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::uint64_t median = values[(values.size() - 1) / 2];
    const auto p99_index = static_cast<std::size_t>(
        std::llround(0.99 * static_cast<double>(values.size() - 1)));
    const std::uint64_t p99 = values[p99_index];
    return median == 0 ? 0.0
                       : static_cast<double>(p99) / static_cast<double>(median);
  };
  std::vector<std::uint64_t> message_load;
  std::vector<std::uint64_t> work;
  message_load.reserve(config_.num_nodes);
  work.reserve(config_.num_nodes);
  for (NodeIndex node = 0; node < config_.num_nodes; ++node) {
    message_load.push_back(metrics.node_load_total(node));
    work.push_back(metrics.node_work_total(node));
  }
  report.message_load_p99_over_median = p99_over_median(std::move(message_load));
  report.work_p99_over_median = p99_over_median(std::move(work));
  return report;
}

}  // namespace sdsi::core
