#include "core/obs_export.hpp"

#include <cstdint>
#include <fstream>

#include "core/metrics.hpp"
#include "core/report_render.hpp"

namespace sdsi::core {
namespace {

const char* substrate_name(SubstrateKind kind) {
  switch (kind) {
    case SubstrateKind::kChord:
      return "chord";
    case SubstrateKind::kPrefixRing:
      return "prefix";
    case SubstrateKind::kStaticRing:
      return "ideal";
  }
  SDSI_CHECK(false && "unknown SubstrateKind");
  return "";
}

const char* multicast_name(routing::MulticastStrategy strategy) {
  switch (strategy) {
    case routing::MulticastStrategy::kSequential:
      return "seq";
    case routing::MulticastStrategy::kBidirectional:
      return "bidir";
  }
  SDSI_CHECK(false && "unknown MulticastStrategy");
  return "";
}

obs::Json points_to_json(const obs::TimeSeries& series) {
  obs::Json points = obs::Json::array();
  for (std::size_t i = 0; i < series.size(); ++i) {
    const auto& point = series.at(i);
    obs::Json pair = obs::Json::array();
    pair.push_back(obs::Json(static_cast<std::int64_t>(point.window)));
    pair.push_back(obs::Json(point.value));
    points.push_back(std::move(pair));
  }
  return points;
}

obs::Json category_to_json(const CategoryCounters& cat) {
  obs::Json j = obs::Json::object();
  j["originated"] = obs::Json(cat.originated);
  j["range_internal"] = obs::Json(cat.range_internal);
  j["transit"] = obs::Json(cat.transit);
  j["delivered"] = obs::Json(cat.delivered);
  j["hops_routed_mean"] = obs::Json(cat.hops_routed.mean());
  j["hops_internal_mean"] = obs::Json(cat.hops_internal.mean());
  j["latency_ms"] = histogram_to_json(cat.latency_ms);
  j["range_latency_ms"] = histogram_to_json(cat.range_latency_ms);
  return j;
}

obs::Json timeseries_to_json(const obs::MetricsRegistry& registry) {
  obs::Json j = obs::Json::object();
  j["window_ms"] = obs::Json(registry.window().as_millis());
  j["ring_capacity"] =
      obs::Json(static_cast<std::uint64_t>(registry.ring_capacity()));
  obs::Json series = obs::Json::array();
  for (const auto& [name, counter] : registry.counters()) {
    obs::Json entry = obs::Json::object();
    entry["name"] = obs::Json(name);
    entry["kind"] = obs::Json("counter");
    entry["total"] = obs::Json(counter->total());
    entry["points"] = points_to_json(counter->series());
    entry["evicted"] = obs::Json(counter->series().evicted());
    series.push_back(std::move(entry));
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    obs::Json entry = obs::Json::object();
    entry["name"] = obs::Json(name);
    entry["kind"] = obs::Json("gauge");
    entry["value"] = obs::Json(gauge->value());
    entry["points"] = points_to_json(gauge->series());
    entry["evicted"] = obs::Json(gauge->series().evicted());
    series.push_back(std::move(entry));
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    obs::Json entry = obs::Json::object();
    entry["name"] = obs::Json(name);
    entry["kind"] = obs::Json("histogram");
    entry["histogram"] = histogram_to_json(histogram->histogram());
    entry["count_points"] = points_to_json(histogram->count_series());
    entry["sum_points"] = points_to_json(histogram->sum_series());
    entry["evicted"] = obs::Json(histogram->count_series().evicted());
    series.push_back(std::move(entry));
  }
  j["series"] = std::move(series);
  return j;
}

}  // namespace

obs::Json histogram_to_json(const obs::LogHistogram& histogram) {
  obs::Json j = obs::Json::object();
  j["count"] = obs::Json(histogram.count());
  j["sum"] = obs::Json(histogram.sum());
  j["min"] = obs::Json(histogram.min());
  j["max"] = obs::Json(histogram.max());
  j["mean"] = obs::Json(histogram.mean());
  j["p50"] = obs::Json(histogram.p50());
  j["p90"] = obs::Json(histogram.p90());
  j["p99"] = obs::Json(histogram.p99());
  obs::Json buckets = obs::Json::array();  // non-empty buckets only
  for (std::size_t i = 0; i < histogram.bucket_count(); ++i) {
    if (histogram.bucket(i) == 0) {
      continue;
    }
    obs::Json bucket = obs::Json::array();
    bucket.push_back(obs::Json(histogram.bucket_low(i)));
    bucket.push_back(obs::Json(histogram.bucket_high(i)));
    bucket.push_back(obs::Json(histogram.bucket(i)));
    buckets.push_back(std::move(bucket));
  }
  j["buckets"] = std::move(buckets);
  return j;
}

obs::Json metrics_to_json(const Experiment& experiment) {
  const ExperimentConfig& config = experiment.config();
  const MetricsCollector& metrics = experiment.metrics();

  obs::Json doc = obs::Json::object();
  // v2: ninth load component ("replication"), replication/failover
  // robustness fields, and the replication category.
  // v3 (additive): load.per_node_work + load.imbalance, overload-survival
  // robustness counters, drops.shed_overload / drops.backpressure, and the
  // run.overload flag.
  // v4 (additive): run.strategy names the indexing strategy
  // (core/strategy.hpp); everything else is unchanged for the default.
  // v5: hot-arc splitting is gone, and with it the robustness counters
  // hot_arc_splits, hot_arc_merges and split_diverted_stores.
  doc["schema_version"] = obs::Json(5);
  doc["kind"] = obs::Json("sdsi.metrics");

  obs::Json run = obs::Json::object();
  run["strategy"] = obs::Json(strategy_name(config.strategy));
  run["nodes"] = obs::Json(static_cast<std::uint64_t>(config.num_nodes));
  run["id_bits"] = obs::Json(static_cast<std::uint64_t>(config.id_bits));
  run["seed"] = obs::Json(config.seed);
  run["substrate"] = obs::Json(substrate_name(config.substrate));
  run["multicast"] = obs::Json(multicast_name(config.multicast));
  run["warmup_s"] = obs::Json(config.warmup.as_seconds());
  run["measure_s"] = obs::Json(config.measure.as_seconds());
  run["drain_s"] = obs::Json(config.drain.as_seconds());
  run["mbr_acks"] = obs::Json(config.mbr_acks);
  run["mbr_refresh_s"] = obs::Json(config.mbr_refresh_period.as_seconds());
  run["replication_factor"] =
      obs::Json(static_cast<std::uint64_t>(config.replication_factor));
  run["anti_entropy_s"] = obs::Json(config.anti_entropy_period.as_seconds());
  run["overload"] = obs::Json(config.overload.has_value());
  doc["run"] = std::move(run);

  const LoadReport load_report = experiment.load_report();
  obs::Json load = obs::Json::object();
  obs::Json per_component = obs::Json::object();
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(LoadComponent::kCount); ++c) {
    per_component[load_component_slug(static_cast<LoadComponent>(c))] =
        obs::Json(load_report.per_component[c]);
  }
  load["per_component"] = std::move(per_component);
  load["total"] = obs::Json(load_report.total);
  obs::Json per_node = obs::Json::array();
  for (const double rate : load_report.per_node_total) {
    per_node.push_back(obs::Json(rate));
  }
  load["per_node_total"] = std::move(per_node);
  obs::Json per_node_work = obs::Json::array();
  for (NodeIndex node = 0; node < config.num_nodes; ++node) {
    per_node_work.push_back(obs::Json(metrics.node_work_total(node)));
  }
  load["per_node_work"] = std::move(per_node_work);
  doc["load"] = std::move(load);

  const OverheadReport overhead_report = experiment.overhead_report();
  obs::Json overhead = obs::Json::object();
  overhead["mbr_internal"] = obs::Json(overhead_report.mbr_internal);
  overhead["mbr_transit"] = obs::Json(overhead_report.mbr_transit);
  overhead["query_internal"] = obs::Json(overhead_report.query_internal);
  overhead["query_transit"] = obs::Json(overhead_report.query_transit);
  overhead["neighbor_exchange"] = obs::Json(overhead_report.neighbor_exchange);
  overhead["response_transit"] = obs::Json(overhead_report.response_transit);
  doc["overhead"] = std::move(overhead);

  const HopsReport hops_report = experiment.hops_report();
  obs::Json hops = obs::Json::object();
  hops["mbr"] = obs::Json(hops_report.mbr);
  hops["mbr_internal"] = obs::Json(hops_report.mbr_internal);
  hops["query"] = obs::Json(hops_report.query);
  hops["query_internal"] = obs::Json(hops_report.query_internal);
  hops["response"] = obs::Json(hops_report.response);
  doc["hops"] = std::move(hops);

  obs::Json categories = obs::Json::object();
  categories["mbr"] = category_to_json(metrics.mbr());
  categories["query"] = category_to_json(metrics.query());
  categories["response"] = category_to_json(metrics.response());
  categories["neighbor"] = category_to_json(metrics.neighbor());
  categories["location"] = category_to_json(metrics.location());
  categories["control"] = category_to_json(metrics.control());
  categories["replication"] = category_to_json(metrics.replication());
  doc["categories"] = std::move(categories);

  obs::Json drops = obs::Json::object();
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(fault::DropCause::kCount); ++c) {
    const auto cause = static_cast<fault::DropCause>(c);
    drops[fault::drop_cause_slug(cause)] = obs::Json(metrics.drops(cause));
  }
  drops["total"] = obs::Json(metrics.total_drops());
  doc["drops"] = std::move(drops);

  const QualityReport quality_report = experiment.quality_report();
  obs::Json quality = obs::Json::object();
  quality["queries_posed"] = obs::Json(quality_report.queries_posed);
  quality["responses_received"] =
      obs::Json(quality_report.responses_received);
  quality["matches_reported"] = obs::Json(quality_report.matches_reported);
  quality["mean_first_response_ms"] =
      obs::Json(quality_report.mean_first_response_ms);
  doc["quality"] = std::move(quality);

  const RobustnessReport robustness_report = experiment.robustness_report();
  obs::Json robustness = obs::Json::object();
  robustness["recall"] = obs::Json(robustness_report.recall);
  robustness["oracle_pairs"] = obs::Json(robustness_report.oracle_pairs);
  robustness["delivered_pairs"] =
      obs::Json(robustness_report.delivered_pairs);
  robustness["duplicate_delivery_rate"] =
      obs::Json(robustness_report.duplicate_delivery_rate);
  robustness["duplicate_stores"] =
      obs::Json(robustness_report.duplicate_stores);
  robustness["mbr_retries"] = obs::Json(robustness_report.mbr_retries);
  robustness["mbr_retry_exhausted"] =
      obs::Json(robustness_report.mbr_retry_exhausted);
  robustness["mbr_refreshes"] = obs::Json(robustness_report.mbr_refreshes);
  robustness["mbr_acks"] = obs::Json(robustness_report.mbr_acks);
  robustness["response_retries"] =
      obs::Json(robustness_report.response_retries);
  robustness["location_retries"] =
      obs::Json(robustness_report.location_retries);
  robustness["heals"] =
      obs::Json(robustness_report.heal_latency_ms.count());
  robustness["heal_latency_ms"] =
      histogram_to_json(robustness_report.heal_latency_ms);
  robustness["crashes"] = obs::Json(robustness_report.crashes);
  robustness["recoveries"] = obs::Json(robustness_report.recoveries);
  robustness["replica_puts"] = obs::Json(robustness_report.replica_puts);
  robustness["replica_repairs"] =
      obs::Json(robustness_report.replica_repairs);
  robustness["handoff_entries"] =
      obs::Json(robustness_report.handoff_entries);
  robustness["handoff_bytes"] = obs::Json(robustness_report.handoff_bytes);
  robustness["aggregator_failovers"] =
      obs::Json(robustness_report.aggregator_failovers);
  robustness["report_detours"] = obs::Json(robustness_report.report_detours);
  robustness["oracle_fallbacks"] =
      obs::Json(robustness_report.oracle_fallbacks);
  robustness["failover_latency_ms"] =
      histogram_to_json(robustness_report.failover_latency_ms);
  robustness["shed_mbrs"] = obs::Json(robustness_report.shed_mbrs);
  robustness["backpressure_deferrals"] =
      obs::Json(robustness_report.backpressure_deferrals);
  robustness["backpressure_drops"] =
      obs::Json(robustness_report.backpressure_drops);
  obs::Json imbalance = obs::Json::object();
  imbalance["message_p99_over_median"] =
      obs::Json(robustness_report.message_load_p99_over_median);
  imbalance["work_p99_over_median"] =
      obs::Json(robustness_report.work_p99_over_median);
  robustness["imbalance"] = std::move(imbalance);
  doc["robustness"] = std::move(robustness);

  if (experiment.registry() != nullptr) {
    doc["timeseries"] = timeseries_to_json(*experiment.registry());
  }
  return doc;
}

bool write_metrics_json(const Experiment& experiment,
                        const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << metrics_to_json(experiment).dump(2) << "\n";
  return static_cast<bool>(out);
}

}  // namespace sdsi::core
