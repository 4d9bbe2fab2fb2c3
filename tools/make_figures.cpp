// make_figures — paper-figure reproduction tooling.
//
// Takes one observability run directory (produced by `sdsi_sim --obs-dir`
// or `bench_robustness --obs-dir`), validates the emitted documents against
// the published schemas (metrics.json `sdsi.metrics` v5, v1–v4 accepted;
// trace.jsonl `sdsi.trace` v1 when present), and renders the figure data
// tables:
//
//   figures/fig6a_load.csv        Fig 6(a) load decomposition
//   figures/fig6b_distribution.csv Fig 6(b) per-node load rates
//   figures/fig7_overhead.csv     Fig 7 overhead per input event
//   figures/fig8_hops.csv         Fig 8 hops per message type
//   figures/heal_latency_hist.csv heal-latency distribution (chaos runs)
//   figures/skew_work.csv         per-node index work + imbalance (v3 runs)
//   figures/timeseries.csv        every windowed series, long format
//
// Validation failures exit nonzero with a list of violations, so this
// binary doubles as the schema checker wired into `ctest -L obs-smoke`.
//
// Second mode: `make_figures --strategies BENCH_strategies.json [--out DIR]`
// validates the cross-strategy bench document (bench/bench_strategies.cpp)
// and renders figures/strategy_comparison.csv — one row per strategy, each
// metric averaged over the shared seeds — plus the same table on stdout
// (the source of the comparison table in docs/STRATEGIES.md).
//
//   make_figures <run-dir> [--out DIR]
#include <algorithm>
#include <cstdio>
#include <map>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.hpp"

namespace {

using sdsi::obs::Json;

std::vector<std::string> g_errors;

void require(bool ok, const std::string& message) {
  if (!ok) {
    g_errors.push_back(message);
  }
}

/// Object member of the expected type, nullptr (plus a recorded violation)
/// otherwise.
const Json* field(const Json& parent, const std::string& key, Json::Type type,
                  const std::string& where) {
  const Json* value = parent.find(key);
  if (value == nullptr) {
    g_errors.push_back(where + ": missing \"" + key + "\"");
    return nullptr;
  }
  if (value->type() != type) {
    g_errors.push_back(where + ": \"" + key + "\" has the wrong type");
    return nullptr;
  }
  return value;
}

void check_histogram(const Json& histogram, const std::string& where) {
  for (const char* key : {"count", "sum", "min", "max", "mean", "p50", "p90",
                          "p99"}) {
    field(histogram, key, Json::Type::kNumber, where);
  }
  const Json* buckets = field(histogram, "buckets", Json::Type::kArray, where);
  if (buckets != nullptr) {
    for (std::size_t i = 0; i < buckets->size(); ++i) {
      require((*buckets)[i].is_array() && (*buckets)[i].size() == 3,
              where + ": bucket entries must be [low, high, count]");
    }
  }
}

void check_metrics_schema(const Json& doc) {
  const Json* version =
      field(doc, "schema_version", Json::Type::kNumber, "metrics.json");
  // v1: the original 8-component export. v2 adds the "replication" load
  // component, the replication category, and the failover robustness fields.
  // v3 adds load.per_node_work, robustness.imbalance + the overload-survival
  // counters, the shed_overload/backpressure drop causes, and run.overload.
  // v4 adds run.strategy (the indexing strategy name). v5 drops the three
  // hot-arc splitting counters.
  std::int64_t schema = 0;
  if (version != nullptr) {
    schema = version->as_int();
    require(schema >= 1 && schema <= 5,
            "metrics.json: schema_version must be 1 through 5");
  }
  const Json* kind = field(doc, "kind", Json::Type::kString, "metrics.json");
  if (kind != nullptr) {
    require(kind->as_string() == "sdsi.metrics",
            "metrics.json: kind must be \"sdsi.metrics\"");
  }

  const Json* run = field(doc, "run", Json::Type::kObject, "metrics.json");
  if (run != nullptr) {
    for (const char* key : {"nodes", "seed", "warmup_s", "measure_s"}) {
      field(*run, key, Json::Type::kNumber, "run");
    }
    field(*run, "substrate", Json::Type::kString, "run");
    field(*run, "multicast", Json::Type::kString, "run");
  }

  const Json* load = field(doc, "load", Json::Type::kObject, "metrics.json");
  if (load != nullptr) {
    const Json* per_component =
        field(*load, "per_component", Json::Type::kObject, "load");
    if (per_component != nullptr) {
      const std::size_t expected = schema >= 2 ? 9 : 8;
      require(per_component->members().size() == expected,
              schema >= 2
                  ? "load.per_component: expected 9 components (v2)"
                  : "load.per_component: expected the 8 Fig 6(a) components");
      for (const auto& [name, rate] : per_component->members()) {
        require(rate.is_number(),
                "load.per_component." + name + ": must be a number");
      }
    }
    field(*load, "total", Json::Type::kNumber, "load");
    field(*load, "per_node_total", Json::Type::kArray, "load");
    if (schema >= 3) {
      const Json* per_node_work =
          field(*load, "per_node_work", Json::Type::kArray, "load");
      const Json* per_node_total = load->find("per_node_total");
      if (per_node_work != nullptr && per_node_total != nullptr &&
          per_node_total->is_array()) {
        require(per_node_work->size() == per_node_total->size(),
                "load.per_node_work: must have one entry per node");
      }
    }
  }

  const Json* overhead =
      field(doc, "overhead", Json::Type::kObject, "metrics.json");
  if (overhead != nullptr) {
    for (const char* key : {"mbr_internal", "mbr_transit", "query_internal",
                            "query_transit", "neighbor_exchange",
                            "response_transit"}) {
      field(*overhead, key, Json::Type::kNumber, "overhead");
    }
  }

  const Json* hops = field(doc, "hops", Json::Type::kObject, "metrics.json");
  if (hops != nullptr) {
    for (const char* key : {"mbr", "mbr_internal", "query", "query_internal",
                            "response"}) {
      field(*hops, key, Json::Type::kNumber, "hops");
    }
  }

  const Json* categories =
      field(doc, "categories", Json::Type::kObject, "metrics.json");
  if (categories != nullptr) {
    std::vector<const char*> names = {"mbr",      "query",    "response",
                                      "neighbor", "location", "control"};
    if (schema >= 2) {
      names.push_back("replication");
    }
    for (const char* name : names) {
      const Json* category =
          field(*categories, name, Json::Type::kObject, "categories");
      if (category == nullptr) {
        continue;
      }
      for (const char* key :
           {"originated", "range_internal", "transit", "delivered"}) {
        field(*category, key, Json::Type::kNumber,
              std::string("categories.") + name);
      }
      const Json* latency =
          field(*category, "latency_ms", Json::Type::kObject,
                std::string("categories.") + name);
      if (latency != nullptr) {
        check_histogram(*latency,
                        std::string("categories.") + name + ".latency_ms");
      }
    }
  }

  const Json* drops = field(doc, "drops", Json::Type::kObject, "metrics.json");
  if (drops != nullptr) {
    field(*drops, "total", Json::Type::kNumber, "drops");
    if (schema >= 3) {
      field(*drops, "shed_overload", Json::Type::kNumber, "drops");
      field(*drops, "backpressure", Json::Type::kNumber, "drops");
    }
  }

  field(doc, "quality", Json::Type::kObject, "metrics.json");

  const Json* robustness =
      field(doc, "robustness", Json::Type::kObject, "metrics.json");
  if (robustness != nullptr) {
    const Json* heal = field(*robustness, "heal_latency_ms",
                             Json::Type::kObject, "robustness");
    if (heal != nullptr) {
      check_histogram(*heal, "robustness.heal_latency_ms");
    }
    if (schema >= 2) {
      for (const char* key :
           {"replica_puts", "replica_repairs", "handoff_entries",
            "handoff_bytes", "aggregator_failovers", "report_detours",
            "oracle_fallbacks"}) {
        field(*robustness, key, Json::Type::kNumber, "robustness");
      }
      const Json* failover = field(*robustness, "failover_latency_ms",
                                   Json::Type::kObject, "robustness");
      if (failover != nullptr) {
        check_histogram(*failover, "robustness.failover_latency_ms");
      }
    }
    if (schema >= 3) {
      for (const char* key :
           {"shed_mbrs", "backpressure_deferrals", "backpressure_drops"}) {
        field(*robustness, key, Json::Type::kNumber, "robustness");
      }
      if (schema <= 4) {
        for (const char* key :
             {"hot_arc_splits", "hot_arc_merges", "split_diverted_stores"}) {
          field(*robustness, key, Json::Type::kNumber, "robustness");
        }
      }
      const Json* imbalance = field(*robustness, "imbalance",
                                    Json::Type::kObject, "robustness");
      if (imbalance != nullptr) {
        field(*imbalance, "message_p99_over_median", Json::Type::kNumber,
              "robustness.imbalance");
        field(*imbalance, "work_p99_over_median", Json::Type::kNumber,
              "robustness.imbalance");
      }
    }
  }

  const Json* timeseries = doc.find("timeseries");  // optional section
  if (timeseries != nullptr) {
    require(timeseries->is_object(), "timeseries: must be an object");
    const Json* window =
        field(*timeseries, "window_ms", Json::Type::kNumber, "timeseries");
    (void)window;
    const Json* series =
        field(*timeseries, "series", Json::Type::kArray, "timeseries");
    if (series != nullptr) {
      for (std::size_t i = 0; i < series->size(); ++i) {
        const Json& entry = (*series)[i];
        require(entry.is_object(), "timeseries.series: entries are objects");
        if (!entry.is_object()) {
          continue;
        }
        field(entry, "name", Json::Type::kString, "timeseries.series");
        const Json* series_kind =
            field(entry, "kind", Json::Type::kString, "timeseries.series");
        if (series_kind != nullptr) {
          const std::string& k = series_kind->as_string();
          require(k == "counter" || k == "gauge" || k == "histogram",
                  "timeseries.series: kind must be counter|gauge|histogram");
        }
      }
    }
  }
}

int check_trace_file(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) {
    g_errors.push_back("trace.jsonl: empty file");
    return 0;
  }
  std::string error;
  auto header = Json::parse(line, &error);
  require(header.has_value(), "trace.jsonl header: " + error);
  if (header.has_value()) {
    const Json* schema = field(*header, "schema", Json::Type::kString,
                               "trace.jsonl header");
    if (schema != nullptr) {
      require(schema->as_string() == "sdsi.trace.v1",
              "trace.jsonl: schema must be \"sdsi.trace.v1\"");
    }
  }
  int events = 0;
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    auto event = Json::parse(line, &error);
    if (!event.has_value()) {
      g_errors.push_back("trace.jsonl line " + std::to_string(line_no) +
                         ": " + error);
      continue;
    }
    const std::string where = "trace.jsonl line " + std::to_string(line_no);
    field(*event, "tid", Json::Type::kNumber, where);
    field(*event, "ev", Json::Type::kString, where);
    field(*event, "t_us", Json::Type::kNumber, where);
    field(*event, "node", Json::Type::kNumber, where);
    ++events;
    if (g_errors.size() > 20) {
      break;  // the report is already damning; stop scanning
    }
  }
  return events;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "make_figures: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

std::string csv_number(const Json& value) {
  return value.dump();  // numbers dump in shortest round-trip form
}

/// `--strategies` mode: BENCH_strategies.json -> strategy_comparison.csv.
int run_strategies_mode(const std::string& json_path, std::string out_dir) {
  std::ifstream in(json_path);
  if (!in) {
    std::fprintf(stderr, "make_figures: cannot read %s\n", json_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  auto doc = Json::parse(buffer.str(), &parse_error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "make_figures: %s: %s\n", json_path.c_str(),
                 parse_error.c_str());
    return 1;
  }

  const Json* version =
      field(*doc, "schema_version", Json::Type::kNumber, "BENCH_strategies");
  require(version == nullptr || version->as_int() == 1,
          "BENCH_strategies: schema_version must be 1");
  const Json* suite =
      field(*doc, "suite", Json::Type::kString, "BENCH_strategies");
  require(suite == nullptr || suite->as_string() == "strategies",
          "BENCH_strategies: suite must be \"strategies\"");
  const Json* rows =
      field(*doc, "benchmarks", Json::Type::kArray, "BENCH_strategies");
  require(rows == nullptr || rows->size() > 0,
          "BENCH_strategies: benchmarks must be non-empty");

  // metric sums per strategy, in first-appearance strategy order.
  const std::vector<std::string> metrics = {
      "recall",      "message_p99_over_median",
      "hops_mbr",    "hops_query",
      "hops_response", "msgs_per_query"};
  std::vector<std::string> strategies;
  std::map<std::string, std::map<std::string, std::pair<double, int>>> sums;
  if (rows != nullptr) {
    for (std::size_t i = 0; i < rows->size(); ++i) {
      const Json& row = (*rows)[i];
      const std::string where =
          "BENCH_strategies row " + std::to_string(i);
      if (!row.is_object()) {
        g_errors.push_back(where + ": must be an object");
        continue;
      }
      const Json* name = field(row, "name", Json::Type::kString, where);
      const Json* config = field(row, "config", Json::Type::kString, where);
      const Json* value =
          field(row, "ops_per_sec", Json::Type::kNumber, where);
      if (name == nullptr || config == nullptr || value == nullptr) {
        continue;
      }
      const std::string& cfg = config->as_string();
      const auto at = cfg.find("strategy=");
      if (at == std::string::npos) {
        g_errors.push_back(where + ": config lacks strategy=");
        continue;
      }
      const std::string strategy =
          cfg.substr(at + 9, cfg.find(' ', at) - (at + 9));
      if (std::find(strategies.begin(), strategies.end(), strategy) ==
          strategies.end()) {
        strategies.push_back(strategy);
      }
      auto& cell = sums[strategy][name->as_string()];
      cell.first += value->as_number();
      cell.second += 1;
    }
  }
  for (const std::string& strategy : strategies) {
    for (const std::string& metric : metrics) {
      require(sums[strategy][metric].second > 0,
              "BENCH_strategies: strategy \"" + strategy +
                  "\" has no \"" + metric + "\" rows");
    }
  }
  require(strategies.size() >= 3,
          "BENCH_strategies: expected all three built-in strategies");

  if (!g_errors.empty()) {
    std::fprintf(stderr, "make_figures: %zu schema violation(s) in %s:\n",
                 g_errors.size(), json_path.c_str());
    for (const std::string& error : g_errors) {
      std::fprintf(stderr, "  - %s\n", error.c_str());
    }
    return 1;
  }

  if (out_dir.empty()) {
    const auto parent = std::filesystem::path(json_path).parent_path();
    out_dir = (parent.empty() ? std::filesystem::path(".") : parent)
                  .string() + "/figures";
  }
  std::filesystem::create_directories(out_dir);

  std::string csv = "strategy";
  for (const std::string& metric : metrics) {
    csv += "," + metric;
  }
  csv += "\n";
  std::printf("| strategy |");
  for (const std::string& metric : metrics) {
    std::printf(" %s |", metric.c_str());
  }
  std::printf("\n|---|");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("---|");
  }
  std::printf("\n");
  for (const std::string& strategy : strategies) {
    csv += strategy;
    std::printf("| %s |", strategy.c_str());
    for (const std::string& metric : metrics) {
      const auto& [sum, count] = sums[strategy][metric];
      char num[64];
      std::snprintf(num, sizeof(num), "%.4g", sum / count);
      csv += std::string(",") + num;
      std::printf(" %s |", num);
    }
    csv += "\n";
    std::printf("\n");
  }
  if (!write_file(out_dir + "/strategy_comparison.csv", csv)) {
    return 1;
  }
  std::printf(
      "make_figures: %s valid; wrote %s/strategy_comparison.csv "
      "(%zu strategies, seed-averaged)\n",
      json_path.c_str(), out_dir.c_str(), strategies.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string run_dir;
  std::string out_dir;
  std::string strategies_json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--strategies" && i + 1 < argc) {
      strategies_json = argv[++i];
    } else if (run_dir.empty() && !arg.empty() && arg[0] != '-') {
      run_dir = arg;
    } else {
      std::fprintf(stderr,
                   "usage: %s <run-dir> [--out DIR]\n"
                   "       %s --strategies BENCH_strategies.json [--out DIR]\n",
                   argv[0], argv[0]);
      return 2;
    }
  }
  if (!strategies_json.empty()) {
    return run_strategies_mode(strategies_json, out_dir);
  }
  if (run_dir.empty()) {
    std::fprintf(stderr,
                 "usage: %s <run-dir> [--out DIR]\n"
                 "       %s --strategies BENCH_strategies.json [--out DIR]\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (out_dir.empty()) {
    out_dir = run_dir + "/figures";
  }

  const std::string metrics_path = run_dir + "/metrics.json";
  std::ifstream in(metrics_path);
  if (!in) {
    std::fprintf(stderr, "make_figures: cannot read %s\n",
                 metrics_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  auto doc = Json::parse(buffer.str(), &parse_error);
  if (!doc.has_value()) {
    std::fprintf(stderr, "make_figures: %s: %s\n", metrics_path.c_str(),
                 parse_error.c_str());
    return 1;
  }

  check_metrics_schema(*doc);

  int trace_events = 0;
  const std::string trace_path = run_dir + "/trace.jsonl";
  const bool have_trace = std::filesystem::exists(trace_path);
  if (have_trace) {
    trace_events = check_trace_file(trace_path);
  }

  if (!g_errors.empty()) {
    std::fprintf(stderr,
                 "make_figures: %zu schema violation(s) in %s:\n",
                 g_errors.size(), run_dir.c_str());
    for (const std::string& error : g_errors) {
      std::fprintf(stderr, "  - %s\n", error.c_str());
    }
    return 1;
  }

  std::filesystem::create_directories(out_dir);

  // Fig 6(a): load decomposition.
  {
    std::string csv = "component,msgs_per_node_per_sec\n";
    const Json& per_component = *doc->find("load")->find("per_component");
    for (const auto& [name, rate] : per_component.members()) {
      csv += name + "," + csv_number(rate) + "\n";
    }
    csv += "total," + csv_number(*doc->find("load")->find("total")) + "\n";
    if (!write_file(out_dir + "/fig6a_load.csv", csv)) {
      return 1;
    }
  }

  // Fig 6(b): per-node load rates.
  {
    std::string csv = "node,msgs_per_sec\n";
    const Json& per_node = *doc->find("load")->find("per_node_total");
    for (std::size_t i = 0; i < per_node.size(); ++i) {
      csv += std::to_string(i) + "," + csv_number(per_node[i]) + "\n";
    }
    if (!write_file(out_dir + "/fig6b_distribution.csv", csv)) {
      return 1;
    }
  }

  // Fig 7: overhead per input event.
  {
    std::string csv = "component,messages_per_event\n";
    for (const auto& [name, value] : doc->find("overhead")->members()) {
      csv += name + "," + csv_number(value) + "\n";
    }
    if (!write_file(out_dir + "/fig7_overhead.csv", csv)) {
      return 1;
    }
  }

  // Fig 8: hops per message type.
  {
    std::string csv = "type,hops\n";
    for (const auto& [name, value] : doc->find("hops")->members()) {
      csv += name + "," + csv_number(value) + "\n";
    }
    if (!write_file(out_dir + "/fig8_hops.csv", csv)) {
      return 1;
    }
  }

  // Heal-latency distribution (meaningful for chaos runs; header-only
  // otherwise so downstream plotting never special-cases the file away).
  {
    std::string csv = "bucket_low_ms,bucket_high_ms,count\n";
    const Json& buckets =
        *doc->find("robustness")->find("heal_latency_ms")->find("buckets");
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      csv += csv_number(buckets[i][0]) + "," + csv_number(buckets[i][1]) +
             "," + csv_number(buckets[i][2]) + "\n";
    }
    if (!write_file(out_dir + "/heal_latency_hist.csv", csv)) {
      return 1;
    }
  }

  // Adversarial-skew figure (v3 runs): per-node index work next to the
  // per-node message load, plus the two summary imbalance ratios that
  // BENCH_skew.json records for the flash crowd.
  int tables = 6;
  if (doc->find("schema_version")->as_int() >= 3) {
    std::string csv = "node,msgs_per_sec,work_units\n";
    const Json& per_node = *doc->find("load")->find("per_node_total");
    const Json& per_work = *doc->find("load")->find("per_node_work");
    for (std::size_t i = 0; i < per_node.size(); ++i) {
      csv += std::to_string(i) + "," + csv_number(per_node[i]) + "," +
             csv_number(per_work[i]) + "\n";
    }
    const Json& imbalance = *doc->find("robustness")->find("imbalance");
    csv += "p99_over_median," +
           csv_number(*imbalance.find("message_p99_over_median")) + "," +
           csv_number(*imbalance.find("work_p99_over_median")) + "\n";
    if (!write_file(out_dir + "/skew_work.csv", csv)) {
      return 1;
    }
    ++tables;
  }

  // Every windowed series, long format (window start in ms so plotting
  // needs no knowledge of the window width).
  int series_count = 0;
  {
    std::string csv = "window_start_ms,series,value\n";
    const Json* timeseries = doc->find("timeseries");
    if (timeseries != nullptr) {
      const double window_ms = timeseries->find("window_ms")->as_number();
      const Json& series = *timeseries->find("series");
      for (std::size_t i = 0; i < series.size(); ++i) {
        const Json& entry = series[i];
        const std::string& name = entry.find("name")->as_string();
        const std::string& kind = entry.find("kind")->as_string();
        const auto emit_points = [&](const Json* points,
                                     const std::string& label) {
          if (points == nullptr) {
            return;
          }
          for (std::size_t p = 0; p < points->size(); ++p) {
            const double start = (*points)[p][0].as_number() * window_ms;
            csv += csv_number(Json(start)) + "," + label + "," +
                   csv_number((*points)[p][1]) + "\n";
          }
        };
        if (kind == "histogram") {
          emit_points(entry.find("count_points"), name + ".count");
          emit_points(entry.find("sum_points"), name + ".sum");
        } else {
          emit_points(entry.find("points"), name);
        }
        ++series_count;
      }
    }
    if (!write_file(out_dir + "/timeseries.csv", csv)) {
      return 1;
    }
  }

  std::printf(
      "make_figures: %s valid (schema v%lld); wrote %d tables to %s "
      "(%d series%s)\n",
      metrics_path.c_str(),
      static_cast<long long>(doc->find("schema_version")->as_int()), tables,
      out_dir.c_str(), series_count,
      have_trace
          ? (", trace.jsonl valid, " + std::to_string(trace_events) +
             " events")
                .c_str()
          : "");
  return 0;
}
