// metrics.json export: the Json value model round-trips, the emitted
// document carries the sdsi.metrics v5 shape, and the on-disk file written
// by an --obs-dir run parses back to the in-memory document.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/obs_export.hpp"

namespace sdsi::core {
namespace {

ExperimentConfig tiny_obs_config(const std::string& obs_dir) {
  ExperimentConfig config;
  config.num_nodes = 10;
  config.seed = 11;
  config.warmup = sim::Duration::seconds(20);
  config.measure = sim::Duration::seconds(15);
  config.obs.dir = obs_dir;
  config.obs.window = sim::Duration::millis(500);
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Json, ScalarsAndContainersRoundTrip) {
  obs::Json doc = obs::Json::object();
  doc["int"] = 42;
  doc["neg"] = std::int64_t{-7};
  doc["frac"] = 0.1;
  doc["text"] = "with \"quotes\" and \\slashes\\ and\nnewlines";
  doc["flag"] = true;
  doc["nothing"] = obs::Json();
  obs::Json list = obs::Json::array();
  list.push_back(1);
  list.push_back(2.5);
  list.push_back("three");
  doc["list"] = std::move(list);

  std::string error;
  const auto parsed = obs::Json::parse(doc.dump(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->dump(), doc.dump());
  // Pretty-printing is a formatting choice, not a semantic one.
  const auto pretty = obs::Json::parse(doc.dump(2), &error);
  ASSERT_TRUE(pretty.has_value()) << error;
  EXPECT_EQ(pretty->dump(), doc.dump());
  // Values and insertion order both survive.
  EXPECT_EQ(parsed->find("int")->as_int(), 42);
  EXPECT_DOUBLE_EQ(parsed->find("frac")->as_number(), 0.1);
  EXPECT_EQ(parsed->find("text")->as_string(),
            "with \"quotes\" and \\slashes\\ and\nnewlines");
  EXPECT_EQ(parsed->members().front().first, "int");
  EXPECT_EQ((*parsed->find("list"))[2].as_string(), "three");
}

TEST(Json, MalformedInputIsRejectedWithAnError) {
  for (const char* bad : {"{", "[1,", "{\"a\": }", "tru", "\"unterminated",
                          "{\"a\":1} trailing", "01", "nan"}) {
    std::string error;
    EXPECT_FALSE(obs::Json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(MetricsExport, DocumentCarriesTheV4Shape) {
  const std::string dir =
      ::testing::TempDir() + "sdsi_metrics_export_shape";
  Experiment exp(tiny_obs_config(dir));
  exp.run();

  const obs::Json doc = metrics_to_json(exp);
  // v5 is the v4 shape without the three hot-arc splitting counters.
  EXPECT_EQ(doc.find("schema_version")->as_int(), 5);
  EXPECT_EQ(doc.find("kind")->as_string(), "sdsi.metrics");
  // v4: the strategy name leads the run section.
  EXPECT_EQ(doc.find("run")->members().front().first, "strategy");
  EXPECT_EQ(doc.find("run")->find("strategy")->as_string(), "dft");
  EXPECT_EQ(doc.find("run")->find("nodes")->as_int(), 10);
  EXPECT_EQ(doc.find("run")->find("substrate")->as_string(), "chord");
  EXPECT_EQ(doc.find("run")->find("replication_factor")->as_int(), 0);
  EXPECT_EQ(doc.find("run")->find("overload")->as_bool(), false);
  EXPECT_EQ(doc.find("load")->find("per_component")->members().size(), 9u);
  EXPECT_EQ(doc.find("load")->find("per_node_total")->size(), 10u);
  EXPECT_EQ(doc.find("load")->find("per_node_work")->size(), 10u);
  for (const char* category : {"mbr", "query", "response", "neighbor",
                               "location", "control", "replication"}) {
    EXPECT_NE(doc.find("categories")->find(category), nullptr) << category;
  }
  // v3 drop causes are always present (zero in a benign run).
  EXPECT_EQ(doc.find("drops")->find("shed_overload")->as_int(), 0);
  EXPECT_EQ(doc.find("drops")->find("backpressure")->as_int(), 0);
  EXPECT_NE(doc.find("robustness")->find("heal_latency_ms"), nullptr);
  EXPECT_NE(doc.find("robustness")->find("failover_latency_ms"), nullptr);
  EXPECT_NE(doc.find("robustness")->find("replica_puts"), nullptr);
  // v3 overload-survival section (zeros without config.overload, but the
  // imbalance ratios are measured on every run).
  EXPECT_EQ(doc.find("robustness")->find("hot_arc_splits"), nullptr);
  EXPECT_EQ(doc.find("robustness")->find("shed_mbrs")->as_int(), 0);
  EXPECT_EQ(doc.find("robustness")->find("backpressure_drops")->as_int(), 0);
  const obs::Json* imbalance = doc.find("robustness")->find("imbalance");
  ASSERT_NE(imbalance, nullptr);
  EXPECT_GT(imbalance->find("message_p99_over_median")->as_number(), 0.0);
  EXPECT_NE(imbalance->find("work_p99_over_median"), nullptr);
  // The registry was attached, so the windowed series section is present
  // and every series name is well-formed.
  const obs::Json* timeseries = doc.find("timeseries");
  ASSERT_NE(timeseries, nullptr);
  EXPECT_EQ(timeseries->find("window_ms")->as_number(), 500.0);
  EXPECT_GT(timeseries->find("series")->size(), 0u);

  std::filesystem::remove_all(dir);
}

TEST(MetricsExport, FileOnDiskParsesBackToTheSameDocument) {
  const std::string dir =
      ::testing::TempDir() + "sdsi_metrics_export_roundtrip";
  Experiment exp(tiny_obs_config(dir));
  exp.run();  // writes dir/metrics.json via the --obs-dir path

  const std::string text = slurp(dir + "/metrics.json");
  ASSERT_FALSE(text.empty());
  std::string error;
  const auto from_disk = obs::Json::parse(text, &error);
  ASSERT_TRUE(from_disk.has_value()) << error;

  // Disk -> parse -> dump must agree with the in-memory document: the
  // serializer's number formatting round-trips exactly.
  const obs::Json in_memory = metrics_to_json(exp);
  EXPECT_EQ(from_disk->dump(), in_memory.dump());
  EXPECT_EQ(from_disk->dump(2) + "\n", text);

  std::filesystem::remove_all(dir);
}

TEST(MetricsExport, HistogramJsonMatchesTheHistogram) {
  obs::LogHistogram hist(1.0, 2.0, 8);
  for (const double x : {0.5, 3.0, 3.5, 40.0}) {
    hist.add(x);
  }
  const obs::Json doc = histogram_to_json(hist);
  EXPECT_EQ(doc.find("count")->as_int(), 4);
  EXPECT_DOUBLE_EQ(doc.find("sum")->as_number(), 47.0);
  EXPECT_DOUBLE_EQ(doc.find("min")->as_number(), 0.5);
  EXPECT_DOUBLE_EQ(doc.find("max")->as_number(), 40.0);
  // Only occupied buckets are emitted, each as [low, high, count].
  const obs::Json& buckets = *doc.find("buckets");
  ASSERT_EQ(buckets.size(), 3u);
  double total = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    ASSERT_EQ(buckets[i].size(), 3u);
    EXPECT_LT(buckets[i][0].as_number(), buckets[i][1].as_number());
    total += buckets[i][2].as_number();
  }
  EXPECT_DOUBLE_EQ(total, 4.0);
}

}  // namespace
}  // namespace sdsi::core
