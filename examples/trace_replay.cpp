// Trace capture and replay: record a live workload to a CSV trace, reload
// it, and drive the distributed index from the file — the workflow for
// indexing recorded real-world datasets (the paper's S&P500 / host-load
// files) instead of live generators.
#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "chord/network.hpp"
#include "core/system.hpp"
#include "routing/static_ring.hpp"
#include "streams/generators.hpp"
#include "streams/trace.hpp"

using namespace sdsi;

int main() {
  std::printf("=== trace capture & replay ===\n\n");

  // 1. Capture: record three host-load sensors into one trace file.
  common::RngFactory rng_factory(123);
  std::vector<streams::TraceRecord> records;
  for (StreamId stream = 1; stream <= 3; ++stream) {
    streams::HostLoadGenerator sensor(rng_factory.make("sensor", stream));
    const auto captured =
        streams::record_generator(sensor, stream, 300, /*period=*/0.1);
    records.insert(records.end(), captured.begin(), captured.end());
  }
  // A fresh name per run, so runs from two build trees never share a file.
  std::string path = (std::filesystem::temp_directory_path() /
                      "sdsi_example_trace_XXXXXX")
                         .string();
  const int fd = mkstemp(path.data());
  if (fd < 0) {
    std::perror("mkstemp");
    return 1;
  }
  close(fd);
  {
    std::ofstream out(path);
    streams::write_trace(out, records);
  }
  std::printf("captured %zu records from 3 sensors -> %s\n", records.size(),
              path.c_str());

  // 2. Reload and replay through the index.
  std::ifstream in(path);
  const auto loaded = streams::read_trace(in);
  std::printf("reloaded %zu records\n\n", loaded.size());

  sim::Simulator sim;
  chord::ChordConfig chord_config;
  chord::ChordNetwork network(sim, chord_config);
  network.bootstrap(routing::hash_node_ids(8, common::IdSpace(32), 5));

  core::MiddlewareConfig config;
  config.features.window_size = 64;
  config.features.num_coefficients = 3;
  config.batching.batch_size = 4;
  config.notify_period = sim::Duration::millis(1000);
  core::MiddlewareSystem middleware(network, config);
  middleware.start();

  std::vector<streams::TraceReplayGenerator> replays;
  for (StreamId stream = 1; stream <= 3; ++stream) {
    replays.emplace_back(loaded, stream);
    middleware.register_stream(static_cast<NodeIndex>(stream), stream);
  }
  // Drive the trace at its recorded 100 ms cadence.
  while (!replays[0].exhausted()) {
    for (StreamId stream = 1; stream <= 3; ++stream) {
      middleware.post_stream_value(static_cast<NodeIndex>(stream), stream,
                                   replays[stream - 1].next());
    }
    sim.run_until(sim.now() + sim::Duration::millis(100));
  }

  // 3. Query the replayed data: which sensors currently behave like
  //    sensor 1's recorded tail?
  std::vector<Sample> pattern;
  for (std::size_t i = records.size() / 3 - 64; i < records.size() / 3; ++i) {
    pattern.push_back(records[i].value);  // sensor 1's last 64 readings
  }
  const core::QueryId id = middleware.subscribe_similarity_window(
      /*client=*/6, pattern, /*radius=*/0.35, sim::Duration::seconds(20));
  sim.run_until(sim.now() + sim::Duration::seconds(5));

  const core::ClientQueryRecord* record = middleware.client_record(id);
  std::printf("similarity query on the replayed trace matched %zu sensor(s):",
              record->matched_streams.size());
  for (const StreamId stream : record->matched_streams) {
    std::printf(" #%llu", static_cast<unsigned long long>(stream));
  }
  std::printf("\n(sensor #1 must match itself; whether #2/#3 match depends"
              "\n on how correlated their recorded load shapes are)\n");
  std::remove(path.c_str());
  return 0;
}
