#include "net/workload.hpp"

#include <cmath>
#include <numbers>

#include "common/rng.hpp"

namespace sdsi::net {

StreamId workload_stream_id(const WorkloadConfig& config, NodeIndex node,
                            std::uint32_t slot) {
  return static_cast<StreamId>(node) * config.streams_per_node + slot + 1;
}

std::vector<Sample> workload_samples(const WorkloadConfig& config,
                                     StreamId stream) {
  common::RngFactory factory(config.seed);
  common::Pcg32 rng = factory.make("net-workload-stream", stream);
  const double amplitude = rng.uniform(0.5, 2.0);
  const double period = rng.uniform(8.0, 48.0);
  const double phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
  const double drift = rng.uniform(-0.01, 0.01);
  std::vector<Sample> samples;
  samples.reserve(config.samples_per_stream);
  for (std::uint32_t t = 0; t < config.samples_per_stream; ++t) {
    const double x =
        amplitude * std::sin(2.0 * std::numbers::pi * t / period + phase) +
        drift * t + 0.1 * rng.normal();
    samples.push_back(x);
  }
  return samples;
}

std::vector<WorkloadQuery> workload_queries(const WorkloadConfig& config) {
  const std::size_t window = config.features.window_size;
  std::vector<WorkloadQuery> queries;
  queries.reserve(config.nodes);
  std::uint64_t next_id = 1;  // the sim middleware's first query id
  for (NodeIndex node = 0; node < config.nodes; ++node) {
    // Query the windows of a stream sourced elsewhere on the ring, so
    // answering genuinely crosses the transport.
    const NodeIndex target_node = (node + 1) % config.nodes;
    const StreamId target = workload_stream_id(config, target_node, 0);
    const std::vector<Sample> samples = workload_samples(config, target);
    SDSI_CHECK(samples.size() >= window);
    // A mid-run window of the target stream: its own summaries fall inside
    // the ball, so every query has at least one guaranteed match.
    const std::size_t offset = (samples.size() - window) / 2;
    WorkloadQuery query;
    query.id = next_id++;
    query.client = node;
    query.window.assign(samples.begin() + static_cast<std::ptrdiff_t>(offset),
                        samples.begin() +
                            static_cast<std::ptrdiff_t>(offset + window));
    query.radius = config.query_radius;
    queries.push_back(std::move(query));
  }
  return queries;
}

std::vector<WorkloadInnerQuery> workload_inner_queries(
    const WorkloadConfig& config) {
  const std::size_t span = config.features.window_size / 4;
  SDSI_CHECK(span >= 1);
  std::vector<WorkloadInnerQuery> queries;
  queries.reserve(config.nodes);
  for (NodeIndex node = 0; node < config.nodes; ++node) {
    WorkloadInnerQuery query;
    query.id = config.nodes + node + 1;
    query.client = node;
    query.stream = workload_stream_id(config, (node + 2) % config.nodes, 0);
    query.index.assign(span, 1.0);
    query.weights.assign(span, 1.0 / static_cast<double>(span));
    queries.push_back(std::move(query));
  }
  return queries;
}

}  // namespace sdsi::net
