// The one in-process NetNode ring of the net tests: N NetNodes (the code
// sdsi_node runs over TCP) on one SimFabric with a 1 ms hop, driven by the
// simulator and a fake wall clock in 10 ms steps, the in-process analogue
// of sdsi_node's pump loop. A test may wrap each node's SimTransport in a
// decorator (a fault layer, a frame recorder) and screen every delivery
// (`admit`). Deterministic end to end: the same workload, decorators and
// screen give the same execution, frame for frame.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/strategy.hpp"
#include "net/equivalence.hpp"
#include "net/node.hpp"
#include "net/sim_transport.hpp"
#include "net/workload.hpp"
#include "routing/static_ring.hpp"
#include "sim/simulator.hpp"

namespace sdsi::net::testing {

/// Lifespans far beyond any run: nothing expires mid-run.
inline constexpr sim::Duration kLifespan = sim::Duration::seconds(3600);

struct InProcessRing {
  /// Builds the transport node `i` sends through, over `ring.sims[i]`.
  using Decorator = std::function<std::unique_ptr<Transport>(
      InProcessRing& ring, NodeIndex i)>;

  explicit InProcessRing(const WorkloadConfig& workload,
                         NetReliabilityConfig reliability = {},
                         const Decorator& decorate = {},
                         sim::Duration mbr_lifespan = kLifespan)
      : config(workload),
        space(workload.id_bits),
        ring(space, routing::hash_node_ids(workload.nodes, space,
                                           workload.ring_salt)),
        fabric(simulator, sim::Duration::millis(1)) {
    node_config.features = config.features;
    node_config.strategy = config.strategy;
    node_config.mbr_lifespan = mbr_lifespan;
    node_config.reliability = reliability;
    for (NodeIndex i = 0; i < config.nodes; ++i) {
      sims.push_back(std::make_unique<SimTransport>(fabric, i));
      links.push_back(decorate ? decorate(*this, i) : nullptr);
    }
    for (NodeIndex i = 0; i < config.nodes; ++i) {
      nodes.push_back(
          std::make_unique<NetNode>(ring, i, link(i), node_config));
      sims[i]->set_deliver([this, i](routing::Message&& msg) {
        if (!admit || admit(i, msg)) {
          nodes[i]->deliver(std::move(msg), simulator.now());
        }
      });
    }
  }
  InProcessRing(const InProcessRing&) = delete;
  InProcessRing& operator=(const InProcessRing&) = delete;

  /// What node `i` sends through: its decorator, else its SimTransport.
  Transport& link(NodeIndex i) {
    return links[i] ? *links[i] : static_cast<Transport&>(*sims[i]);
  }

  /// Restarts node `i` as a fresh process (empty store) under `epoch`.
  void restart(NodeIndex i, std::uint64_t epoch) {
    NetNodeConfig fresh = node_config;
    fresh.epoch = epoch;
    nodes[i] = std::make_unique<NetNode>(ring, i, link(i), fresh);
  }

  /// Advances wall and sim time together in 10 ms steps, polling every
  /// transport (a fault layer's delay queue) and driving every node's
  /// heartbeat and reliability clocks.
  void pump(std::int64_t ms) {
    for (std::int64_t t = 0; t < ms; t += 10) {
      wall_ms += 10;
      for (NodeIndex i = 0; i < config.nodes; ++i) {
        link(i).poll(0);
        nodes[i]->heartbeat_tick(wall_ms, simulator.now());
        nodes[i]->reliability_tick(wall_ms, simulator.now());
      }
      simulator.run_until(simulator.now() + sim::Duration::millis(10));
    }
  }

  /// The net workload: similarity queries, then each node's streams, then
  /// the inner-product queries, then `rounds` NPER passes 500 ms apart.
  void run_workload(int rounds) {
    const auto strategy =
        core::IndexingStrategy::make(config.strategy, config.features, space);
    for (const WorkloadQuery& query : workload_queries(config)) {
      nodes[query.client]->subscribe_similarity(
          query.id, strategy->features_from_window(query.window),
          query.radius, kLifespan, simulator.now());
    }
    pump(200);
    for (NodeIndex node = 0; node < config.nodes; ++node) {
      for (std::uint32_t slot = 0; slot < config.streams_per_node; ++slot) {
        const StreamId stream = workload_stream_id(config, node, slot);
        for (const Sample value : workload_samples(config, stream)) {
          nodes[node]->publish_value(stream, value, simulator.now());
        }
      }
      pump(50);  // let each node's burst drain before the next publisher
    }
    // Every stream is registered by now, so the location service knows
    // each inner-product query's source.
    for (const WorkloadInnerQuery& query : workload_inner_queries(config)) {
      nodes[query.client]->subscribe_inner_product(
          query.id, query.stream, query.index, query.weights, kLifespan,
          simulator.now());
    }
    // Each pass matches, pushes whatever matched since the last one and
    // answers the inner-product queries.
    for (int round = 0; round < rounds; ++round) {
      pump(500);
      for (auto& node : nodes) {
        node->tick(simulator.now());
      }
    }
    pump(500);
  }

  /// Every node's answers to the queries it posed.
  RunDigest digest() const {
    RunDigest digest;
    for (const auto& node : nodes) {
      digest.matches.insert(node->results().begin(), node->results().end());
      digest.inner.insert(node->inner_values().begin(),
                          node->inner_values().end());
    }
    return digest;
  }

  WorkloadConfig config;
  NetNodeConfig node_config;
  /// When set, sees every frame before node `at` does; false drops it.
  std::function<bool(NodeIndex at, const routing::Message&)> admit;
  sim::Simulator simulator;
  common::IdSpace space;
  NetRing ring;
  SimFabric fabric;
  std::vector<std::unique_ptr<SimTransport>> sims;
  std::vector<std::unique_ptr<Transport>> links;  // null: undecorated
  std::vector<std::unique_ptr<NetNode>> nodes;
  std::int64_t wall_ms = 0;
};

}  // namespace sdsi::net::testing
