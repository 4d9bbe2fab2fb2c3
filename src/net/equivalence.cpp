#include "net/equivalence.hpp"

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "core/strategy.hpp"
#include "core/system.hpp"
#include "net/node.hpp"
#include "net/sim_transport.hpp"
#include "routing/static_ring.hpp"
#include "sim/simulator.hpp"

namespace sdsi::net {

namespace {

/// Lifespans far beyond any run length: nothing expires mid-run, which is
/// one leg of the timing-independence argument the gate rests on.
constexpr auto kLifespan = sim::Duration::seconds(3600);

}  // namespace

MatchDigest run_sim_reference(const WorkloadConfig& config) {
  sim::Simulator simulator;
  const common::IdSpace space(config.id_bits);
  routing::StaticRing ring(
      simulator, space,
      routing::hash_node_ids(config.nodes, space, config.ring_salt));

  core::MiddlewareConfig mw;
  mw.features = config.features;
  mw.strategy = config.strategy;
  mw.mbr_lifespan = kLifespan;
  mw.notify_period = sim::Duration::millis(500);
  core::MiddlewareSystem system(ring, mw);
  system.start();

  // Queries first: the middleware hands out sequential ids starting at 1,
  // and the workload's ids must coincide or the digests aren't comparable.
  for (const WorkloadQuery& query : workload_queries(config)) {
    const core::QueryId id = system.subscribe_similarity_window(
        query.client, query.window, query.radius, kLifespan);
    SDSI_CHECK(id == query.id);
  }
  simulator.run_until(simulator.now() + sim::Duration::seconds(2));

  for (NodeIndex node = 0; node < config.nodes; ++node) {
    for (std::uint32_t slot = 0; slot < config.streams_per_node; ++slot) {
      const StreamId stream = workload_stream_id(config, node, slot);
      system.register_stream(node, stream);
      for (const Sample value : workload_samples(config, stream)) {
        system.post_stream_value(node, stream, value);
      }
    }
  }
  // Drain: multicast hops, notify ticks, digest relays, response pushes.
  simulator.run_until(simulator.now() + sim::Duration::seconds(120));

  MatchDigest digest;
  for (const auto& [id, record] : system.client_records()) {
    digest[id] = std::set<StreamId>(record.matched_streams.begin(),
                                    record.matched_streams.end());
  }
  return digest;
}

MatchDigest run_net_over_sim_transport(const WorkloadConfig& config) {
  sim::Simulator simulator;
  const common::IdSpace space(config.id_bits);
  NetRing ring(space,
               routing::hash_node_ids(config.nodes, space, config.ring_salt));
  SimFabric fabric(simulator, sim::Duration::millis(1));

  NetNodeConfig node_config;
  node_config.features = config.features;
  node_config.strategy = config.strategy;
  node_config.mbr_lifespan = kLifespan;

  std::vector<std::unique_ptr<SimTransport>> transports;
  std::vector<std::unique_ptr<NetNode>> nodes;
  transports.reserve(config.nodes);
  nodes.reserve(config.nodes);
  for (NodeIndex i = 0; i < config.nodes; ++i) {
    transports.push_back(std::make_unique<SimTransport>(fabric, i));
  }
  for (NodeIndex i = 0; i < config.nodes; ++i) {
    nodes.push_back(
        std::make_unique<NetNode>(ring, i, *transports[i], node_config));
    NetNode* node = nodes.back().get();
    sim::Simulator* sim_ptr = &simulator;
    transports[i]->set_deliver([node, sim_ptr](routing::Message&& msg) {
      node->deliver(std::move(msg), sim_ptr->now());
    });
  }

  const auto strategy =
      core::IndexingStrategy::make(config.strategy, config.features, space);
  for (const WorkloadQuery& query : workload_queries(config)) {
    nodes[query.client]->subscribe_similarity(
        query.id, strategy->features_from_window(query.window), query.radius,
        kLifespan, simulator.now());
  }
  simulator.run_until(simulator.now() + sim::Duration::seconds(2));

  for (NodeIndex node = 0; node < config.nodes; ++node) {
    for (std::uint32_t slot = 0; slot < config.streams_per_node; ++slot) {
      const StreamId stream = workload_stream_id(config, node, slot);
      for (const Sample value : workload_samples(config, stream)) {
        nodes[node]->publish_value(stream, value, simulator.now());
      }
    }
  }
  simulator.run_until(simulator.now() + sim::Duration::seconds(2));

  // One NPER pass per node now that every MBR and subscription has landed,
  // then drain its report digests and the pushes the middle nodes send on
  // their arrival.
  for (auto& node : nodes) {
    node->tick(simulator.now());
  }
  simulator.run_until(simulator.now() + sim::Duration::seconds(2));

  MatchDigest digest;
  for (const auto& node : nodes) {
    for (const auto& [id, streams] : node->results()) {
      digest[id] = streams;
    }
  }
  return digest;
}

}  // namespace sdsi::net
