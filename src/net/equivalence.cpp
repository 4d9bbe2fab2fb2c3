#include "net/equivalence.hpp"

#include <ostream>

#include "common/check.hpp"
#include "core/system.hpp"
#include "routing/static_ring.hpp"
#include "sim/simulator.hpp"

namespace sdsi::net {

namespace {

/// Lifespans far beyond any run length: nothing expires mid-run, which is
/// one leg of the timing-independence argument the gate rests on.
constexpr auto kLifespan = sim::Duration::seconds(3600);

}  // namespace

void PrintTo(const RunDigest& digest, std::ostream* out) {
  for (const auto& [id, streams] : digest.matches) {
    *out << "\n  query " << id << ": {";
    for (const StreamId stream : streams) {
      *out << ' ' << stream;
    }
    *out << " }";
  }
  const auto precision = out->precision(17);
  for (const auto& [id, value] : digest.inner) {
    *out << "\n  inner query " << id << ": " << value;
  }
  out->precision(precision);
}

RunDigest run_sim_reference(const WorkloadConfig& config) {
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
  simulator.run_until(simulator.now() + sim::Duration::seconds(2));

  // Inner-product queries once every stream is registered, so the location
  // service resolves each source on the first ask.
  for (const WorkloadInnerQuery& query : workload_inner_queries(config)) {
    const core::QueryId id = system.subscribe_inner_product(
        query.client, query.stream, query.index, query.weights, kLifespan);
    SDSI_CHECK(id == query.id);
  }
  // Drain: multicast hops, notify ticks, digest relays, response pushes.
  simulator.run_until(simulator.now() + sim::Duration::seconds(120));

  RunDigest digest;
  for (const auto& [id, record] : system.client_records()) {
    if (!record.inner_product) {
      digest.matches[id] = std::set<StreamId>(record.matched_streams.begin(),
                                              record.matched_streams.end());
    } else if (record.inner_updates > 0) {
      digest.inner[id] = record.last_inner_value;
    }
  }
  return digest;
}

}  // namespace sdsi::net
