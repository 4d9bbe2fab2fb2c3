// In-process leg of the sim-vs-socket equivalence gate (the wire-protocol
// PR's acceptance test): the NetNode pipeline — the same code sdsi_node runs
// over real TCP — driven over SimTransport must produce the exact per-query
// matched stream sets the canonical simulated middleware produces on the
// identical workload, at N >= 8 nodes, fault-free. Every frame between
// NetNodes crosses the v1 codec, so a divergence anywhere in the envelope or
// payload serialization shows up as a digest mismatch here.
//
// The socket leg (real processes, real TCP) is tools/net_equiv, wired as
// `ctest -L net-smoke`.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/strategy.hpp"
#include "net/equivalence.hpp"
#include "net/node.hpp"
#include "net/sim_transport.hpp"
#include "net/wire.hpp"
#include "routing/static_ring.hpp"
#include "sim/simulator.hpp"

namespace sdsi::net {
namespace {

TEST(NetEquivalence, SimAndNetDigestsMatchAtEightNodes) {
  WorkloadConfig config;
  config.nodes = 8;
  config.seed = 42;

  const MatchDigest sim_digest = run_sim_reference(config);
  const MatchDigest net_digest = run_net_over_sim_transport(config);

  // The gate is vacuous unless the workload actually produces matches.
  ASSERT_EQ(sim_digest.size(), static_cast<std::size_t>(config.nodes));
  std::size_t nonempty = 0;
  for (const auto& [id, streams] : sim_digest) {
    nonempty += streams.empty() ? 0u : 1u;
  }
  ASSERT_GT(nonempty, 0u) << "workload produced no matches at all";

  EXPECT_EQ(net_digest, sim_digest);
}

TEST(NetEquivalence, HoldsAcrossSeedsAndRingSizes) {
  for (const auto& [nodes, seed] : {std::pair<std::uint32_t, std::uint64_t>{3, 7},
                                    {8, 1234},
                                    {11, 99}}) {
    WorkloadConfig config;
    config.nodes = nodes;
    config.seed = seed;
    config.samples_per_stream = 300;
    const MatchDigest sim_digest = run_sim_reference(config);
    const MatchDigest net_digest = run_net_over_sim_transport(config);
    EXPECT_EQ(net_digest, sim_digest) << nodes << " nodes, seed " << seed;
  }
}

/// 64-bit FNV-1a over every frame a ring sends.
struct FrameDigest {
  std::uint64_t hash = 14695981039346656037ull;
  std::uint64_t frames = 0;

  void fold(std::span<const std::uint8_t> bytes) {
    for (const std::uint8_t byte : bytes) {
      hash = (hash ^ byte) * 1099511628211ull;
    }
  }
  void fold(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      const std::uint8_t byte = static_cast<std::uint8_t>(value >> shift);
      fold(std::span<const std::uint8_t>(&byte, 1));
    }
  }
};

/// Folds each frame its node sends (sender, peer, sim time, encoded bytes)
/// into a shared digest before handing it to the real transport.
class RecordingTransport final : public Transport {
 public:
  RecordingTransport(Transport& inner, NodeIndex self,
                     const sim::Simulator& clock, FrameDigest& digest)
      : inner_(inner), self_(self), clock_(clock), digest_(digest) {}

  bool send(NodeIndex peer, const routing::Message& msg) override {
    ++digest_.frames;
    digest_.fold(self_);
    digest_.fold(peer);
    digest_.fold(static_cast<std::uint64_t>(clock_.now().count_micros()));
    digest_.fold(encode_frame(msg));
    return inner_.send(peer, msg);
  }
  void set_deliver(DeliverFn fn) override { inner_.set_deliver(std::move(fn)); }
  void poll(int budget_ms) override { inner_.poll(budget_ms); }
  std::size_t peer_count() const override { return inner_.peer_count(); }

 private:
  Transport& inner_;
  NodeIndex self_;
  const sim::Simulator& clock_;
  FrameDigest& digest_;
};

/// Runs the default workload over 8 NetNodes on a 1 ms SimFabric and
/// returns the digest of every frame sent, with the final matched-pair
/// count folded in last.
FrameDigest socket_path_frames(core::StrategyKind kind, bool reliable) {
  WorkloadConfig config;
  config.strategy.kind = kind;
  sim::Simulator simulator;
  const common::IdSpace space(config.id_bits);
  const NetRing ring(
      space, routing::hash_node_ids(config.nodes, space, config.ring_salt));
  SimFabric fabric(simulator, sim::Duration::millis(1));
  NetNodeConfig node_config;
  node_config.features = config.features;
  node_config.strategy = config.strategy;
  node_config.mbr_lifespan = sim::Duration::seconds(3600);
  node_config.reliability.enabled = reliable;

  FrameDigest digest;
  std::vector<std::unique_ptr<SimTransport>> sims;
  std::vector<std::unique_ptr<RecordingTransport>> recorders;
  std::vector<std::unique_ptr<NetNode>> nodes;
  for (NodeIndex i = 0; i < config.nodes; ++i) {
    sims.push_back(std::make_unique<SimTransport>(fabric, i));
    recorders.push_back(std::make_unique<RecordingTransport>(
        *sims.back(), i, simulator, digest));
  }
  for (NodeIndex i = 0; i < config.nodes; ++i) {
    nodes.push_back(
        std::make_unique<NetNode>(ring, i, *recorders[i], node_config));
    NetNode* node = nodes.back().get();
    recorders[i]->set_deliver([node, &simulator](routing::Message&& msg) {
      node->deliver(std::move(msg), simulator.now());
    });
  }
  std::int64_t wall_ms = 0;
  const auto pump = [&](std::int64_t ms) {
    for (std::int64_t t = 0; t < ms; t += 10) {
      wall_ms += 10;
      for (auto& node : nodes) {
        node->heartbeat_tick(wall_ms, simulator.now());
        node->reliability_tick(wall_ms, simulator.now());
      }
      simulator.run_until(simulator.now() + sim::Duration::millis(10));
    }
  };

  const auto strategy =
      core::IndexingStrategy::make(config.strategy, config.features, space);
  for (const WorkloadQuery& query : workload_queries(config)) {
    nodes[query.client]->subscribe_similarity(
        query.id, strategy->features_from_window(query.window), query.radius,
        sim::Duration::seconds(3600), simulator.now());
  }
  pump(200);
  for (NodeIndex node = 0; node < config.nodes; ++node) {
    for (std::uint32_t slot = 0; slot < config.streams_per_node; ++slot) {
      const StreamId stream = workload_stream_id(config, node, slot);
      for (const Sample value : workload_samples(config, stream)) {
        nodes[node]->publish_value(stream, value, simulator.now());
      }
    }
    pump(50);
  }
  for (int round = 0; round < 4; ++round) {
    pump(500);
    for (auto& node : nodes) {
      node->tick(simulator.now());
    }
  }
  pump(500);

  std::uint64_t pairs = 0;
  for (const auto& node : nodes) {
    for (const auto& [id, streams] : node->results()) {
      pairs += streams.size();
    }
  }
  digest.fold(pairs);
  return digest;
}

TEST(NetEquivalence, SocketPathFramesArePinned) {
  // Every frame the socket path puts on the wire — who sent it to whom,
  // when, and its exact v1 bytes — for each strategy, with the reliability
  // stack off and on. A refactor of NetNode's routing must leave all of
  // them unchanged.
  struct Pin {
    core::StrategyKind kind;
    bool reliable;
    std::uint64_t frames;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {core::StrategyKind::kDft, false, 1094, 0x9fe021d0f4723b6aull},
      {core::StrategyKind::kEcm, false, 537, 0x853fc1d3ec877fefull},
      {core::StrategyKind::kLsh, false, 3347, 0x1fb40986d63544a0ull},
      {core::StrategyKind::kDft, true, 10942, 0x7bfa8dda8c38a768ull},
      {core::StrategyKind::kEcm, true, 8797, 0x7cd94346fed94b66ull},
      {core::StrategyKind::kLsh, true, 15653, 0x724ce2729bcc8c48ull},
  };
  for (const Pin& pin : pins) {
    const FrameDigest digest = socket_path_frames(pin.kind, pin.reliable);
    EXPECT_EQ(digest.frames, pin.frames)
        << core::strategy_name(pin.kind) << " reliable " << pin.reliable;
    EXPECT_EQ(digest.hash, pin.hash)
        << core::strategy_name(pin.kind) << " reliable " << pin.reliable;
  }
}

}  // namespace
}  // namespace sdsi::net
