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

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
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

/// 64-bit FNV-1a over every frame a ring sends, and the frames per kind.
struct FrameDigest {
  std::uint64_t hash = 14695981039346656037ull;
  std::uint64_t frames = 0;
  std::array<std::uint64_t, routing::kNumMsgKinds + 1> by_kind{};

  /// "kind count" for every kind sent, in kind order.
  std::string kinds() const {
    std::string out;
    for (std::size_t kind = 1; kind < by_kind.size(); ++kind) {
      if (by_kind[kind] != 0) {
        out += out.empty() ? "" : ", ";
        out += routing::msg_kind_name(static_cast<routing::MsgKind>(kind));
        out += ' ';
        out += std::to_string(by_kind[kind]);
      }
    }
    return out;
  }

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
    ++digest_.by_kind[static_cast<std::size_t>(msg.kind)];
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
  // stack off and on, and how many frames of each kind cross the codec. A
  // refactor of NetNode's routing must leave all of them unchanged.
  //
  // Regenerated when NetNode became a facade over core::MiddlewareNode:
  // range nodes now send report digests (neighbor_exchange) to the query's
  // middle node, which pushes to the client; the reliable ring mirrors each
  // push to the middle key's replicas (aggregator_replica); and a stream's
  // first sample and every MBR refresh register it with the location
  // service (location_put). Inner-product queries are not posed on the
  // socket path, so inner_product_query, location_get and location_reply
  // never cross it.
  struct Pin {
    core::StrategyKind kind;
    bool reliable;
    std::uint64_t frames;
    std::uint64_t hash;
    const char* kinds;
  };
  const Pin pins[] = {
      {core::StrategyKind::kDft, false, 1096, 0x2444bb9f62dd73a8ull,
       "mbr_update 1044, similarity_query 25, response 10, "
       "neighbor_exchange 11, location_put 6"},
      {core::StrategyKind::kEcm, false, 540, 0x154c64097e1c3408ull,
       "mbr_update 516, similarity_query 12, response 6, location_put 6"},
      {core::StrategyKind::kLsh, false, 3348, 0x1517912cee0b84feull,
       "mbr_update 3289, similarity_query 36, response 6, "
       "neighbor_exchange 11, location_put 6"},
      {core::StrategyKind::kDft, true, 11171, 0x8adf15d5f9dc9cfcull,
       "mbr_update 4230, similarity_query 100, response 10, "
       "neighbor_exchange 33, location_put 24, mbr_ack 2008, "
       "response_ack 10, replica_put 1184, anti_entropy_digest 80, "
       "aggregator_replica 20, heartbeat 3472"},
      {core::StrategyKind::kEcm, true, 8942, 0x291ba35584d6aa73ull,
       "mbr_update 2064, similarity_query 48, response 6, location_put 24, "
       "mbr_ack 2044, response_ack 6, replica_put 1184, "
       "anti_entropy_digest 80, aggregator_replica 14, heartbeat 3472"},
      {core::StrategyKind::kLsh, true, 15603, 0xf5aef4e4b8697a68ull,
       "mbr_update 5029, similarity_query 57, response 6, "
       "neighbor_exchange 24, location_put 24, mbr_ack 4425, "
       "response_ack 6, replica_put 2464, anti_entropy_digest 80, "
       "aggregator_replica 16, heartbeat 3472"},
  };
  for (const Pin& pin : pins) {
    const FrameDigest digest = socket_path_frames(pin.kind, pin.reliable);
    EXPECT_EQ(digest.frames, pin.frames)
        << core::strategy_name(pin.kind) << " reliable " << pin.reliable;
    EXPECT_EQ(digest.hash, pin.hash)
        << core::strategy_name(pin.kind) << " reliable " << pin.reliable;
    EXPECT_EQ(digest.kinds(), pin.kinds)
        << core::strategy_name(pin.kind) << " reliable " << pin.reliable;
  }
}

}  // namespace
}  // namespace sdsi::net
