// In-process leg of the sim-vs-socket equivalence gate: the NetNode
// pipeline (the same code sdsi_node runs over real TCP) driven over
// SimTransport must produce the exact per-query matched stream sets and
// inner-product answers the canonical simulated middleware produces on the
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
#include <utility>

#include "net/equivalence.hpp"
#include "net/wire.hpp"
#include "net_ring.hpp"

namespace sdsi::net {
namespace {

using testing::InProcessRing;

/// The workload's answers on a fault-free in-process ring.
RunDigest ring_digest(const WorkloadConfig& config) {
  InProcessRing ring(config);
  ring.run_workload(4);
  return ring.digest();
}

TEST(NetEquivalence, SimAndNetDigestsMatchAtEightNodes) {
  WorkloadConfig config;
  config.nodes = 8;
  config.seed = 42;

  const RunDigest sim_digest = run_sim_reference(config);
  const RunDigest net_digest = ring_digest(config);

  // The gate is vacuous unless the workload actually produces matches and
  // every inner-product query an answer.
  ASSERT_EQ(sim_digest.matches.size(), static_cast<std::size_t>(config.nodes));
  ASSERT_EQ(sim_digest.inner.size(), static_cast<std::size_t>(config.nodes));
  std::size_t nonempty = 0;
  for (const auto& [id, streams] : sim_digest.matches) {
    nonempty += streams.empty() ? 0u : 1u;
  }
  ASSERT_GT(nonempty, 0u) << "workload produced no matches at all";

  EXPECT_EQ(net_digest, sim_digest);
}

TEST(NetEquivalence, HoldsAcrossSeedsAndRingSizes) {
  for (const auto& [nodes, seed] : {std::pair<std::uint32_t, std::uint64_t>{3, 7},
                                    {8, 1234},
                                    {11, 99}}) {
    for (const core::StrategyKind kind :
         {core::StrategyKind::kDft, core::StrategyKind::kEcm,
          core::StrategyKind::kLsh}) {
      WorkloadConfig config;
      config.nodes = nodes;
      config.seed = seed;
      config.samples_per_stream = 300;
      config.strategy = kind;
      const RunDigest sim_digest = run_sim_reference(config);
      EXPECT_EQ(sim_digest.inner.size(), config.nodes);
      EXPECT_EQ(ring_digest(config), sim_digest)
          << core::strategy_name(kind) << ", " << nodes << " nodes, seed "
          << seed;
    }
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
  config.strategy = kind;
  NetReliabilityConfig reliability;
  reliability.enabled = reliable;
  FrameDigest digest;
  InProcessRing ring(config, reliability,
                     [&digest](InProcessRing& rig, NodeIndex i) {
                       return std::make_unique<RecordingTransport>(
                           *rig.sims[i], i, rig.simulator, digest);
                     });
  ring.run_workload(4);

  std::uint64_t pairs = 0;
  for (const auto& [id, streams] : ring.digest().matches) {
    pairs += streams.size();
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
  // service (location_put). Regenerated again when the workload gained one
  // inner-product query per node: each asks the location service for its
  // stream's source (location_get and location_reply, 7 of 8 cross the
  // wire), is sent to that source (inner_product_query) and answered once
  // per NPER pass (response, +32 over four passes); every other count
  // stayed as it was.
  struct Pin {
    core::StrategyKind kind;
    bool reliable;
    std::uint64_t frames;
    std::uint64_t hash;
    const char* kinds;
  };
  const Pin pins[] = {
      {core::StrategyKind::kDft, false, 1150, 0x9366aef4c9863664ull,
       "mbr_update 1044, similarity_query 25, inner_product_query 8, "
       "response 42, neighbor_exchange 11, location_put 6, location_get 7, "
       "location_reply 7"},
      {core::StrategyKind::kEcm, false, 594, 0x27dfe3e64c5aa6a7ull,
       "mbr_update 516, similarity_query 12, inner_product_query 8, "
       "response 38, location_put 6, location_get 7, location_reply 7"},
      {core::StrategyKind::kLsh, false, 3402, 0x9e89582a7c584a21ull,
       "mbr_update 3289, similarity_query 36, inner_product_query 8, "
       "response 38, neighbor_exchange 11, location_put 6, location_get 7, "
       "location_reply 7"},
      {core::StrategyKind::kDft, true, 11225, 0xec483afac2a2bb41ull,
       "mbr_update 4230, similarity_query 100, inner_product_query 8, "
       "response 42, neighbor_exchange 33, location_put 24, location_get 7, "
       "location_reply 7, mbr_ack 2008, response_ack 10, replica_put 1184, "
       "anti_entropy_digest 80, aggregator_replica 20, heartbeat 3472"},
      {core::StrategyKind::kEcm, true, 8996, 0x978db217a3c24150ull,
       "mbr_update 2064, similarity_query 48, inner_product_query 8, "
       "response 38, location_put 24, location_get 7, location_reply 7, "
       "mbr_ack 2044, response_ack 6, replica_put 1184, "
       "anti_entropy_digest 80, aggregator_replica 14, heartbeat 3472"},
      {core::StrategyKind::kLsh, true, 15657, 0xbb8b842a84733938ull,
       "mbr_update 5029, similarity_query 57, inner_product_query 8, "
       "response 38, neighbor_exchange 24, location_put 24, location_get 7, "
       "location_reply 7, mbr_ack 4425, response_ack 6, replica_put 2464, "
       "anti_entropy_digest 80, aggregator_replica 16, heartbeat 3472"},
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
