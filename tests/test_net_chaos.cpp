// In-process chaos gate for the NetNode reliability stack: the full N-node
// NetNode pipeline (the one sdsi_node runs over TCP) driven over
// FaultyTransport-wrapped SimTransports — seeded bursty loss, jitter,
// reorder and corruption — with heartbeats, acked publications, refresh,
// replication and anti-entropy switched on. Deterministic end to end (sim
// scheduler + fake wall clock + seeded fault streams), so the recall and
// accounting assertions are exact reruns of the same execution.
//
// The socket-world counterpart (real processes, SIGKILL drill) is
// tools/net_equiv --chaos, gated by the net-chaos-smoke ctest entry.
#include <gtest/gtest.h>

#include <any>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "core/arc_sync.hpp"
#include "fault/model.hpp"
#include "net/equivalence.hpp"
#include "net/faulty_transport.hpp"
#include "net/wire.hpp"
#include "net_ring.hpp"

namespace sdsi::net {
namespace {

using testing::InProcessRing;
using testing::kLifespan;

/// The shared ring with the reliability stack on, each node behind its own
/// seeded fault layer on the ring's fake wall clock (the failure
/// detector's time base).
struct ChaosRig : InProcessRing {
  ChaosRig(const WorkloadConfig& workload, const fault::FaultPlan& plan,
           NetReliabilityConfig reliability,
           sim::Duration mbr_lifespan = kLifespan)
      : InProcessRing(
            workload, enabled(reliability),
            [&plan](InProcessRing& rig, NodeIndex i) {
              auto layer = std::make_unique<FaultyTransport>(
                  *rig.sims[i], plan, rig.space,
                  rig.config.seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
              layer->set_clock([&rig] { return rig.wall_ms; });
              return layer;
            },
            mbr_lifespan) {
    for (const auto& link : links) {
      faults.push_back(static_cast<FaultyTransport*>(link.get()));
    }
  }

  /// Eight NPER passes: refresh (800 ms) and anti-entropy (600 ms) get
  /// several rounds to converge.
  void run_workload() { InProcessRing::run_workload(8); }

  static NetReliabilityConfig enabled(NetReliabilityConfig reliability) {
    reliability.enabled = true;
    return reliability;
  }

  std::vector<FaultyTransport*> faults;
};

/// Matched pairs of `reference` that `got` recovered; inner-product
/// answers are not compared under chaos, as no host refreshes their
/// subscriptions.
double recall_against(const RunDigest& reference, const RunDigest& got) {
  std::uint64_t expected = 0;
  std::uint64_t recovered = 0;
  for (const auto& [query, streams] : reference.matches) {
    const auto it = got.matches.find(query);
    for (const StreamId stream : streams) {
      ++expected;
      if (it != got.matches.end() && it->second.count(stream) > 0) {
        ++recovered;
      }
    }
  }
  return expected == 0 ? 1.0
                       : static_cast<double>(recovered) /
                             static_cast<double>(expected);
}

TEST(NetChaos, ReliabilityStackConvergesUnderBurstyLossAndCorruption) {
  WorkloadConfig config;
  config.nodes = 8;

  fault::FaultPlan plan;
  fault::GilbertElliottParams ge;
  ge.p_bad_to_good = 0.25;
  ge.p_good_to_bad = 0.1 * ge.p_bad_to_good / 0.9;  // ~10% stationary loss
  plan.burst_loss = ge;
  plan.jitter = fault::LatencyJitter{sim::Duration::millis(5)};
  plan.reorder = 0.02;
  plan.corrupt = 0.003;

  ChaosRig rig(config, plan, NetReliabilityConfig{});
  rig.run_workload();

  const RunDigest reference = run_sim_reference(config);
  const double recall = recall_against(reference, rig.digest());
  EXPECT_GE(recall, 0.95) << "chaos recall floor (see ISSUE acceptance)";

  // Zero unaccounted drops: everything offered either crossed the fabric,
  // was charged to an injected DropCause, or (transiently) sat delayed —
  // and nothing is still delayed after the final pump.
  std::uint64_t offered = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retransmits = 0;
  for (NodeIndex i = 0; i < config.nodes; ++i) {
    EXPECT_EQ(rig.faults[i]->pending_delayed(), 0u);
    const FaultyTransportStats& s = rig.faults[i]->stats();
    offered += s.offered;
    forwarded += s.forwarded;
    dropped += s.dropped();
    retransmits += rig.nodes[i]->counters().mbr_retransmits;
  }
  EXPECT_EQ(offered, forwarded + dropped);
  EXPECT_GT(dropped, 0u) << "the plan should actually have injected loss";
  EXPECT_GT(retransmits, 0u) << "recovery should have done real work";
}

TEST(NetChaos, DelayOnlyChaosCausesFalseSuspicionsButNoDeaths) {
  WorkloadConfig config;
  config.nodes = 4;
  config.samples_per_stream = 200;

  fault::FaultPlan plan;
  plan.jitter = fault::LatencyJitter{sim::Duration::millis(80)};

  // Aggressive suspicion (60 ms < heartbeat period + max jitter) so late
  // heartbeats do trip it; the dead deadline stays far beyond any possible
  // delay-induced silence.
  NetReliabilityConfig reliability;
  reliability.detector.suspect_after_ms = 60;
  reliability.detector.dead_after_ms = 600;

  ChaosRig rig(config, plan, reliability);
  rig.run_workload();

  // Nothing was lost, so the reliable ring must reproduce the reference
  // matched sets exactly.
  EXPECT_EQ(rig.digest(), run_sim_reference(config));

  std::uint64_t suspects = 0;
  std::uint64_t false_suspicions = 0;
  std::uint64_t deaths = 0;
  for (NodeIndex i = 0; i < config.nodes; ++i) {
    const FailureDetector::Counters& c =
        rig.nodes[i]->detector().counters();
    suspects += c.suspects;
    false_suspicions += c.false_suspicions;
    deaths += c.deaths;
    for (NodeIndex peer = 0; peer < config.nodes; ++peer) {
      EXPECT_EQ(rig.nodes[i]->detector().health(peer), PeerHealth::kAlive)
          << "node " << i << " still doubts peer " << peer;
    }
  }
  EXPECT_GT(suspects, 0u) << "jitter should have tripped the suspect timer";
  EXPECT_EQ(deaths, 0u) << "delay alone must never excise a peer";
  EXPECT_EQ(false_suspicions, suspects)
      << "every delay-induced suspicion must have healed";
}

TEST(NetChaos, RefreshStopsOnceEveryBatchHasLapsed) {
  // Fault-free reliable ring with a 2 s MBR lifespan. The workload takes
  // about 5 s, so by its end every published batch has lapsed; with nothing
  // new published, later refresh rounds must send no mbr_update at all.
  WorkloadConfig config;
  config.nodes = 4;
  config.samples_per_stream = 200;
  ChaosRig rig(config, fault::FaultPlan{}, NetReliabilityConfig{},
               sim::Duration::seconds(2));
  rig.run_workload();

  std::vector<NetNode::Counters> before;
  std::uint64_t refreshed_while_live = 0;
  for (const auto& node : rig.nodes) {
    before.push_back(node->counters());
    refreshed_while_live += node->counters().mbr_refreshes;
  }
  EXPECT_GT(refreshed_while_live, 0u) << "refresh must run while batches live";

  rig.pump(2000);  // at least two more 800 ms refresh rounds
  for (NodeIndex i = 0; i < config.nodes; ++i) {
    const NetNode::Counters& after = rig.nodes[i]->counters();
    EXPECT_GE(after.refresh_rounds, before[i].refresh_rounds + 2);
    EXPECT_EQ(after.mbr_refreshes, before[i].mbr_refreshes) << "node " << i;
    EXPECT_EQ(after.mbr_retransmits, before[i].mbr_retransmits)
        << "node " << i;
  }
}

TEST(NetChaos, UnackedResponsePushIsResentTenTimes250MsApart) {
  // Fault-free reliable ring whose clients' response acks never arrive:
  // every acked push goes out once, is resent exactly 10 times on a 250 ms
  // timeout without backoff, and is then forgotten.
  WorkloadConfig config;
  config.nodes = 4;
  config.samples_per_stream = 200;
  ChaosRig rig(config, fault::FaultPlan{}, NetReliabilityConfig{});
  // (aggregator, query, push_seq) -> wall clock of every delivery.
  std::map<std::tuple<NodeIndex, core::QueryId, std::uint64_t>,
           std::vector<std::int64_t>>
      arrivals;
  rig.admit = [&](NodeIndex, const routing::Message& msg) {
    if (msg.kind == routing::MsgKind::kResponseAck) {
      return false;
    }
    if (msg.kind == routing::MsgKind::kResponse) {
      const auto& payload =
          *std::any_cast<std::shared_ptr<const core::ResponsePayload>>(
              &msg.payload);
      if (payload->aggregator != kInvalidNode) {
        arrivals[{payload->aggregator, payload->query, payload->push_seq}]
            .push_back(rig.wall_ms);
      }
    }
    return true;
  };
  rig.run_workload();
  rig.pump(3000);  // the last round's pushes run out 2.5 s after their send

  ASSERT_GT(arrivals.size(), 0u) << "the workload should push matches";
  for (const auto& [push, at] : arrivals) {
    ASSERT_EQ(at.size(), 11u) << "query " << std::get<1>(push);
    // The first push leaves from tick() between pump steps and arrives on
    // the next 10 ms step; its resend is due 250 ms after the node's last
    // clock reading, so that first gap is one step short.
    EXPECT_GE(at[1] - at[0], 240);
    EXPECT_LE(at[1] - at[0], 250);
    for (std::size_t k = 2; k < at.size(); ++k) {
      EXPECT_EQ(at[k] - at[k - 1], 250) << "query " << std::get<1>(push);
    }
  }
  std::uint64_t retransmits = 0;
  std::uint64_t acks_received = 0;
  for (const auto& node : rig.nodes) {
    retransmits += node->counters().response_retransmits;
    acks_received += node->counters().response_acks_received;
  }
  EXPECT_EQ(retransmits, 10 * arrivals.size());
  EXPECT_EQ(acks_received, 0u);
}

TEST(NetChaos, RefreshDoesNotMirrorASelfLandingBatchAgain) {
  // Fault-free 8-node reliable ring. After the workload nothing new is
  // published, so the pump below only refreshes, and a refresh is a
  // redelivery: no batch may be mirrored again, including those whose
  // range lands on their own source.
  WorkloadConfig config;
  config.nodes = 8;
  ChaosRig rig(config, fault::FaultPlan{}, NetReliabilityConfig{});
  rig.run_workload();

  std::vector<NetNode::Counters> before;
  for (const auto& node : rig.nodes) {
    before.push_back(node->counters());
  }
  rig.pump(4000);
  std::uint64_t refreshes = 0;
  for (NodeIndex i = 0; i < config.nodes; ++i) {
    const NetNode::Counters& after = rig.nodes[i]->counters();
    refreshes += after.mbr_refreshes - before[i].mbr_refreshes;
    EXPECT_EQ(after.replica_puts_sent, before[i].replica_puts_sent)
        << "node " << i;
  }
  EXPECT_GT(refreshes, 0u);
}

TEST(NetChaos, RejoinedEmptyNodeRecoversItsArcThroughRepairAlone) {
  // Fault-free reliable ring whose refresh never runs, so the rejoined
  // node's arc can come back only through handoff, digests and backfill.
  WorkloadConfig config;
  config.nodes = 4;
  config.samples_per_stream = 200;
  NetReliabilityConfig reliability;
  reliability.refresh_period_ms = std::int64_t{1} << 40;
  ChaosRig rig(config, fault::FaultPlan{}, reliability);
  rig.run_workload();

  constexpr NodeIndex kRejoiner = 1;
  rig.restart(kRejoiner, 1);
  rig.nodes[kRejoiner]->request_handoff(rig.simulator.now());
  rig.pump(1500);

  const Key lo = rig.ring.id(rig.ring.predecessor_index(kRejoiner));
  const Key hi = rig.ring.id(kRejoiner);
  const auto strategy = core::IndexingStrategy::make(
      rig.node_config.strategy, config.features, rig.space);
  const core::ContentKeyMap& keys = strategy->key_map();
  const core::IndexStore& recovered = rig.nodes[kRejoiner]->store();
  std::size_t owed = 0;
  for (NodeIndex i = 0; i < config.nodes; ++i) {
    if (i == kRejoiner) {
      continue;
    }
    const core::IndexStore& store = rig.nodes[i]->store();
    for (const core::IndexStore::StoredMbr& entry : store.mbrs()) {
      const auto [mlo, mhi] = keys.mbr_range(entry.mbr);
      if (core::range_meets_arc(rig.space, mlo, mhi, lo, hi)) {
        ++owed;
        EXPECT_TRUE(recovered.contains_mbr(entry.stream, entry.batch_seq))
            << "node " << i << " stream " << entry.stream << " batch "
            << entry.batch_seq;
      }
    }
    for (const auto& [id, sub] : store.subscriptions()) {
      const auto [qlo, qhi] =
          keys.query_range(sub.query->features, sub.query->radius);
      if (core::range_meets_arc(rig.space, qlo, qhi, lo, hi)) {
        ++owed;
        EXPECT_NE(recovered.find_subscription(id), nullptr)
            << "node " << i << " query " << id;
      }
    }
  }
  EXPECT_GT(owed, 0u) << "the rejoiner's arc should have held entries";
  for (const auto& node : rig.nodes) {
    EXPECT_EQ(node->counters().mbr_refreshes, 0u);
  }
}

TEST(NetChaos, EveryKindCrossesTheCodec) {
  // The rejoin drill above on a plain ring: its workload sends every
  // content, location and reliability kind, and the rejoin adds handoff and
  // anti-entropy repair. Every kind of the v1 protocol must cross the codec
  // on the socket host's own path, SimTransport's re-encode check included.
  WorkloadConfig config;
  config.nodes = 4;
  config.samples_per_stream = 200;
  NetReliabilityConfig reliability;
  reliability.refresh_period_ms = std::int64_t{1} << 40;
  ChaosRig rig(config, fault::FaultPlan{}, reliability);
  std::array<std::uint64_t, routing::kNumMsgKinds + 1> delivered{};
  rig.admit = [&](NodeIndex, const routing::Message& msg) {
    ++delivered[static_cast<std::size_t>(msg.kind)];
    return true;
  };
  rig.run_workload();
  rig.restart(1, 1);
  rig.nodes[1]->request_handoff(rig.simulator.now());
  rig.pump(1500);

  for (std::size_t kind = 1; kind < delivered.size(); ++kind) {
    EXPECT_GT(delivered[kind], 0u)
        << routing::msg_kind_name(static_cast<routing::MsgKind>(kind));
  }
}

TEST(NetChaos, RangeWalkIntoADeadPeersArcStops) {
  // Node D falls silent and every survivor declares it dead. D's live
  // successor then covers D's arc, so a batch whose whole range lies in
  // that arc lands there and walks no further. A walk that took each arc
  // from the static predecessor never found the range's end and circled
  // the ring, one copy per hop, until D came back.
  WorkloadConfig config;
  ChaosRig rig(config, fault::FaultPlan{}, NetReliabilityConfig{});
  constexpr NodeIndex kDead = 3;
  const NodeIndex successor = rig.ring.successor_index(kDead);
  const NodeIndex source = rig.ring.predecessor_index(kDead);
  bool counting = false;
  std::uint64_t copies = 0;
  rig.admit = [&](NodeIndex at, const routing::Message& msg) {
    if (at == kDead || msg.origin == kDead) {
      return false;
    }
    if (counting && msg.kind == routing::MsgKind::kMbrUpdate) {
      ++copies;
    }
    return true;
  };
  rig.pump(1000);
  for (NodeIndex i = 0; i < config.nodes; ++i) {
    if (i != kDead) {
      ASSERT_EQ(rig.nodes[i]->detector().health(kDead), PeerHealth::kDead)
          << "node " << i;
    }
  }

  constexpr StreamId kStream = 500;
  routing::Message msg;
  msg.kind = routing::MsgKind::kMbrUpdate;
  msg.origin = source;
  msg.has_range = true;
  msg.range_lo = rig.space.wrap(rig.ring.id(source) + 1);
  msg.range_hi = rig.ring.id(kDead);
  msg.range_dir = routing::RangeDir::kUp;
  msg.target_key = msg.range_lo;
  msg.payload = std::make_shared<const core::MbrPayload>(core::MbrPayload{
      kStream, source,
      dsp::Mbr(std::vector<double>(4, -0.5), std::vector<double>(4, 0.5)), 0,
      rig.simulator.now() + kLifespan});
  counting = true;
  rig.nodes[successor]->deliver(std::move(msg), rig.simulator.now());
  rig.pump(1000);

  EXPECT_LE(copies, config.nodes) << "the walk must end, not circle the ring";
  EXPECT_TRUE(rig.nodes[successor]->store().contains_mbr(kStream, 0));
}

TEST(NetChaos, SummariesOfAnotherShapeAreDroppedAndCounted) {
  // The codec cannot know the ring's strategy, so a summary of another shape
  // decodes ok. A default node (dft, two coefficients, 4-dim MBRs) must drop
  // it unread: matching it against a well-shaped peer reads past the MBR.
  WorkloadConfig config;
  config.nodes = 2;
  ChaosRig rig(config, fault::FaultPlan{}, NetReliabilityConfig{});
  const sim::SimTime expires = rig.simulator.now() + kLifespan;
  const auto query = [](core::QueryId id, std::size_t coefficients) {
    return std::make_shared<const core::SimilarityQuery>(core::SimilarityQuery{
        id, 0,
        dsp::FeatureVector(
            std::vector<dsp::Complex>(coefficients, dsp::Complex(0.1, 0.1))),
        2.0, kLifespan, sim::SimTime{}});
  };
  const auto box = [](std::size_t dims) {
    return dsp::Mbr(std::vector<double>(dims, -0.5),
                    std::vector<double>(dims, 0.5));
  };
  const auto send = [&](routing::MsgKind kind, std::any payload) {
    routing::Message msg;
    msg.kind = kind;
    msg.origin = 0;
    msg.target_key = rig.ring.id(1);
    msg.payload = std::move(payload);
    EXPECT_TRUE(rig.sims[0]->send_raw(1, encode_frame(msg)));
  };
  const auto mbr = [&](StreamId stream, std::size_t dims) {
    return std::make_shared<const core::MbrPayload>(
        core::MbrPayload{stream, 0, box(dims), 0, expires});
  };
  const auto subscription = [&](core::QueryId id, std::size_t coefficients) {
    return std::make_shared<const core::SimilarityQueryPayload>(
        core::SimilarityQueryPayload{query(id, coefficients), 0});
  };
  core::ReplicaPutPayload put;
  put.from = 0;
  put.mbrs = {{12, 0, box(4), 0, expires}};
  put.subscriptions = {{query(3, 3), 0, expires}};

  send(routing::MsgKind::kMbrUpdate, mbr(10, 4));
  send(routing::MsgKind::kSimilarityQuery, subscription(1, 2));
  send(routing::MsgKind::kMbrUpdate, mbr(11, 2));
  send(routing::MsgKind::kSimilarityQuery, subscription(2, 3));
  send(routing::MsgKind::kReplicaPut,
       std::make_shared<const core::ReplicaPutPayload>(std::move(put)));
  rig.pump(100);
  rig.nodes[1]->tick(rig.simulator.now());

  const core::IndexStore& store = rig.nodes[1]->store();
  EXPECT_TRUE(store.contains_mbr(10, 0));
  EXPECT_NE(store.find_subscription(1), nullptr);
  EXPECT_FALSE(store.contains_mbr(11, 0));
  EXPECT_EQ(store.find_subscription(2), nullptr);
  EXPECT_FALSE(store.contains_mbr(12, 0)) << "a put is dropped whole";
  EXPECT_EQ(store.find_subscription(3), nullptr);
  EXPECT_EQ(rig.nodes[1]->counters().shape_rejects, 3u);
}

TEST(NetChaos, FramesNamingNodesOutsideTheRingAreDroppedAndCounted) {
  // A flipped byte can decode into a payload that names a node past the
  // ring, which the node would look up and abort on, or an inner-product
  // query that would read past the window. The trust boundary drops such a
  // frame of every kind unread and counts it; kInvalidNode stays legal
  // where it is a sentinel.
  WorkloadConfig config;
  config.nodes = 2;
  ChaosRig rig(config, fault::FaultPlan{}, NetReliabilityConfig{});
  constexpr NodeIndex kOutside = 7;
  const sim::SimTime expires = rig.simulator.now() + kLifespan;
  const std::size_t window = config.features.window_size;
  const auto box = [] {
    return dsp::Mbr(std::vector<double>(4, -0.5), std::vector<double>(4, 0.5));
  };
  const auto query = [](core::QueryId id, NodeIndex client) {
    return std::make_shared<const core::SimilarityQuery>(core::SimilarityQuery{
        id, client,
        dsp::FeatureVector(
            std::vector<dsp::Complex>(2, dsp::Complex(0.1, 0.1))),
        2.0, kLifespan, sim::SimTime{}});
  };
  const auto inner = [](core::QueryId id, NodeIndex client,
                        std::size_t index, std::size_t weights) {
    return std::make_shared<const core::InnerProductQueryPayload>(
        core::InnerProductQueryPayload{
            std::make_shared<const core::InnerProductQuery>(
                core::InnerProductQuery{id, client, 10,
                                        std::vector<double>(index, 1.0),
                                        std::vector<double>(weights, 1.0),
                                        kLifespan, sim::SimTime{}})});
  };
  const auto send = [&](routing::MsgKind kind, std::any payload) {
    routing::Message msg;
    msg.kind = kind;
    msg.origin = 0;
    msg.target_key = rig.ring.id(1);
    msg.payload = std::move(payload);
    EXPECT_TRUE(rig.sims[0]->send_raw(1, encode_frame(msg)));
  };
  std::uint64_t rejected = 0;
  const auto reject = [&](routing::MsgKind kind, std::any payload) {
    send(kind, std::move(payload));
    ++rejected;
  };
  using routing::MsgKind;
  reject(MsgKind::kMbrUpdate, std::make_shared<const core::MbrPayload>(
                                  core::MbrPayload{10, kOutside, box(), 0,
                                                   expires}));
  reject(MsgKind::kSimilarityQuery,
         std::make_shared<const core::SimilarityQueryPayload>(
             core::SimilarityQueryPayload{query(1, kOutside), 0}));
  reject(MsgKind::kInnerProductQuery, inner(2, kOutside, 4, 4));
  reject(MsgKind::kInnerProductQuery, inner(3, 0, 4, 3));
  reject(MsgKind::kInnerProductQuery, inner(4, 0, window + 1, window + 1));
  reject(MsgKind::kResponse,
         std::make_shared<const core::ResponsePayload>(core::ResponsePayload{
             5, kOutside, false, {}, 0.0, kInvalidNode, 0}));
  reject(MsgKind::kResponse,
         std::make_shared<const core::ResponsePayload>(
             core::ResponsePayload{5, 1, false, {}, 0.0, kOutside, 1}));
  reject(MsgKind::kNeighborExchange,
         std::make_shared<const core::NeighborDigestPayload>(
             core::NeighborDigestPayload{{core::MatchReport{
                 core::SimilarityMatch{6, 10, 0.0, sim::SimTime{}}, kOutside,
                 0, expires}}}));
  reject(MsgKind::kLocationPut,
         std::make_shared<const core::LocationPutPayload>(
             core::LocationPutPayload{20, kOutside}));
  reject(MsgKind::kLocationGet,
         std::make_shared<const core::LocationGetPayload>(
             core::LocationGetPayload{20, kOutside}));
  reject(MsgKind::kLocationReply,
         std::make_shared<const core::LocationReplyPayload>(
             core::LocationReplyPayload{20, kOutside}));
  reject(MsgKind::kReplicaPut,
         std::make_shared<const core::ReplicaPutPayload>(
             core::ReplicaPutPayload{kOutside, {}, {}, false, true}));
  reject(MsgKind::kReplicaPut,
         std::make_shared<const core::ReplicaPutPayload>(
             core::ReplicaPutPayload{
                 0, {{11, kOutside, box(), 0, expires}}, {}, false, false}));
  reject(MsgKind::kReplicaPut,
         std::make_shared<const core::ReplicaPutPayload>(
             core::ReplicaPutPayload{
                 0, {}, {{query(7, kOutside), 0, expires}}, false, false}));
  reject(MsgKind::kHandoffRequest,
         std::make_shared<const core::HandoffRequestPayload>(
             core::HandoffRequestPayload{kOutside, 0, 0}));
  reject(MsgKind::kAntiEntropyDigest,
         std::make_shared<const core::AntiEntropyDigestPayload>(
             core::AntiEntropyDigestPayload{kOutside, 0, 0, {}, {}}));
  reject(MsgKind::kAntiEntropyRequest,
         std::make_shared<const core::AntiEntropyRequestPayload>(
             core::AntiEntropyRequestPayload{kOutside, {{10, 0}}, {}}));
  reject(MsgKind::kAggregatorReplica,
         std::make_shared<const core::AggregatorReplicaPayload>(
             core::AggregatorReplicaPayload{8, kOutside, 0, expires, 0, {}}));
  reject(MsgKind::kAggregatorReplica,
         std::make_shared<const core::AggregatorReplicaPayload>(
             core::AggregatorReplicaPayload{8, 0, 0, expires, kOutside, {}}));
  reject(MsgKind::kHeartbeat, std::make_shared<const core::HeartbeatPayload>(
                                  core::HeartbeatPayload{kOutside, 0, 1}));
  // The sentinels: a response that wants no ack, a location tombstone and
  // an unknown-stream reply.
  send(MsgKind::kResponse,
       std::make_shared<const core::ResponsePayload>(core::ResponsePayload{
           5, 1, false, {}, 0.0, kInvalidNode, 0}));
  send(MsgKind::kLocationPut, std::make_shared<const core::LocationPutPayload>(
                                  core::LocationPutPayload{21, kInvalidNode}));
  send(MsgKind::kLocationReply,
       std::make_shared<const core::LocationReplyPayload>(
           core::LocationReplyPayload{21, kInvalidNode}));
  rig.pump(100);
  rig.nodes[1]->tick(rig.simulator.now());
  rig.pump(100);

  EXPECT_EQ(rig.nodes[1]->counters().shape_rejects, rejected);
  EXPECT_FALSE(rig.nodes[1]->store().contains_mbr(10, 0));
  EXPECT_EQ(rig.nodes[1]->store().find_subscription(1), nullptr);
}

}  // namespace
}  // namespace sdsi::net
