// MiddlewareNode hosted without MiddlewareSystem: a node's whole outside
// world is a RoutingSystem, a MetricsCollector and the two-method
// NodeHost, so a handful of nodes on a StaticRing plus a test host run the
// Sec IV pipeline end to end.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "core/node.hpp"
#include "dsp/features.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kWindow = 16;

struct TestHost final : NodeHost {
  const sim::Simulator* clock = nullptr;
  std::vector<std::pair<StreamId, std::uint64_t>> published;
  std::vector<std::pair<QueryId, StreamId>> matches;
  /// Every response, empty or not: (arrival, push_seq).
  std::vector<std::pair<sim::SimTime, std::uint64_t>> responses;

  void on_publish(const MbrPayload& payload) override {
    published.emplace_back(payload.stream, payload.batch_seq);
  }
  void on_response(const ResponsePayload& response) override {
    responses.emplace_back(clock->now(), response.push_seq);
    for (const SimilarityMatch& match : response.matches) {
      matches.emplace_back(response.query, match.stream);
    }
  }
};

MiddlewareConfig small_config() {
  MiddlewareConfig config;
  config.features.window_size = kWindow;
  config.features.num_coefficients = 2;
  config.batching.batch_size = 3;
  config.mbr_lifespan = sim::Duration::seconds(30);
  return config;
}

/// Four nodes on a StaticRing, hosted by a TestHost. With `drop_acks` the
/// deliver hook swallows every kResponseAck.
struct FourNodeRing {
  explicit FourNodeRing(const MiddlewareConfig& middleware)
      : config(middleware),
        strategy(IndexingStrategy::make(config.strategy, config.features,
                                        space)) {
    host.clock = &sim;
    for (NodeIndex i = 0; i < ring.num_nodes(); ++i) {
      nodes.emplace_back(i, ring, host, config, *strategy, metrics, rng);
    }
    ring.set_deliver([this](NodeIndex at, const routing::Message& msg) {
      if (!drop_acks || msg.kind != MsgKind::kResponseAck) {
        nodes[at].deliver(msg);
      }
    });
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + sim::Duration::seconds(seconds));
  }

  /// Hands `aggregator` a kNeighborExchange digest of one report of
  /// (query, stream) for `client`, keyed on `middle`.
  void deliver_digest(NodeIndex aggregator, QueryId query, StreamId stream,
                      NodeIndex client, Key middle) {
    routing::Message msg;
    msg.kind = MsgKind::kNeighborExchange;
    msg.payload = std::make_shared<const NeighborDigestPayload>(
        NeighborDigestPayload{{MatchReport{
            SimilarityMatch{query, stream, 0.0, sim.now()}, client, middle,
            sim.now() + sim::Duration::seconds(30)}}});
    nodes[aggregator].deliver(msg);
  }

  const common::IdSpace space{16};
  sim::Simulator sim;
  routing::StaticRing ring{sim, space, routing::hash_node_ids(4, space, 77)};
  const MiddlewareConfig config;
  const std::unique_ptr<IndexingStrategy> strategy;
  MetricsCollector metrics{ring.num_nodes()};
  common::Pcg32 rng{1, 1};
  TestHost host;
  std::deque<MiddlewareNode> nodes;
  bool drop_acks = false;
};

TEST(MiddlewareNode, BatchMeetsSubscriptionWithoutTheSimulatorHost) {
  FourNodeRing r(small_config());

  // An exponential stream's window shape is invariant under sliding, so
  // every batch is the point of these features; a query centered on them
  // has both its batch range and its middle key on one home node.
  std::vector<Sample> window(kWindow);
  double value = 1.0;
  for (Sample& x : window) {
    value *= 1.15;
    x = value;
  }
  const dsp::FeatureVector features =
      dsp::extract_features(window, r.config.features);
  const NodeIndex home =
      r.ring.find_successor_oracle(r.strategy->key_map().key_for(features));
  const NodeIndex source = home == 0 ? 1 : 0;
  const NodeIndex client = home == 2 ? 3 : 2;

  const QueryId query = 41;
  r.nodes[client].subscribe_similarity(
      std::make_shared<const SimilarityQuery>(SimilarityQuery{
          query, client, features, 0.05, sim::Duration::seconds(30),
          r.sim.now()}));
  const StreamId stream = 9;
  r.nodes[source].register_stream(stream);
  value = 1.0;
  for (std::size_t i = 0; i < kWindow + 8; ++i) {  // closes three batches
    value *= 1.15;
    r.nodes[source].post_stream_value(stream, value);
  }
  r.run_for(1.0);
  ASSERT_NE(r.nodes[home].store.find_subscription(query), nullptr);
  EXPECT_TRUE(r.host.matches.empty());

  // One NPER pass, then the response's trip back to the client.
  for (MiddlewareNode& node : r.nodes) {
    node.periodic_tick();
  }
  r.run_for(1.0);
  EXPECT_EQ(r.host.matches,
            (std::vector<std::pair<QueryId, StreamId>>{{query, stream}}));
  EXPECT_EQ(r.host.published,
            (std::vector<std::pair<StreamId, std::uint64_t>>{
                {stream, 0}, {stream, 1}, {stream, 2}}));
}

TEST(MiddlewareNode, DigestIsPushedOnArrival) {
  FourNodeRing r(small_config());
  const Key middle = 0x1234;
  const NodeIndex aggregator = r.ring.find_successor_oracle(middle);
  const NodeIndex client = (aggregator + 2) % 4;
  const QueryId query = 41;
  const StreamId stream = 9;
  r.deliver_digest(aggregator, query, stream, client, middle);
  r.run_for(1.0);  // no pass: the digest alone pushes
  EXPECT_EQ(r.host.matches,
            (std::vector<std::pair<QueryId, StreamId>>{{query, stream}}));
  EXPECT_EQ(r.host.responses.size(), 1u);

  for (MiddlewareNode& node : r.nodes) {
    node.periodic_tick();
  }
  r.run_for(1.0);
  EXPECT_EQ(r.host.responses.size(), 1u)
      << "a pass with nothing new sends nothing";
}

TEST(MiddlewareNode, UnackedPushRetransmitsOnItsOwnTimer) {
  MiddlewareConfig config = small_config();
  config.response_ack.enabled = true;
  FourNodeRing r(config);
  r.drop_acks = true;
  const RetryPolicy& policy = r.config.response_ack;
  const Key middle = 0x1234;
  const NodeIndex aggregator = r.ring.find_successor_oracle(middle);
  const QueryId query = 41;
  r.deliver_digest(aggregator, query, 9, (aggregator + 2) % 4, middle);
  r.run_for(10.0);  // no pass: every resend is the push's own timer

  const auto& responses = r.host.responses;
  ASSERT_EQ(responses.size(),
            1u + static_cast<std::size_t>(policy.max_attempts));
  for (std::size_t i = 1; i < responses.size(); ++i) {
    EXPECT_EQ((responses[i].first - responses[i - 1].first).count_micros(),
              policy.timeout.count_micros());
    EXPECT_EQ(responses[i].second, responses[0].second) << "sent verbatim";
  }
  EXPECT_EQ(r.metrics.robustness().response_retries,
            static_cast<std::uint64_t>(policy.max_attempts));
  const AggregatorRecord& record =
      r.nodes[aggregator].aggregations.find(query)->second;
  EXPECT_EQ(record.inflight.size(), 0u)
      << "a push whose budget is spent is forgotten";
}

}  // namespace
}  // namespace sdsi::core
