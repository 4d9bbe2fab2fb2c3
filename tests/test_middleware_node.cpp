// MiddlewareNode hosted without MiddlewareSystem: a node's whole outside
// world is a RoutingSystem, a MetricsCollector and the three-method
// NodeHost, so a handful of nodes on a StaticRing plus a test host run the
// Sec IV pipeline end to end.
#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "core/node.hpp"
#include "dsp/features.hpp"
#include "routing/static_ring.hpp"

namespace sdsi::core {
namespace {

constexpr std::size_t kWindow = 16;

struct TestHost final : NodeHost {
  const std::deque<MiddlewareNode>* nodes = nullptr;
  std::vector<std::pair<StreamId, std::uint64_t>> published;
  std::vector<std::pair<QueryId, StreamId>> matches;

  void on_publish(const MbrPayload& payload) override {
    published.emplace_back(payload.stream, payload.batch_seq);
  }
  void on_response(const ResponsePayload& response) override {
    for (const SimilarityMatch& match : response.matches) {
      matches.emplace_back(response.query, match.stream);
    }
  }
  const std::vector<NodeIndex>* split_delegates(
      NodeIndex node) const override {
    return node < nodes->size() ? &(*nodes)[node].overload.split_delegates
                                : nullptr;
  }
};

TEST(MiddlewareNode, BatchMeetsSubscriptionWithoutTheSimulatorHost) {
  const common::IdSpace space(16);
  sim::Simulator sim;
  routing::StaticRing ring(sim, space, routing::hash_node_ids(4, space, 77));
  MiddlewareConfig config;
  config.features.window_size = kWindow;
  config.features.num_coefficients = 2;
  config.batching.batch_size = 3;
  config.mbr_lifespan = sim::Duration::seconds(30);
  const std::unique_ptr<IndexingStrategy> strategy =
      IndexingStrategy::make(config.strategy, config.features, space);
  const SummaryMapper mapper(space);
  MetricsCollector metrics(ring.num_nodes());
  common::Pcg32 rng(1, 1);
  TestHost host;
  std::deque<MiddlewareNode> nodes;
  host.nodes = &nodes;
  for (NodeIndex i = 0; i < ring.num_nodes(); ++i) {
    nodes.emplace_back(i, ring, host, config, *strategy, mapper, metrics,
                       rng);
  }
  ring.set_deliver([&nodes](NodeIndex at, const routing::Message& msg) {
    nodes[at].deliver(msg);
  });

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
      dsp::extract_features(window, config.features);
  const NodeIndex home =
      ring.find_successor_oracle(mapper.key_for(features));
  const NodeIndex source = home == 0 ? 1 : 0;
  const NodeIndex client = home == 2 ? 3 : 2;

  const QueryId query = 41;
  nodes[client].subscribe_similarity(
      std::make_shared<const SimilarityQuery>(SimilarityQuery{
          query, client, features, 0.05, sim::Duration::seconds(30),
          sim.now()}));
  const StreamId stream = 9;
  nodes[source].register_stream(stream);
  value = 1.0;
  for (std::size_t i = 0; i < kWindow + 8; ++i) {  // closes three batches
    value *= 1.15;
    nodes[source].post_stream_value(stream, value);
  }
  sim.run_until(sim.now() + sim::Duration::seconds(1));
  ASSERT_NE(nodes[home].store.find_subscription(query), nullptr);
  EXPECT_TRUE(host.matches.empty());

  // One NPER pass, then the response's trip back to the client.
  for (MiddlewareNode& node : nodes) {
    node.periodic_tick();
  }
  sim.run_until(sim.now() + sim::Duration::seconds(1));
  EXPECT_EQ(host.matches,
            (std::vector<std::pair<QueryId, StreamId>>{{query, stream}}));
  EXPECT_EQ(host.published,
            (std::vector<std::pair<StreamId, std::uint64_t>>{
                {stream, 0}, {stream, 1}, {stream, 2}}));
}

}  // namespace
}  // namespace sdsi::core
