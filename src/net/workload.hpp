// The shared deterministic workload of the sim-vs-socket equivalence gate.
//
// Both worlds — the MiddlewareSystem running on the simulated ring and the
// NetNode processes running over a real Transport — consume THIS workload:
// the same raw samples into the same stream ids, the same raw query windows
// and inner-product queries posed from the same nodes in the same order.
// Every derived quantity (features, MBRs, key ranges, match sets, inner
// products) is then a pure function of code that both sides share, which is
// what makes "identical matched (stream, query) sets and answers" a
// meaningful end-to-end check of the wire protocol and transports rather
// than a tautology.
//
// Determinism contract: everything is derived from (seed, node count) via
// named Pcg32 child streams. No global state, no clocks.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/strategy.hpp"
#include "dsp/features.hpp"

namespace sdsi::net {

struct WorkloadConfig {
  std::uint32_t nodes = 8;
  std::uint64_t seed = 42;
  /// Ring geometry — every process (and the sim reference) derives the
  /// identical ring from these via routing::hash_node_ids.
  unsigned id_bits = 16;
  std::uint64_t ring_salt = 77;
  /// Raw samples fed into each node's local stream. With the default
  /// window 32 and batch size 5, 400 samples close ~70 MBR batches.
  std::uint32_t samples_per_stream = 400;
  /// Streams (and one query) per node.
  std::uint32_t streams_per_node = 1;
  double query_radius = 0.35;
  dsp::FeatureConfig features;
  /// Indexing strategy both worlds run (core/strategy.hpp). The gate is
  /// strategy-generic: sim and socket share the strategy code, so equal
  /// digests check the wire/transport layers for every strategy.
  core::StrategyKind strategy = core::StrategyKind::kDft;
};

/// One continuous similarity query of the workload. `id` is the globally
/// unique query id both worlds must use (the sim middleware hands out
/// sequential ids starting at 1 in subscription order, so the workload
/// enumerates queries in exactly that node-major order).
struct WorkloadQuery {
  std::uint64_t id = 0;
  NodeIndex client = kInvalidNode;
  /// Raw window; each side extracts features itself with config.features so
  /// any drift in the DSP path is caught by the equivalence gate too.
  std::vector<Sample> window;
  double radius = 0.0;
};

/// The stream id sourced by node `node`, slot `slot` (ids start at 1; 0 is
/// reserved as "no stream").
StreamId workload_stream_id(const WorkloadConfig& config, NodeIndex node,
                            std::uint32_t slot);

/// The full sample sequence of one stream: a per-stream random sinusoid
/// plus white noise, from the child rng ("stream", sid) of config.seed.
std::vector<Sample> workload_samples(const WorkloadConfig& config,
                                     StreamId stream);

/// All queries, in the node-major order both worlds must subscribe in.
/// Query i targets the window of a workload stream chosen round-robin, so
/// matches are guaranteed non-empty (each query ball contains at least the
/// summaries of its target stream's neighborhood).
std::vector<WorkloadQuery> workload_queries(const WorkloadConfig& config);

/// One continuous inner-product query of the workload (Sec IV-D): node
/// `client` asks for the moving average of the newest quarter-window of
/// slot 0 of the node two along the ring. Its source is not named: the h2
/// location service resolves it, so the stream must be registered first.
struct WorkloadInnerQuery {
  std::uint64_t id = 0;
  NodeIndex client = kInvalidNode;
  StreamId stream = 0;
  std::vector<double> index;
  std::vector<double> weights;
};

/// One inner-product query per node, in node order, with ids following the
/// similarity queries' (the sim middleware's sequential ids when posed after
/// them).
std::vector<WorkloadInnerQuery> workload_inner_queries(
    const WorkloadConfig& config);

}  // namespace sdsi::net
