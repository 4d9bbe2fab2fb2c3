// The two reference executions of the sim-vs-socket equivalence gate.
//
// run_sim_reference: the canonical MiddlewareSystem on the simulated
// StaticRing (the exact code path every experiment in EXPERIMENTS.md runs).
// run_net_over_sim_transport: NetNode facades, each one MiddlewareNode over
// a TransportRing — what sdsi_node runs over real TCP — driven over
// SimTransport, i.e. the wire codec and transport seam exercised with none
// of the OS scheduling noise.
//
// Both consume the identical WorkloadConfig and reduce to the same digest:
// the per-query set of matched stream ids. The socket world (tools/net_equiv
// + tools/sdsi_node) compares its merged process outputs against
// run_sim_reference's digest; test_net_equivalence compares all of it
// in-process. Equivalence holds because the matched sets are
// timing-independent on a fault-free run with lifespans longer than the run
// (see docs/ARCHITECTURE.md, "Transport layer").
#pragma once

#include <map>
#include <set>

#include "net/workload.hpp"

namespace sdsi::net {

using MatchDigest = std::map<std::uint64_t, std::set<StreamId>>;

/// Runs the workload through the simulated middleware (StaticRing +
/// MiddlewareSystem, reliability layers off, lifespans >> run length) and
/// returns the per-query matched stream sets.
MatchDigest run_sim_reference(const WorkloadConfig& config);

/// Runs the workload through NetNodes over SimTransport and returns the
/// same digest shape.
MatchDigest run_net_over_sim_transport(const WorkloadConfig& config);

}  // namespace sdsi::net
