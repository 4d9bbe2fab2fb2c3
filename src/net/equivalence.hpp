// The reference execution of the sim-vs-socket equivalence gate.
//
// run_sim_reference runs the canonical MiddlewareSystem on the simulated
// StaticRing (the exact code path every experiment in EXPERIMENTS.md runs)
// and reduces it to a RunDigest: per similarity query the matched stream
// ids, and per inner-product query its answer. The other two legs reduce
// to the same digest and must equal it exactly: the in-process NetNode ring
// over SimTransport (tests/net_ring.hpp) and the socket ring of
// tools/net_equiv + tools/sdsi_node over TCP. Equivalence holds because
// both are timing-independent on a fault-free run with lifespans longer
// than the run: the matched sets are, and every inner-product answer is
// computed after the last sample (see docs/ARCHITECTURE.md, "Equivalence
// gate").
#pragma once

#include <iosfwd>
#include <map>
#include <set>

#include "core/query.hpp"
#include "net/workload.hpp"

namespace sdsi::net {

/// What one run of the workload answered.
struct RunDigest {
  /// Per similarity query, the matched stream ids.
  std::map<core::QueryId, std::set<StreamId>> matches;
  /// Per inner-product query, the latest answer (absent if none arrived).
  std::map<core::QueryId, double> inner;

  bool operator==(const RunDigest&) const = default;
};

/// gtest's printer for RunDigest: each query's stream set, then each
/// inner-product answer.
void PrintTo(const RunDigest& digest, std::ostream* out);

/// Runs the workload through the simulated middleware (StaticRing +
/// MiddlewareSystem, reliability layers off, lifespans >> run length).
RunDigest run_sim_reference(const WorkloadConfig& config);

}  // namespace sdsi::net
