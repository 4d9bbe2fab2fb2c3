// The simulator workload: core::Experiment running the paper's Table I
// workload on a 1000-node Chord ring.
#pragma once

#include "report.hpp"

namespace sdsi::bench {

inline constexpr const char* kSimWorkload = "sim-chord";

/// Runs the simulation (an untraced pass, plus a traced pass when
/// options.trace is set, which must reproduce the untraced quality digest).
RunReport run_sim(const BenchOptions& options);

}  // namespace sdsi::bench
