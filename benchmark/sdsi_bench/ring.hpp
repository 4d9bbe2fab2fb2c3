// The socket-ring workloads: eight NetNodes over loopback TCP in one
// process, driven by an open-loop generator on the same thread.
#pragma once

#include <string>

#include "report.hpp"

namespace sdsi::bench {

bool is_ring_workload(const std::string& name);

/// Runs one ring workload (an untraced pass, plus a traced pass and the
/// stage replay when options.trace is set) and checks its outputs.
RunReport run_ring(const std::string& workload, const BenchOptions& options);

}  // namespace sdsi::bench
