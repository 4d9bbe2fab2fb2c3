// Host-speed calibration for time metrics.
//
// The benchmark shares its host with other tenants, and what they do to the
// shared last-level cache and memory moves the CPU time of identical work by
// 10-20% from one run to the next. A benchmark-owned kernel — a dependent
// random walk over a 16 MB array, so it waits on the same cache and memory
// the system does — is timed between slices of a run. Dividing a slice's CPU
// time by the kernel's and multiplying by the kernel's reference cost
// expresses the slice in CPU time of a host at reference speed. No change to
// the system under test moves the kernel, short of growing its memory
// footprint past the last-level cache (which peak_rss_mb reports).
//
// Set-up is mostly kernel work (sockets and loopback connects on the ring,
// page faults of a fresh heap in the simulator) and drifts with the host's
// kernel path instead; a second kernel of socketpair() + close() calls
// calibrates it the same way.
#pragma once

#include <cstdint>
#include <vector>

namespace sdsi::bench {

class Calibrator {
 public:
  /// Kernel CPU time at reference speed (its typical cost between slices on
  /// the 4-vCPU Xeon host the benchmark was defined on).
  static constexpr double kReferenceMs = 1.8;

  Calibrator();

  /// Runs the kernel once and returns its CPU time in ms.
  double run_ms();

 private:
  std::vector<std::uint32_t> next_;  // one random cycle over the array
  std::uint32_t at_ = 0;
};

/// Wall time of 300 socketpair() + close() rounds, in ms.
double syscall_kernel_ms();
/// Its wall time at reference speed.
inline constexpr double kSyscallReferenceMs = 1.7;

/// Accumulates kernel runs and converts CPU time at the current host speed
/// into CPU time at reference speed.
struct CalibrationWindow {
  double kernel_ms = 0.0;
  int runs = 0;

  void add(double ms) {
    kernel_ms += ms;
    ++runs;
  }
  /// Reference-speed factor; 1 when nothing was measured.
  double factor() const {
    return runs == 0 ? 1.0 : Calibrator::kReferenceMs * runs / kernel_ms;
  }
  void clear() { *this = CalibrationWindow{}; }
};

}  // namespace sdsi::bench
