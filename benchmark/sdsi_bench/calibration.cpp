#include "calibration.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <numeric>
#include <utility>

#include "common/rng.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace sdsi::bench {
namespace {

constexpr std::uint32_t kChaseEntries = 1u << 22;  // 16 MB of u32
constexpr int kChaseSteps = 12'000;
constexpr int kSocketPairs = 300;

}  // namespace

Calibrator::Calibrator() : next_(kChaseEntries) {
  std::vector<std::uint32_t> order(kChaseEntries);
  std::iota(order.begin(), order.end(), 0u);
  common::Pcg32 rng(0xca1, 0xb8);
  for (std::uint32_t i = kChaseEntries - 1; i > 0; --i) {
    std::swap(order[i], order[rng.bounded(i + 1)]);
  }
  for (std::uint32_t i = 0; i < kChaseEntries; ++i) {
    next_[order[i]] = order[(i + 1) % kChaseEntries];
  }
}

double Calibrator::run_ms() {
  const double start = process_cpu_seconds();
  for (int i = 0; i < kChaseSteps; ++i) {
    at_ = next_[at_];
  }
  return (process_cpu_seconds() - start) * 1e3;
}

double syscall_kernel_ms() {
  const std::int64_t start = mono_ns();
  for (int i = 0; i < kSocketPairs; ++i) {
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
      close(fds[0]);
      close(fds[1]);
    }
  }
  return static_cast<double>(mono_ns() - start) / 1e6;
}

}  // namespace sdsi::bench
