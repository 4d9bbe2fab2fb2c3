#include "core/resend.hpp"

#include <algorithm>

namespace sdsi::core {

sim::Duration RetryPolicy::delay(int attempts, common::Pcg32& rng) const {
  const std::int64_t cap = max_backoff.count_micros();
  std::int64_t wait = timeout.count_micros();
  for (int i = 0; i < attempts && wait < cap; ++i) {
    wait *= 2;
  }
  wait = std::min(wait, cap);
  const std::int64_t jitter_span = jitter.count_micros();
  if (jitter_span > 0) {
    wait += rng.uniform_int(0, jitter_span - 1);
  }
  return sim::Duration::micros(wait);
}

}  // namespace sdsi::core
