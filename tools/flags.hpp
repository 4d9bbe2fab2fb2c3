// Flag values of the command-line tools (sdsi_sim, net_equiv, sdsi_node):
// a number must parse whole and lie in the range the code needs, or the
// tool prints its usage and exits 2. A mistyped value never aborts a tool
// or runs another experiment than the one asked for. A value that becomes
// a sim::Duration is bounded here, at the command line, by the largest
// span sim::Duration holds in microseconds; the library takes any span
// that fits.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

namespace sdsi::tools {

/// Prints the tool's usage to stderr and exits 2; each tool defines it.
[[noreturn]] void usage_error(const char* argv0);

/// All of `text` as a finite double of at least `min` (by default, a
/// non-negative one).
inline double parse_double(const char* text, const char* argv0,
                           double min = 0.0) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < min) {
    usage_error(argv0);
  }
  return value;
}

/// All of `text` as an integer of at least `min` (by default, a
/// non-negative one).
inline long parse_long(const char* text, const char* argv0, long min = 0) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < min) {
    usage_error(argv0);
  }
  return value;
}

/// The largest double below 1: the bound of a fraction in [0, 1).
inline constexpr double kBelowOne = 1.0 - 0x1p-53;

/// The smallest double above 0: the `min` of a positive value.
inline constexpr double kAboveZero = 0x1p-1074;

/// 2^63, the first count of microseconds sim::Duration does not hold.
inline constexpr double kDurationLimitMicros = 0x1p63;

/// All of `text` as a non-negative count of seconds (of milliseconds, with
/// `per_second` 1000) whose sim::Duration::seconds conversion fits.
inline double parse_seconds(const char* text, const char* argv0,
                            double per_second = 1.0) {
  const double seconds = parse_double(text, argv0) / per_second;
  if (!(seconds * 1e6 < kDurationLimitMicros)) {
    usage_error(argv0);
  }
  return seconds;
}

/// All of `text` as a count of milliseconds of at least `min` whose
/// sim::Duration::millis conversion fits.
inline long parse_millis(const char* text, const char* argv0, long min) {
  const long millis = parse_long(text, argv0, min);
  if (millis > std::numeric_limits<std::int64_t>::max() / 1000) {
    usage_error(argv0);
  }
  return millis;
}

/// All of `text` as a positive Poisson rate (events per second) whose
/// longest Pcg32::exponential gap still converts to a sim::Duration:
/// 1 - uniform01() is at least 2^-53, so no gap exceeds -log(2^-53) / rate.
inline double parse_rate(const char* text, const char* argv0) {
  const double rate = parse_double(text, argv0, kAboveZero);
  if (!(-std::log(0x1p-53) / rate * 1e6 < kDurationLimitMicros)) {
    usage_error(argv0);
  }
  return rate;
}

/// All of `text` as a probability in [0, max].
inline double parse_probability(const char* text, const char* argv0,
                                double max = 1.0) {
  const double value = parse_double(text, argv0);
  if (value > max) {
    usage_error(argv0);
  }
  return value;
}

/// All of `text` as the stationary loss rate of the tools' Gilbert-Elliott
/// chain (mean burst length 4, so p_bad_to_good 0.25): a rate whose
/// p_good_to_bad, 0.25 * rate / (1 - rate), is still a probability.
inline double parse_burst_loss(const char* text, const char* argv0) {
  const double rate = parse_probability(text, argv0);
  if (!(0.25 * rate / (1.0 - rate) <= 1.0)) {
    usage_error(argv0);
  }
  return rate;
}

}  // namespace sdsi::tools
