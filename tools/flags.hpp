// Flag values of the command-line tools (sdsi_sim, net_equiv, sdsi_node):
// a number must parse whole, and a probability must lie in the range the
// code needs, or the tool prints its usage and exits 2. A mistyped value
// never aborts a tool or runs another experiment than the one asked for.
#pragma once

#include <cstdlib>

namespace sdsi::tools {

/// Prints the tool's usage to stderr and exits 2; each tool defines it.
[[noreturn]] void usage_error(const char* argv0);

/// All of `text` as a double.
inline double parse_double(const char* text, const char* argv0) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    usage_error(argv0);
  }
  return value;
}

/// All of `text` as a non-negative integer.
inline long parse_long(const char* text, const char* argv0) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) {
    usage_error(argv0);
  }
  return value;
}

/// The largest double below 1: the bound of a fraction in [0, 1).
inline constexpr double kBelowOne = 1.0 - 0x1p-53;

/// All of `text` as a probability in [0, max].
inline double parse_probability(const char* text, const char* argv0,
                                double max = 1.0) {
  const double value = parse_double(text, argv0);
  if (!(value >= 0.0 && value <= max)) {
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
