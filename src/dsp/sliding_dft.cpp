#include "dsp/sliding_dft.hpp"

#include <cmath>
#include <numbers>

namespace sdsi::dsp {

SlidingDft::SlidingDft(std::size_t window_size, std::size_t num_coefficients)
    : window_size_(window_size),
      inv_sqrt_n_(1.0 / std::sqrt(static_cast<double>(window_size))),
      coeffs_(num_coefficients, Complex{0.0, 0.0}),
      ring_(window_size, 0.0) {
  SDSI_CHECK(window_size > 0);
  SDSI_CHECK(num_coefficients > 0 && num_coefficients <= window_size);
  twiddles_.reserve(num_coefficients);
  for (std::size_t f = 0; f < num_coefficients; ++f) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(f) /
                         static_cast<double>(window_size);
    twiddles_.emplace_back(std::cos(angle), std::sin(angle));
  }
}

Sample SlidingDft::push(Sample value) {
  const Sample evicted = ring_[head_];
  ring_[head_] = value;
  if (++head_ == window_size_) {  // branch-wrap beats the % of the old path
    head_ = 0;
  }
  ++seen_;

  // Treating the pre-fill window as zero-padded makes the same update rule
  // valid from the first sample: evicted is 0 until the buffer wraps.
  const Complex delta{(value - evicted) * inv_sqrt_n_, 0.0};
  for (std::size_t f = 0; f < coeffs_.size(); ++f) {
    coeffs_[f] = twiddles_[f] * (coeffs_[f] + delta);
  }
  return evicted;
}

std::vector<Sample> SlidingDft::window() const {
  std::vector<Sample> out;
  out.reserve(window_size_);
  // Two contiguous copies instead of a %-indexed loop.
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

void SlidingDft::recompute_exact() {
  // Only the tracked coefficients are rebuilt: O(N k), not a full O(N^2)
  // transform — re-anchoring is on the hot path (amortized per push).
  if (exact_table_.empty()) {
    exact_table_.reserve(window_size_);
    for (std::size_t j = 0; j < window_size_; ++j) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(j) /
                           static_cast<double>(window_size_);
      exact_table_.emplace_back(std::cos(angle), std::sin(angle));
    }
  }
  const std::vector<Sample> win = window();
  for (std::size_t f = 0; f < coeffs_.size(); ++f) {
    Complex acc{0.0, 0.0};
    std::size_t idx = 0;  // (f * j) mod N, advanced incrementally
    for (std::size_t j = 0; j < window_size_; ++j) {
      acc += win[j] * exact_table_[idx];
      idx += f;
      if (idx >= window_size_) {
        idx -= window_size_;
      }
    }
    coeffs_[f] = acc * inv_sqrt_n_;
  }
}

}  // namespace sdsi::dsp
