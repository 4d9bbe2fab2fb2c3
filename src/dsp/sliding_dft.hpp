// Incremental sliding-window DFT (paper Eq. 5, after Goldin & Kanellakis).
//
// Maintains the first `k` unitary DFT coefficients of the most recent
// window of N samples in O(k) per arriving data point:
//
//   X'_F = e^{i 2π F / N} * ( X_F + (x_new - x_old) / sqrt(N) )
//
// This is what makes per-item processing constant-time instead of the
// prohibitive O(N log N) recompute-from-scratch the paper warns about.
//
// Hot-path notes: the 1/sqrt(N) scale and the ring wrap are hoisted out of
// push(); recompute_exact() runs off a precomputed N-entry twiddle table
// instead of a cos/sin pair per (F, j) term.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "dsp/dft.hpp"

namespace sdsi::dsp {

class SlidingDft {
 public:
  /// Tracks coefficients 0..k-1 of a window of `window_size` samples.
  SlidingDft(std::size_t window_size, std::size_t num_coefficients);

  std::size_t window_size() const noexcept { return window_size_; }
  std::size_t num_coefficients() const noexcept { return coeffs_.size(); }

  /// Number of samples pushed so far (saturates semantics: full() once
  /// >= window_size).
  std::uint64_t samples_seen() const noexcept { return seen_; }
  bool full() const noexcept { return seen_ >= window_size_; }

  /// Feeds one sample and returns the evicted one (0 while the window is
  /// still filling, because the pre-fill window is treated as zero-padded).
  /// Until the window fills, coefficients are built up incrementally over
  /// the zero-padded prefix; once full, each push is the Eq. 5
  /// rotation-and-correct update.
  Sample push(Sample value);

  /// Current coefficients 0..k-1 of the window's unitary DFT. Only
  /// meaningful once full().
  std::span<const Complex> coefficients() const noexcept { return coeffs_; }

  /// Copy of the current window in arrival order (oldest first). O(N).
  std::vector<Sample> window() const;

  /// Recomputes all k coefficients from the stored window with the naive
  /// DFT — used by tests to bound incremental drift, and callable by
  /// long-running deployments to re-anchor floating-point error.
  void recompute_exact();

 private:
  std::size_t window_size_;
  double inv_sqrt_n_;                // hoisted 1/sqrt(N) push scale
  std::uint64_t seen_ = 0;
  std::vector<Complex> coeffs_;      // running X_F for F in [0, k)
  std::vector<Complex> twiddles_;    // e^{i 2π F / N}
  std::vector<Complex> exact_table_; // e^{-i 2π j / N}, lazily built
  std::vector<Sample> ring_;         // circular buffer of the window
  std::size_t head_ = 0;             // index of the oldest sample
};

}  // namespace sdsi::dsp
