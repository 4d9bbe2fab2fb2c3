// Per-stream incremental summarizer: raw samples in, normalized feature
// vectors out, O(k) per sample.
//
// Normalization (Eqs. 1-2) conceptually happens before the DFT, but
// recomputing a normalized window per arrival would cost O(N). Linearity of
// the DFT saves us (the StatStream identity): for F >= 1, the coefficients
// of the mean-centered window equal those of the raw window, so
//
//   znorm:  X̂_F = X_F(raw) / ||x - mean||    (F >= 1)
//   unit:   X̂_F = X_F(raw) / ||x||           (all F)
//
// and both denominators are maintainable from running window sums. So one
// SlidingDft over raw samples plus two running sums produce exactly the
// features of Sec III-C incrementally.
#pragma once

#include <cstdint>
#include <optional>

#include "dsp/features.hpp"
#include "dsp/sliding_dft.hpp"

namespace sdsi::streams {

class StreamSummarizer {
 public:
  explicit StreamSummarizer(dsp::FeatureConfig config);

  const dsp::FeatureConfig& config() const noexcept { return config_; }

  /// Feeds one raw sample.
  void push(Sample value);

  /// True once a full window has been observed.
  bool ready() const noexcept { return dft_.full(); }

  std::uint64_t samples_seen() const noexcept { return dft_.samples_seen(); }

  /// Current normalized feature vector; nullopt until ready() or when the
  /// window is degenerate (constant for znorm / all-zero for unit norm),
  /// in which case it has no well-defined direction on the unit sphere.
  std::optional<dsp::FeatureVector> features() const;

  /// Allocation-free variant for per-tick hot paths: overwrites `out` in
  /// place (reusing its capacity) and returns true, or returns false in
  /// exactly the cases features() returns nullopt. `out` is unchanged on
  /// false.
  bool features_into(dsp::FeatureVector& out) const;

  /// Mean of the current raw window.
  double window_mean() const noexcept;

  /// L2 norm of the (centered, for znorm) raw window — the normalization
  /// denominator.
  double normalization_denominator() const noexcept;

  /// Copy of the raw window (oldest first).
  std::vector<Sample> raw_window() const { return dft_.window(); }

  /// How many samples between exact re-anchorings of the incremental state
  /// (floating-point drift control). 0 disables.
  void set_reanchor_interval(std::uint64_t interval) noexcept {
    reanchor_interval_ = interval;
  }

 private:
  void reanchor();

  dsp::FeatureConfig config_;
  dsp::SlidingDft dft_;
  double window_sum_ = 0.0;
  double window_sum_sq_ = 0.0;
  std::uint64_t reanchor_interval_ = 8192;
};

}  // namespace sdsi::streams
