// Per-stream summaries: the Summarizer interface every indexing strategy's
// summary implements (core/strategy.hpp), and the paper's instance,
// StreamSummarizer: raw samples in, normalized feature vectors out, O(k) per
// sample.
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
#include <vector>

#include "dsp/features.hpp"
#include "dsp/sliding_dft.hpp"

namespace sdsi::streams {

/// Per-stream incremental summary; one instance is owned by exactly one
/// stream and never shared across threads.
class Summarizer {
 public:
  virtual ~Summarizer() = default;

  virtual void push(Sample value) = 0;

  /// True once a full window has been observed.
  virtual bool ready() const noexcept = 0;
  virtual std::uint64_t samples_seen() const noexcept = 0;

  /// Current feature vector into `out` (reusing capacity); false until
  /// ready() or when the window is degenerate. `out` unchanged on false.
  virtual bool features_into(dsp::FeatureVector& out) const = 0;

  /// Approximate raw window (oldest first, raw data scale) for local
  /// inner-product answering (paper Eq. 7); false when not ready.
  virtual bool approx_window(std::vector<Sample>& out) const = 0;
};

class StreamSummarizer final : public Summarizer {
 public:
  explicit StreamSummarizer(dsp::FeatureConfig config);

  /// Feeds one raw sample.
  void push(Sample value) override;

  bool ready() const noexcept override { return dft_.full(); }

  std::uint64_t samples_seen() const noexcept override {
    return dft_.samples_seen();
  }

  /// Current normalized feature vector; nullopt until ready() or when the
  /// window is degenerate (constant for znorm / all-zero for unit norm),
  /// in which case it has no well-defined direction on the unit sphere.
  std::optional<dsp::FeatureVector> features() const;

  /// Allocation-free variant for per-tick hot paths: overwrites `out` in
  /// place (reusing its capacity) and returns true, or returns false in
  /// exactly the cases features() returns nullopt. `out` is unchanged on
  /// false.
  bool features_into(dsp::FeatureVector& out) const override;

  /// Eq. 7: the window rebuilt from the synopsis, with the normalization
  /// undone (this node knows the window mean and norm).
  bool approx_window(std::vector<Sample>& out) const override;

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
