// ECM-sketch: sliding-window frequency estimation for distributed streams
// (Papapetrou, Garofalakis, Deligiannakis — "Sketch-based Querying of
// Distributed Sliding-Window Data Streams", PAPERS.md).
//
// The structure is a Count-Min array whose counters are exponential
// histograms (Datar et al.) instead of plain integers: each cell answers
// "how many of the last W arrivals hashed here", so the whole sketch
// answers per-item sliding-window counts with
//
//   count-based window error:  EH relative error <= 1/(2k) per cell
//   hash-collision error:      CM overestimate, bounded by e/width * W
//                              per row w.h.p.; the min over depth rows is
//                              what the sketch reports.
//
// EcmStreamSummarizer builds the middleware's per-stream summary on top:
// samples are z-scaled by running stream statistics, quantized into `bins`
// value bins, counted by the sketch, and the feature vector is the unit-L2
// sqrt-frequency (Hellinger) embedding of the estimated window histogram —
// every coordinate in [0, 1], so the Eq. 6 content-to-key map and the MBR
// index apply unchanged. docs/STRATEGIES.md has the design sheet.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "dsp/features.hpp"
#include "streams/summarizer.hpp"

namespace sdsi::streams {

/// Exponential histogram over a count-based sliding window: counts how many
/// of the last `window` arrivals were recorded, with relative error bounded
/// by the merge threshold k (at most k+1 buckets per size; the only
/// uncertainty is the half-open oldest bucket).
class ExpHistogram {
 public:
  explicit ExpHistogram(std::size_t k) : k_(k) { SDSI_CHECK(k >= 1); }

  /// Records one arrival at time `t` (a monotone arrival index).
  void add(std::uint64_t t);

  /// Estimated arrivals in the window (t - window, t]. Const: expired
  /// buckets are skipped here and physically pruned on the next add().
  std::uint64_t estimate(std::uint64_t t, std::uint64_t window) const;

  /// Exact upper/lower envelope of the estimate: the true count always lies
  /// in [estimate - oldest/2, estimate + oldest/2] for the surviving oldest
  /// bucket (the EH guarantee the error-bound tests pin).
  std::uint64_t oldest_surviving_size(std::uint64_t t,
                                      std::uint64_t window) const;

  std::size_t bucket_count() const noexcept { return buckets_.size(); }

 private:
  struct Bucket {
    std::uint64_t time = 0;  // newest arrival the bucket covers
    std::uint64_t size = 0;  // power of two
  };

  std::size_t k_;
  std::vector<Bucket> buckets_;  // oldest first
};

/// Count-Min of exponential histograms over item levels in [0, levels).
class EcmSketch {
 public:
  struct Options {
    std::size_t window = 256;  // sliding window W (arrival count)
    std::size_t width = 32;    // CM cells per row
    std::size_t depth = 3;     // CM rows (estimate = min over rows)
    std::size_t eh_k = 8;      // EH merge threshold
    std::uint64_t seed = 0xec5eedULL;
  };

  explicit EcmSketch(Options options);

  /// Records one arrival of `level` at arrival index `t`.
  void add(std::uint64_t level, std::uint64_t t);

  /// Estimated number of arrivals of `level` in (t - window, t].
  std::uint64_t estimate(std::uint64_t level, std::uint64_t t) const;

 private:
  std::size_t cell_of(std::size_t row, std::uint64_t level) const noexcept;

  Options options_;
  std::vector<std::uint64_t> row_salt_;
  std::vector<ExpHistogram> cells_;  // depth x width, row-major
};

/// The ECM strategy's per-stream summarizer. Keeps the exact raw ring
/// alongside the sketch: the ring answers local inner-product queries and
/// the window statistics; the *sketch* is what the routed features are
/// computed from. The ecm strategy runs the Options defaults over the
/// run's feature window.
class EcmStreamSummarizer final : public Summarizer {
 public:
  struct Options {
    std::size_t window = 256;
    std::size_t bins = 8;   // feature dims; even (packed 2 per complex)
    double z_span = 3.0;    // quantization domain: z in [-z_span, z_span]
    std::size_t width = 32;
    std::size_t depth = 3;
    std::size_t eh_k = 8;
    std::uint64_t seed = 0xec5eedULL;
  };

  explicit EcmStreamSummarizer(Options options);

  void push(Sample value) override;
  void push_span(std::span<const Sample> values) {
    for (const Sample value : values) {
      push(value);
    }
  }

  bool ready() const noexcept override { return seen_ >= options_.window; }
  std::uint64_t samples_seen() const noexcept override { return seen_; }

  /// Unit-L2 sqrt-frequency embedding of the estimated window histogram,
  /// `bins/2` complex coordinates. Coordinate 0 (the routing coordinate) is
  /// the central bin's mass — the one that varies most across windows.
  /// False until ready() or if the estimated histogram is empty.
  bool features_into(dsp::FeatureVector& out) const override;

  /// Exact raw window, oldest first (inner-product answering).
  void copy_window(std::vector<Sample>& out) const;

  /// The exact ring, not a reconstruction: the sketch is what gets routed,
  /// but the source node still holds every sample of its window.
  bool approx_window(std::vector<Sample>& out) const override {
    if (!ready()) {
      return false;
    }
    copy_window(out);
    return true;
  }

  /// The bin a sample quantizes into right now (running z-scaling).
  std::size_t bin_of(Sample value) const noexcept;

 private:
  Options options_;
  EcmSketch sketch_;
  std::vector<Sample> ring_;
  std::uint64_t seen_ = 0;
  // Welford running statistics over ALL samples seen (not just the window):
  // a slowly-adapting scale, so quantization of past arrivals stays
  // approximately consistent with the current binning.
  double run_mean_ = 0.0;
  double run_m2_ = 0.0;
};

}  // namespace sdsi::streams
