// Minimum Bounding Rectangles over the feature space (paper Sec IV-G).
//
// Consecutive feature vectors of one stream are strongly correlated (Fourier
// locality, Fig 3b), so every beta of them is batched into one MBR and the
// MBR is routed/replicated instead of individual vectors. An MBR lives in the
// 2k-dimensional real space of (re, im) coordinates.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "dsp/features.hpp"

namespace sdsi::dsp {

class Mbr {
 public:
  Mbr() = default;

  /// Degenerate box around a single feature vector.
  explicit Mbr(const FeatureVector& point);

  /// Box from explicit corners (low_i <= high_i for all i).
  Mbr(std::vector<double> low, std::vector<double> high);

  bool empty() const noexcept { return low_.empty(); }
  std::size_t dimensions() const noexcept { return low_.size(); }

  std::span<const double> low() const noexcept { return low_; }
  std::span<const double> high() const noexcept { return high_; }

  /// Grows the box to cover `point`.
  void extend(const FeatureVector& point);
  void extend(const Mbr& other);

  /// Pads every side by `margin` >= 0 (adaptive-precision extension,
  /// Sec VI-A trades update rate for box size).
  void inflate(double margin);

  bool contains(const FeatureVector& point) const noexcept;

  /// Minimum feature-space distance from `point` to the box (0 inside).
  /// Because the box bounds true feature vectors and feature distance
  /// lower-bounds window distance, min_distance > r safely prunes.
  double min_distance(const FeatureVector& point) const noexcept;

  /// Whether a similarity ball (center `point`, radius `radius`) can contain
  /// any vector inside the box.
  bool intersects_ball(const FeatureVector& point,
                       double radius) const noexcept {
    return min_distance(point) <= radius;
  }

  /// The routing interval on the first retained coordinate
  /// [low_1re, high_1re]: the key map places the MBR by this interval (the
  /// stub of its Eq. 6 image, core/mapper.hpp).
  double routing_low() const noexcept {
    SDSI_DCHECK(!empty());
    return low_.front();
  }
  double routing_high() const noexcept {
    SDSI_DCHECK(!empty());
    return high_.front();
  }

  /// Center point (as a flat real vector).
  std::vector<double> center() const;

  /// Sum of side lengths (the margin, an R*-tree-style size measure used by
  /// the adaptive batching ablation).
  double margin() const noexcept;

  /// Product of side lengths.
  double volume() const noexcept;

  friend bool operator==(const Mbr&, const Mbr&) = default;

 private:
  std::vector<double> low_;
  std::vector<double> high_;
};

/// Builds the tight MBR of a batch of feature vectors.
Mbr bounding_box(std::span<const FeatureVector> points);

}  // namespace sdsi::dsp
