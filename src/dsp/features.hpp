// Feature extraction: a stream window -> a point in the k-dimensional unit
// feature space (paper Sec III-C), plus the lower-bounding distance (Eq. 9)
// and the truncated inverse reconstruction (Eq. 7).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "dsp/dft.hpp"
#include "dsp/normalize.hpp"

namespace sdsi::dsp {

/// How windows are summarized into feature vectors.
struct FeatureConfig {
  /// Sliding window length N (paper: "the most recent w values").
  std::size_t window_size = 32;

  /// Number of retained coefficients k. "For most real time series the
  /// first few coefficients retain most of the energy."
  std::size_t num_coefficients = 2;

  /// Eq. 1 (correlation queries) vs Eq. 2 (subsequence queries).
  Normalization normalization = Normalization::kZNormalize;

  /// First retained coefficient index. With z-normalization the DC
  /// coefficient X_0 is identically 0 and carries no information, so
  /// retention starts at F=1; with unit normalization it starts at F=0
  /// (the paper keys on "the real component of X_1, or of X_0 if the
  /// streams are z-normalized to have mean 0" — i.e. the first
  /// informative coefficient).
  std::size_t first_coefficient() const noexcept {
    return normalization == Normalization::kZNormalize ? 1 : 0;
  }

  /// Retained coefficients must stay within [0, N/2]: a real window has
  /// X_{N-F} = conj(X_F), so a coefficient past N/2 mirrors one below it and
  /// carries nothing new, while reconstruct() would count the pair twice
  /// (Rafiei & Mendelzon).
  bool valid() const noexcept {
    return window_size >= 2 && num_coefficients >= 1 &&
           first_coefficient() + num_coefficients <= window_size / 2 + 1;
  }
  void validate() const { SDSI_CHECK(valid()); }
};

/// A point in the feature space: the retained DFT coefficients of one
/// normalized window. Because the window is on the unit hyper-sphere and the
/// DFT is unitary, every coordinate lies in [-1, 1].
class FeatureVector {
 public:
  FeatureVector() = default;
  explicit FeatureVector(std::vector<Complex> coefficients)
      : coeffs_(std::move(coefficients)) {}

  std::size_t size() const noexcept { return coeffs_.size(); }
  bool empty() const noexcept { return coeffs_.empty(); }
  std::span<const Complex> coefficients() const noexcept { return coeffs_; }
  const Complex& operator[](std::size_t i) const noexcept {
    SDSI_DCHECK(i < coeffs_.size());
    return coeffs_[i];
  }

  /// The routing coordinate of Sec IV-B: the real component of the first
  /// retained coefficient, guaranteed to be in [-1, 1].
  double routing_coordinate() const noexcept {
    SDSI_DCHECK(!coeffs_.empty());
    return coeffs_.front().real();
  }

  /// Resizes to `n` coefficients and hands back mutable storage, reusing
  /// capacity. Lets per-tick producers overwrite a scratch vector in place
  /// instead of allocating a fresh coefficient array per sample.
  std::span<Complex> overwrite(std::size_t n) {
    coeffs_.resize(n);
    return coeffs_;
  }

  /// Flattened real coordinates [re0, im0, re1, im1, ...], the space MBRs
  /// live in.
  std::vector<double> as_reals() const;

  /// Plain feature-space Euclidean distance: sqrt(sum |a_i - b_i|^2).
  /// By Parseval this lower-bounds the true distance between the underlying
  /// normalized windows (Eq. 9) — no false dismissals.
  double distance(const FeatureVector& other) const noexcept;

  friend bool operator==(const FeatureVector&, const FeatureVector&) = default;

 private:
  std::vector<Complex> coeffs_;
};

/// Normalizes `window` per `config` and extracts the retained coefficients.
/// O(N k); the streaming path avoids this via SlidingDft + drop/slice.
FeatureVector extract_features(std::span<const Sample> window,
                               const FeatureConfig& config);

/// Slices retained coefficients out of a full (or k-prefix) spectrum that was
/// computed over an ALREADY-normalized window. `spectrum` must cover indices
/// [0, first_coefficient + num_coefficients).
FeatureVector slice_features(std::span<const Complex> spectrum,
                             const FeatureConfig& config);

/// Eq. 7: reconstructs an approximate window of length config.window_size
/// from the retained coefficients, using conjugate symmetry to fill the
/// unretained upper half of the spectrum. Used by inner-product answering.
std::vector<Sample> reconstruct(const FeatureVector& features,
                                const FeatureConfig& config);

/// Weighted inner product sum_i w_i * index_i * x_i over a reconstructed
/// signal — the paper's inner-product query answer (Sec IV-D). `index`
/// selects positions (0/1 or arbitrary weights), `weights` are the per-item
/// weights; both must be at most window_size long and are aligned to the most
/// recent samples.
double weighted_inner_product(std::span<const Sample> signal,
                              std::span<const double> index,
                              std::span<const double> weights) noexcept;

}  // namespace sdsi::dsp
