#include "dsp/features.hpp"

#include <cmath>
#include <numbers>

namespace sdsi::dsp {

std::vector<double> FeatureVector::as_reals() const {
  std::vector<double> out;
  out.reserve(coeffs_.size() * 2);
  for (const Complex& c : coeffs_) {
    out.push_back(c.real());
    out.push_back(c.imag());
  }
  return out;
}

double FeatureVector::distance(const FeatureVector& other) const noexcept {
  SDSI_DCHECK(coeffs_.size() == other.coeffs_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < coeffs_.size(); ++i) {
    total += std::norm(coeffs_[i] - other.coeffs_[i]);
  }
  return std::sqrt(total);
}

FeatureVector extract_features(std::span<const Sample> window,
                               const FeatureConfig& config) {
  config.validate();
  SDSI_CHECK(window.size() == config.window_size);
  const std::vector<Sample> normalized =
      normalize(window, config.normalization);
  const std::vector<Complex> spectrum = naive_dft(normalized);
  return slice_features(spectrum, config);
}

FeatureVector slice_features(std::span<const Complex> spectrum,
                             const FeatureConfig& config) {
  config.validate();
  const std::size_t first = config.first_coefficient();
  SDSI_CHECK(spectrum.size() >= first + config.num_coefficients);
  std::vector<Complex> coeffs(spectrum.begin() + static_cast<std::ptrdiff_t>(first),
                              spectrum.begin() + static_cast<std::ptrdiff_t>(
                                                     first +
                                                     config.num_coefficients));
  return FeatureVector(std::move(coeffs));
}

std::vector<Sample> reconstruct(const FeatureVector& features,
                                const FeatureConfig& config) {
  config.validate();
  SDSI_CHECK(features.size() == config.num_coefficients);
  const std::size_t n = config.window_size;
  const std::size_t first = config.first_coefficient();
  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  std::vector<Sample> signal(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < features.size(); ++i) {
      const std::size_t f = first + i;
      const double angle = 2.0 * std::numbers::pi * static_cast<double>(f) *
                           static_cast<double>(j) / static_cast<double>(n);
      const Complex rotated =
          features[i] * Complex(std::cos(angle), std::sin(angle));
      // Real signal: X_{N-F} = conj(X_F); the mirrored term contributes the
      // conjugate product, so the pair sums to twice the real part. DC and
      // Nyquist terms have no distinct mirror.
      const double factor = (f == 0 || 2 * f == n) ? 1.0 : 2.0;
      acc += factor * rotated.real();
    }
    signal[j] = acc * scale;
  }
  return signal;
}

double weighted_inner_product(std::span<const Sample> signal,
                              std::span<const double> index,
                              std::span<const double> weights) noexcept {
  SDSI_DCHECK(index.size() == weights.size());
  SDSI_DCHECK(index.size() <= signal.size());
  // Align the query vectors to the most recent samples (end of the window).
  const std::size_t offset = signal.size() - index.size();
  double total = 0.0;
  for (std::size_t i = 0; i < index.size(); ++i) {
    total += index[i] * weights[i] * signal[offset + i];
  }
  return total;
}

}  // namespace sdsi::dsp
