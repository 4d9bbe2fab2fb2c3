#include "streams/summarizer.hpp"

#include <algorithm>
#include <cmath>

namespace sdsi::streams {

namespace {

constexpr double kTinyNorm = 1e-12;

}  // namespace

StreamSummarizer::StreamSummarizer(dsp::FeatureConfig config)
    : config_(config),
      dft_(config.window_size,
           config.first_coefficient() + config.num_coefficients) {
  config_.validate();
}

void StreamSummarizer::push(Sample value) {
  const Sample evicted = dft_.push(value);
  window_sum_ += value - evicted;
  window_sum_sq_ += value * value - evicted * evicted;
  if (reanchor_interval_ != 0 && dft_.samples_seen() % reanchor_interval_ == 0) {
    reanchor();
  }
}

void StreamSummarizer::reanchor() {
  dft_.recompute_exact();
  window_sum_ = 0.0;
  window_sum_sq_ = 0.0;
  for (const Sample x : dft_.window()) {
    window_sum_ += x;
    window_sum_sq_ += x * x;
  }
}

double StreamSummarizer::window_mean() const noexcept {
  return window_sum_ / static_cast<double>(config_.window_size);
}

double StreamSummarizer::normalization_denominator() const noexcept {
  const auto n = static_cast<double>(config_.window_size);
  if (config_.normalization == dsp::Normalization::kZNormalize) {
    // ||x - mean||^2 = sum(x^2) - N * mean^2; clamp against cancellation.
    const double mu = window_sum_ / n;
    return std::sqrt(std::max(window_sum_sq_ - n * mu * mu, 0.0));
  }
  return std::sqrt(std::max(window_sum_sq_, 0.0));
}

std::optional<dsp::FeatureVector> StreamSummarizer::features() const {
  dsp::FeatureVector out;
  if (!features_into(out)) {
    return std::nullopt;
  }
  return out;
}

bool StreamSummarizer::features_into(dsp::FeatureVector& out) const {
  if (!ready()) {
    return false;
  }
  const double denom = normalization_denominator();
  if (denom < kTinyNorm) {
    return false;
  }
  const std::size_t first = config_.first_coefficient();
  const std::span<dsp::Complex> coeffs =
      out.overwrite(config_.num_coefficients);
  const auto raw = dft_.coefficients();
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    coeffs[i] = raw[first + i] / denom;
  }
  return true;
}

bool StreamSummarizer::approx_window(std::vector<Sample>& out) const {
  const std::optional<dsp::FeatureVector> synopsis = features();
  if (!synopsis.has_value()) {
    return false;
  }
  out = dsp::reconstruct(*synopsis, config_);
  const double denom = normalization_denominator();
  const double mu = config_.normalization == dsp::Normalization::kZNormalize
                        ? window_mean()
                        : 0.0;
  for (Sample& x : out) {
    x = x * denom + mu;
  }
  return true;
}

}  // namespace sdsi::streams
