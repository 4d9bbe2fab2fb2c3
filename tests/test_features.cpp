// Feature extraction, the lower-bounding property (Eq. 9), reconstruction
// (Eq. 7), and the weighted inner product of Sec IV-D.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "dsp/features.hpp"

namespace sdsi::dsp {
namespace {

std::vector<Sample> random_window(std::size_t n, std::uint64_t seed) {
  common::Pcg32 rng(seed, 4);
  std::vector<Sample> window(n);
  for (Sample& x : window) {
    x = rng.uniform(-3.0, 3.0);
  }
  return window;
}

std::vector<Sample> random_walk_window(std::size_t n, std::uint64_t seed) {
  common::Pcg32 rng(seed, 5);
  std::vector<Sample> window(n);
  Sample value = 0.0;
  for (Sample& x : window) {
    value += rng.uniform(-1.0, 1.0);
    x = value;
  }
  return window;
}

FeatureConfig config(std::size_t w, std::size_t k,
                     Normalization norm = Normalization::kZNormalize) {
  FeatureConfig cfg;
  cfg.window_size = w;
  cfg.num_coefficients = k;
  cfg.normalization = norm;
  return cfg;
}

TEST(FeatureConfig, FirstCoefficientSkipsDcOnlyForZNorm) {
  EXPECT_EQ(config(32, 2, Normalization::kZNormalize).first_coefficient(), 1u);
  EXPECT_EQ(config(32, 2, Normalization::kUnitNormalize).first_coefficient(),
            0u);
}

TEST(FeatureConfig, RejectsCoefficientsPastHalfTheWindow) {
  // A real window has X_{N-F} = conj(X_F). At W = 8, z-normalized, k = 4
  // keeps X_1..X_4 (X_4 is the Nyquist bin) and already spans the whole
  // spectrum; k = 5 would add X_5 = conj(X_3), which reconstruct() would
  // count twice.
  config(8, 4).validate();
  config(8, 5, Normalization::kUnitNormalize).validate();  // X_0..X_4
  EXPECT_FALSE(config(8, 5).valid());
  EXPECT_DEATH(config(8, 5).validate(), "");
}

TEST(FeatureVector, AsRealsInterleavesReIm) {
  const FeatureVector fv({Complex{1.0, 2.0}, Complex{3.0, 4.0}});
  EXPECT_EQ(fv.as_reals(), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(FeatureVector, DistanceIsComplexEuclidean) {
  const FeatureVector a({Complex{0.0, 0.0}, Complex{0.0, 0.0}});
  const FeatureVector b({Complex{3.0, 0.0}, Complex{0.0, 4.0}});
  EXPECT_DOUBLE_EQ(a.distance(b), 5.0);
}

TEST(ExtractFeatures, CoordinatesAreBounded) {
  // Unit-sphere windows + unitary DFT => every coordinate in [-1, 1].
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto fv = extract_features(random_window(32, seed), config(32, 3));
    EXPECT_LE(std::abs(fv.routing_coordinate()), 1.0);
    for (const Complex& c : fv.coefficients()) {
      EXPECT_LE(std::abs(c), 1.0 + 1e-12);
    }
  }
}

TEST(ExtractFeatures, ZNormSkipsZeroDc) {
  const auto window = random_window(16, 3);
  const auto fv = extract_features(window, config(16, 2));
  // Retained coefficients start at F=1; verify against a manual pipeline.
  const auto normalized = z_normalize(window);
  const auto spectrum = naive_dft(normalized);
  EXPECT_NEAR(std::abs(fv[0] - spectrum[1]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(fv[1] - spectrum[2]), 0.0, 1e-12);
}

TEST(SliceFeatures, MatchesExtract) {
  const auto window = random_window(16, 9);
  const FeatureConfig cfg = config(16, 3);
  const auto normalized = z_normalize(window);
  const auto spectrum = naive_dft(normalized);
  const auto sliced = slice_features(spectrum, cfg);
  const auto extracted = extract_features(window, cfg);
  EXPECT_EQ(sliced.size(), extracted.size());
  for (std::size_t i = 0; i < sliced.size(); ++i) {
    EXPECT_NEAR(std::abs(sliced[i] - extracted[i]), 0.0, 1e-12);
  }
}

class LowerBoundProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LowerBoundProperty, FeatureDistanceNeverExceedsWindowDistance) {
  // Eq. 9: the whole index's correctness (no false dismissals) rests on
  // this. Check the bound on random-walk data.
  const FeatureConfig cfg = config(32, 3);
  const auto wa = random_walk_window(32, GetParam());
  const auto wb = random_walk_window(32, GetParam() + 500);
  const auto na = z_normalize(wa);
  const auto nb = z_normalize(wb);
  const double true_distance = euclidean_distance(na, nb);
  const auto fa = extract_features(wa, cfg);
  const auto fb = extract_features(wb, cfg);
  EXPECT_LE(fa.distance(fb), true_distance + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerBoundProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(Reconstruct, ExactForBandLimitedSignal) {
  // A signal made only of frequencies 1..2 reconstructs exactly from k=2
  // z-normalized coefficients.
  constexpr std::size_t kN = 32;
  std::vector<Sample> window(kN);
  for (std::size_t j = 0; j < kN; ++j) {
    const double t = static_cast<double>(j);
    window[j] = 2.0 * std::cos(2.0 * std::numbers::pi * t / kN) +
                0.7 * std::sin(2.0 * std::numbers::pi * 2.0 * t / kN);
  }
  const FeatureConfig cfg = config(kN, 2);
  const auto fv = extract_features(window, cfg);
  const auto approx = reconstruct(fv, cfg);
  const auto normalized = z_normalize(window);
  for (std::size_t j = 0; j < kN; ++j) {
    EXPECT_NEAR(approx[j], normalized[j], 1e-9) << "j=" << j;
  }
}

TEST(Reconstruct, ExactWithEveryCoefficientUpToNyquist) {
  // The largest valid k keeps the whole spectrum of a z-normalized window,
  // so reconstruction returns the normalized window itself.
  const auto window = random_window(8, 7);
  const FeatureConfig cfg = config(8, 4);
  const auto approx = reconstruct(extract_features(window, cfg), cfg);
  const auto normalized = z_normalize(window);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(approx[j], normalized[j], 1e-9) << "j=" << j;
  }
}

TEST(Reconstruct, ErrorEqualsDiscardedEnergy) {
  // Parseval: ||x_norm - reconstruct||^2 = energy in discarded coefficients.
  const auto window = random_walk_window(32, 5);
  const FeatureConfig cfg = config(32, 4);
  const auto fv = extract_features(window, cfg);
  const auto approx = reconstruct(fv, cfg);
  const auto normalized = z_normalize(window);
  const double err = euclidean_distance(approx, normalized);
  const auto spectrum = naive_dft(normalized);
  double discarded = 0.0;
  for (std::size_t f = 5; f <= 32 - 5; ++f) {
    discarded += std::norm(spectrum[f]);
  }
  EXPECT_NEAR(err * err, discarded, 1e-9);
}

TEST(WeightedInnerProduct, AlignsToWindowTail) {
  const std::vector<Sample> signal{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> index{1.0, 1.0};
  const std::vector<double> weights{10.0, 1.0};
  // Aligned to the two most recent samples: 10*4 + 1*5.
  EXPECT_DOUBLE_EQ(weighted_inner_product(signal, index, weights), 45.0);
}

TEST(WeightedInnerProduct, ZeroIndexMasksOut) {
  const std::vector<Sample> signal{1.0, 2.0, 3.0};
  const std::vector<double> index{0.0, 1.0, 0.0};
  const std::vector<double> weights{9.0, 2.0, 9.0};
  EXPECT_DOUBLE_EQ(weighted_inner_product(signal, index, weights), 4.0);
}

}  // namespace
}  // namespace sdsi::dsp
