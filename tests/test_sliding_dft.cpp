// Incremental sliding-window DFT (Eq. 5) against recomputation from scratch.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "dsp/dft.hpp"
#include "dsp/sliding_dft.hpp"

namespace sdsi::dsp {
namespace {

std::vector<Complex> reference_coefficients(const std::vector<Sample>& window,
                                            std::size_t k) {
  const auto full = naive_dft(window);
  return std::vector<Complex>(full.begin(),
                              full.begin() + static_cast<std::ptrdiff_t>(k));
}

TEST(SlidingDft, EmptyWindowHasZeroCoefficients) {
  SlidingDft dft(8, 3);
  EXPECT_FALSE(dft.full());
  for (const Complex& c : dft.coefficients()) {
    EXPECT_EQ(c, (Complex{0.0, 0.0}));
  }
}

TEST(SlidingDft, PushReturnsEvictedSample) {
  SlidingDft dft(3, 1);
  EXPECT_EQ(dft.push(1.0), 0.0);  // zero-padded prefix
  EXPECT_EQ(dft.push(2.0), 0.0);
  EXPECT_EQ(dft.push(3.0), 0.0);
  EXPECT_EQ(dft.push(4.0), 1.0);  // window full: oldest comes back out
  EXPECT_EQ(dft.push(5.0), 2.0);
}

TEST(SlidingDft, WindowReturnsArrivalOrder) {
  SlidingDft dft(4, 1);
  for (const Sample x : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
    dft.push(x);
  }
  EXPECT_EQ(dft.window(), (std::vector<Sample>{3.0, 4.0, 5.0, 6.0}));
}

TEST(SlidingDft, FullAfterWindowSizePushes) {
  SlidingDft dft(5, 2);
  for (int i = 0; i < 4; ++i) {
    dft.push(1.0);
    EXPECT_FALSE(dft.full());
  }
  dft.push(1.0);
  EXPECT_TRUE(dft.full());
  EXPECT_EQ(dft.samples_seen(), 5u);
}

TEST(SlidingDft, PrefillMatchesZeroPaddedWindow) {
  // Mid-fill, coefficients must equal the DFT of [0, ..., 0, x1, ..., xt].
  SlidingDft dft(8, 4);
  std::vector<Sample> padded(8, 0.0);
  common::Pcg32 rng(5, 5);
  for (int t = 0; t < 5; ++t) {
    const Sample x = rng.uniform(-1.0, 1.0);
    // The conceptual window slides: drop padded[0], append x.
    padded.erase(padded.begin());
    padded.push_back(x);
    dft.push(x);
    const auto expected = reference_coefficients(padded, 4);
    const auto got = dft.coefficients();
    for (std::size_t f = 0; f < 4; ++f) {
      ASSERT_NEAR(std::abs(got[f] - expected[f]), 0.0, 1e-10)
          << "t=" << t << " f=" << f;
    }
  }
}

class SlidingDftParams
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SlidingDftParams, TracksNaiveRecomputeExactly) {
  const auto [window, k] = GetParam();
  SlidingDft dft(window, k);
  common::Pcg32 rng(static_cast<std::uint64_t>(window), k);
  for (std::size_t i = 0; i < window * 4; ++i) {
    dft.push(rng.uniform(-5.0, 5.0));
  }
  const auto expected = reference_coefficients(dft.window(), k);
  const auto got = dft.coefficients();
  for (std::size_t f = 0; f < k; ++f) {
    EXPECT_NEAR(std::abs(got[f] - expected[f]), 0.0, 1e-9)
        << "window=" << window << " k=" << k << " f=" << f;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SlidingDftParams,
    ::testing::Values(std::tuple{2, 1}, std::tuple{3, 3}, std::tuple{8, 3},
                      std::tuple{16, 5}, std::tuple{32, 4}, std::tuple{100, 7},
                      std::tuple{128, 3}));

TEST(SlidingDft, DriftStaysBoundedOverLongRuns) {
  // 100k pushes without re-anchoring: error must stay tiny (the rotation
  // factors have unit magnitude, so error growth is additive, not
  // exponential).
  SlidingDft dft(64, 4);
  common::Pcg32 rng(77, 1);
  for (int i = 0; i < 100000; ++i) {
    dft.push(rng.uniform(-1.0, 1.0));
  }
  const auto expected = reference_coefficients(dft.window(), 4);
  const auto got = dft.coefficients();
  for (std::size_t f = 0; f < 4; ++f) {
    EXPECT_NEAR(std::abs(got[f] - expected[f]), 0.0, 1e-7) << "f=" << f;
  }
}

TEST(SlidingDft, RecomputeExactResetsDrift) {
  SlidingDft dft(32, 3);
  common::Pcg32 rng(78, 1);
  for (int i = 0; i < 1000; ++i) {
    dft.push(rng.uniform(-1.0, 1.0));
  }
  dft.recompute_exact();
  const auto expected = reference_coefficients(dft.window(), 3);
  const auto got = dft.coefficients();
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_NEAR(std::abs(got[f] - expected[f]), 0.0, 1e-12);
  }
}

TEST(SlidingDft, ConstantInputGivesPureDc) {
  SlidingDft dft(16, 4);
  for (int i = 0; i < 32; ++i) {
    dft.push(2.5);
  }
  const auto got = dft.coefficients();
  EXPECT_NEAR(got[0].real(), 2.5 * std::sqrt(16.0), 1e-9);
  for (std::size_t f = 1; f < 4; ++f) {
    EXPECT_NEAR(std::abs(got[f]), 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace sdsi::dsp
