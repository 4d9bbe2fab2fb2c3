// ECM-sketch component invariants (streams/ecm_sketch.hpp): the
// exponential-histogram error bound of Datar et al., the Count-Min
// overestimate bound of the sketch-of-EH composition (Papapetrou et al.,
// arXiv:1207.0139), window expiry, and determinism of the derived feature
// vectors. These pin the guarantees docs/STRATEGIES.md cites for the "ecm"
// strategy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "dsp/features.hpp"
#include "streams/ecm_sketch.hpp"

namespace sdsi::streams {
namespace {

TEST(ExpHistogram, ExactWhileFewBuckets) {
  // With at most k+1 buckets of size 1, nothing has merged: the estimate is
  // exact for any in-window query.
  ExpHistogram eh(8);
  for (std::uint64_t t = 1; t <= 9; ++t) {
    eh.add(t);
  }
  EXPECT_EQ(eh.estimate(9, 100), 9u);
}

TEST(ExpHistogram, RelativeErrorBoundHolds) {
  // Datar et al.: with k buckets allowed per size, the estimate's error is
  // at most half the oldest bucket, i.e. a relative error <= 1/(2k) against
  // the true in-window count (+1 slack for the half-count rounding).
  const std::size_t k = 8;
  const std::uint64_t window = 512;
  common::Pcg32 rng(123u, 0x5eedu);
  ExpHistogram eh(k);
  std::vector<std::uint64_t> arrivals;
  std::uint64_t now = 0;
  for (int i = 0; i < 5000; ++i) {
    now += 1 + rng.bounded(3);
    eh.add(now);
    arrivals.push_back(now);
    if (i % 97 != 0) {
      continue;
    }
    std::uint64_t exact = 0;
    for (const std::uint64_t t : arrivals) {
      if (t + window > now) {
        exact++;
      }
    }
    const double est = static_cast<double>(eh.estimate(now, window));
    const double bound =
        static_cast<double>(exact) / (2.0 * static_cast<double>(k)) + 1.0;
    EXPECT_NEAR(est, static_cast<double>(exact), bound)
        << "at t=" << now << " exact=" << exact;
  }
}

TEST(ExpHistogram, FullyExpiredWindowEstimatesZero) {
  ExpHistogram eh(4);
  for (std::uint64_t t = 1; t <= 100; ++t) {
    eh.add(t);
  }
  // Query far enough in the future that every bucket has expired.
  EXPECT_EQ(eh.estimate(100 + 1000, 10), 0u);
}

TEST(EcmSketch, NeverUnderestimatesBeyondEhError) {
  // Count-Min never undercounts: collisions only add. The only downward
  // error is the per-cell EH approximation, bounded by half the oldest
  // bucket of that cell.
  EcmSketch::Options opt;
  opt.window = 256;
  opt.width = 32;
  opt.depth = 3;
  opt.eh_k = 8;
  EcmSketch sketch(opt);
  common::Pcg32 rng(7u, 0x5eedu);
  std::vector<std::vector<std::uint64_t>> arrivals(8);
  std::uint64_t now = 0;
  for (int i = 0; i < 4000; ++i) {
    ++now;
    const std::uint64_t level = rng.bounded(8);
    sketch.add(level, now);
    arrivals[level].push_back(now);
  }
  for (std::uint64_t level = 0; level < 8; ++level) {
    std::uint64_t exact = 0;
    for (const std::uint64_t t : arrivals[level]) {
      if (t + opt.window > now) {
        exact++;
      }
    }
    const double est = static_cast<double>(sketch.estimate(level, now));
    // Lower side: EH error only (<= exact/(2k) + 1). Upper side: CM
    // collision mass, at most the whole in-window stream in the worst case;
    // with width 32 >> 8 levels and depth 3 it stays near e/width * W.
    const double eh_slack =
        static_cast<double>(exact) / (2.0 * 8.0) + 1.0;
    EXPECT_GE(est, static_cast<double>(exact) - eh_slack) << level;
    const double cm_slack = (2.71828 / 32.0) * 256.0 + eh_slack + 1.0;
    EXPECT_LE(est, static_cast<double>(exact) + cm_slack) << level;
  }
}

TEST(EcmSketch, DistinctLevelsLandInDistinctCellsMostRows) {
  // Sanity on the salted row hashing: with 8 levels into 32 cells, at least
  // one of the 3 rows must separate any fixed pair of levels (overwhelming
  // probability under the fixed default seed; this is a determinism pin,
  // not a probabilistic claim).
  EcmSketch::Options opt;
  EcmSketch sketch(opt);
  std::uint64_t now = 0;
  for (int i = 0; i < 200; ++i) {
    sketch.add(0, ++now);
  }
  // Level 1 was never added: its estimate must be far below level 0's.
  EXPECT_LT(sketch.estimate(1, now), sketch.estimate(0, now));
}

TEST(EcmStreamSummarizer, ReadyExactlyAtWindowFill) {
  EcmStreamSummarizer::Options opt;
  opt.window = 64;
  EcmStreamSummarizer summ(opt);
  for (int i = 0; i < 63; ++i) {
    summ.push(static_cast<double>(i % 7));
    EXPECT_FALSE(summ.ready());
  }
  summ.push(3.0);
  EXPECT_TRUE(summ.ready());
}

TEST(EcmStreamSummarizer, FeaturesAreUnitNormAndDeterministic) {
  EcmStreamSummarizer::Options opt;
  opt.window = 64;
  opt.bins = 8;
  EcmStreamSummarizer a(opt);
  EcmStreamSummarizer b(opt);
  common::Pcg32 rng(99u, 0x5eedu);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.normal();
    a.push(x);
    b.push(x);
  }
  dsp::FeatureVector fa;
  dsp::FeatureVector fb;
  ASSERT_TRUE(a.features_into(fa));
  ASSERT_TRUE(b.features_into(fb));
  EXPECT_TRUE(fa == fb);
  double norm_sq = 0.0;
  for (const auto& c : fa.coefficients()) {
    norm_sq += std::norm(c);
  }
  EXPECT_NEAR(norm_sq, 1.0, 1e-9);
  // Hellinger embedding: every coordinate is a sqrt of a frequency, so all
  // components are non-negative — the [0, 1] corner of the hypersphere.
  for (const auto& c : fa.coefficients()) {
    EXPECT_GE(c.real(), 0.0);
    EXPECT_GE(c.imag(), 0.0);
  }
}

TEST(EcmStreamSummarizer, CopyWindowMatchesPushedTail) {
  EcmStreamSummarizer::Options opt;
  opt.window = 16;
  EcmStreamSummarizer summ(opt);
  for (int i = 0; i < 40; ++i) {
    summ.push(static_cast<double>(i));
  }
  std::vector<double> window;
  summ.copy_window(window);
  ASSERT_EQ(window.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(window[static_cast<std::size_t>(i)],
                     static_cast<double>(24 + i));
  }
}

}  // namespace
}  // namespace sdsi::streams
