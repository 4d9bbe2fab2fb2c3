// The incremental per-stream summarizer: O(k)-per-sample features must match
// the batch pipeline (normalize whole window, DFT, slice) exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "streams/summarizer.hpp"

namespace sdsi::streams {
namespace {

dsp::FeatureConfig config(std::size_t w, std::size_t k,
                          dsp::Normalization norm) {
  dsp::FeatureConfig cfg;
  cfg.window_size = w;
  cfg.num_coefficients = k;
  cfg.normalization = norm;
  return cfg;
}

TEST(StreamSummarizer, NotReadyUntilWindowFull) {
  StreamSummarizer s(config(8, 2, dsp::Normalization::kZNormalize));
  for (int i = 0; i < 7; ++i) {
    s.push(static_cast<Sample>(i));
    EXPECT_FALSE(s.ready());
    EXPECT_FALSE(s.features().has_value());
  }
  s.push(7.0);
  EXPECT_TRUE(s.ready());
  EXPECT_TRUE(s.features().has_value());
}

TEST(StreamSummarizer, ConstantWindowHasNoFeatures) {
  StreamSummarizer s(config(8, 2, dsp::Normalization::kZNormalize));
  for (int i = 0; i < 20; ++i) {
    s.push(3.0);
  }
  EXPECT_TRUE(s.ready());
  EXPECT_FALSE(s.features().has_value());  // degenerate direction
}

TEST(StreamSummarizer, ZeroWindowHasNoUnitFeatures) {
  StreamSummarizer s(config(8, 2, dsp::Normalization::kUnitNormalize));
  for (int i = 0; i < 20; ++i) {
    s.push(0.0);
  }
  EXPECT_FALSE(s.features().has_value());
}

TEST(StreamSummarizer, MeanAndDenominator) {
  StreamSummarizer s(config(4, 1, dsp::Normalization::kZNormalize));
  for (const Sample x : {1.0, 2.0, 3.0, 4.0}) {
    s.push(x);
  }
  EXPECT_DOUBLE_EQ(s.window_mean(), 2.5);
  // ||x - mean|| = sqrt(1.5^2 + 0.5^2 + 0.5^2 + 1.5^2) = sqrt(5).
  EXPECT_NEAR(s.normalization_denominator(), std::sqrt(5.0), 1e-12);
}

class SummarizerMatchesBatch
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, dsp::Normalization>> {};

TEST_P(SummarizerMatchesBatch, IncrementalEqualsExtractFeatures) {
  const auto [w, k, norm] = GetParam();
  const dsp::FeatureConfig cfg = config(w, k, norm);
  StreamSummarizer s(cfg);
  common::Pcg32 rng(w * 31 + k, 6);
  Sample value = 0.0;
  for (std::size_t i = 0; i < w * 3 + 5; ++i) {
    value += rng.uniform(-1.0, 1.0);
    s.push(value);
  }
  const auto incremental = s.features();
  ASSERT_TRUE(incremental.has_value());
  const auto batch = dsp::extract_features(s.raw_window(), cfg);
  ASSERT_EQ(incremental->size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_NEAR(std::abs((*incremental)[i] - batch[i]), 0.0, 1e-9)
        << "w=" << w << " k=" << k << " i=" << i;
  }
}

// Windows 4..128 x k 1..3 x both normalizations, except that (4, 3, znorm)
// would keep X_3 of a 4-sample window, past N/2, which FeatureConfig
// rejects; (6, 3, znorm) takes its place.
std::vector<std::tuple<std::size_t, std::size_t, dsp::Normalization>>
summarizer_shapes() {
  std::vector<std::tuple<std::size_t, std::size_t, dsp::Normalization>> shapes;
  for (const std::size_t w : {4u, 8u, 32u, 128u}) {
    for (const std::size_t k : {1u, 2u, 3u}) {
      for (const dsp::Normalization norm : {dsp::Normalization::kZNormalize,
                                            dsp::Normalization::kUnitNormalize}) {
        const bool past_half = w == 4 && k == 3 &&
                               norm == dsp::Normalization::kZNormalize;
        shapes.emplace_back(past_half ? 6u : w, k, norm);
      }
    }
  }
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(Shapes, SummarizerMatchesBatch,
                         ::testing::ValuesIn(summarizer_shapes()));

TEST(StreamSummarizer, ReanchoringKeepsFeaturesContinuous) {
  const dsp::FeatureConfig cfg = config(16, 2, dsp::Normalization::kZNormalize);
  StreamSummarizer with_anchor(cfg);
  StreamSummarizer without_anchor(cfg);
  with_anchor.set_reanchor_interval(64);
  without_anchor.set_reanchor_interval(0);
  common::Pcg32 rng(5, 7);
  for (int i = 0; i < 1000; ++i) {
    const Sample x = rng.uniform(-1.0, 1.0);
    with_anchor.push(x);
    without_anchor.push(x);
  }
  const auto a = with_anchor.features();
  const auto b = without_anchor.features();
  ASSERT_TRUE(a.has_value() && b.has_value());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_NEAR(std::abs((*a)[i] - (*b)[i]), 0.0, 1e-9);
  }
}

TEST(StreamSummarizer, FeaturesLiveOnUnitBall) {
  StreamSummarizer s(config(32, 3, dsp::Normalization::kZNormalize));
  common::Pcg32 rng(11, 3);
  Sample value = 0.0;
  for (int i = 0; i < 200; ++i) {
    value += rng.uniform(-1.0, 1.0);
    s.push(value);
    if (const auto fv = s.features()) {
      double norm_sq = 0.0;
      for (const auto& c : fv->coefficients()) {
        norm_sq += std::norm(c);
      }
      EXPECT_LE(norm_sq, 1.0 + 1e-9);
      EXPECT_LE(std::abs(fv->routing_coordinate()), 1.0);
    }
  }
}

}  // namespace
}  // namespace sdsi::streams
