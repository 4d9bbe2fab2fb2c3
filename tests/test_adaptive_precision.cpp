// The Sec VI-A adaptive precision controller: rate targeting and bounds,
// and the closed loop a middleware stream runs (core::summarize_value on a
// LocalStream built with adaptive precision).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/node.hpp"
#include "core/precision.hpp"

namespace sdsi::core {
namespace {

AdaptivePrecisionController::Options options(double target = 1.0) {
  AdaptivePrecisionController::Options opts;
  opts.target_rate = target;
  opts.window = 8;
  return opts;
}

TEST(AdaptiveController, GrowsWhenEmittingTooOften) {
  AdaptivePrecisionController controller(options(1.0));
  const double before = controller.extent();
  // Every vector closes a batch: way over target.
  for (int i = 0; i < 8; ++i) {
    controller.observe(/*emitted=*/true);
  }
  EXPECT_GT(controller.extent(), before);
  EXPECT_EQ(controller.adaptations(), 1u);
}

TEST(AdaptiveController, ShrinksWhenIdle) {
  AdaptivePrecisionController controller(options(1.0));
  const double before = controller.extent();
  for (int i = 0; i < 8; ++i) {
    controller.observe(/*emitted=*/false);
  }
  EXPECT_LT(controller.extent(), before);
}

TEST(AdaptiveController, HoldsNearTarget) {
  AdaptivePrecisionController controller(options(1.0));
  const double before = controller.extent();
  // Exactly one emission per window: inside the dead band.
  for (int i = 0; i < 8; ++i) {
    controller.observe(i == 3);
  }
  EXPECT_DOUBLE_EQ(controller.extent(), before);
}

TEST(AdaptiveController, RespectsBounds) {
  AdaptivePrecisionController::Options opts = options(1.0);
  opts.min_extent = 0.01;
  opts.max_extent = 0.2;
  AdaptivePrecisionController controller(opts);
  for (int i = 0; i < 800; ++i) {
    controller.observe(true);
  }
  EXPECT_DOUBLE_EQ(controller.extent(), 0.2);
  for (int i = 0; i < 8000; ++i) {
    controller.observe(false);
  }
  EXPECT_DOUBLE_EQ(controller.extent(), 0.01);
}

TEST(AdaptiveController, AdaptsOnlyAtWindowBoundaries) {
  AdaptivePrecisionController controller(options(1.0));
  for (int i = 0; i < 7; ++i) {
    controller.observe(true);
    EXPECT_EQ(controller.adaptations(), 0u);
  }
  controller.observe(true);
  EXPECT_EQ(controller.adaptations(), 1u);
}

/// Pass-through summary: each sample becomes a one-coefficient feature
/// vector (value, 0), so the tests drive the batcher with exact coordinates.
class PassThroughSummarizer final : public streams::Summarizer {
 public:
  void push(Sample value) override {
    last_ = value;
    ++seen_;
  }
  bool ready() const noexcept override { return seen_ > 0; }
  std::uint64_t samples_seen() const noexcept override { return seen_; }
  bool features_into(dsp::FeatureVector& out) const override {
    if (!ready()) {
      return false;
    }
    out.overwrite(1)[0] = dsp::Complex{last_, 0.0};
    return true;
  }
  bool approx_window(std::vector<Sample>& out) const override {
    out.assign(1, last_);
    return ready();
  }

 private:
  Sample last_ = 0.0;
  std::uint64_t seen_ = 0;
};

/// One middleware stream with the closed loop on: built by the LocalStream
/// constructor MiddlewareSystem::register_stream uses, and fed through
/// core::summarize_value, the ingest step of every host.
class AdaptiveStream {
 public:
  AdaptiveStream()
      : strategy_(IndexingStrategy::make({}, dsp::FeatureConfig{},
                                         common::IdSpace(32))),
        local_(1, *strategy_, MbrBatcher::Options{}, options(1.0)) {
    local_.summarizer = std::make_unique<PassThroughSummarizer>();
  }

  /// Ingests one sample; returns the MBR it closed, if any.
  std::optional<dsp::Mbr> push(double value) {
    closed_.clear();
    summarize_value(local_, value, closed_);
    if (closed_.empty()) {
      return std::nullopt;
    }
    return closed_.front();
  }

  double current_extent() const { return local_.precision->extent(); }
  const LocalStream& local() const { return local_; }

 private:
  std::unique_ptr<IndexingStrategy> strategy_;
  LocalStream local_;
  std::vector<dsp::Mbr> closed_;
};

TEST(AdaptivePrecisionLoop, StreamStartsAtTheControllerBudget) {
  const AdaptiveStream stream;
  ASSERT_TRUE(stream.local().precision.has_value());
  const MbrBatcher::Options& batching = stream.local().batcher.options();
  EXPECT_EQ(batching.mode, MbrBatcher::Mode::kAdaptive);
  EXPECT_DOUBLE_EQ(batching.max_extent,
                   AdaptivePrecisionController(options(1.0)).extent());

  // Without the closed loop the stream keeps fixed-count batching.
  const auto strategy = IndexingStrategy::make({}, dsp::FeatureConfig{},
                                               common::IdSpace(32));
  const LocalStream fixed(2, *strategy, MbrBatcher::Options{});
  EXPECT_FALSE(fixed.precision.has_value());
  EXPECT_EQ(fixed.batcher.options().mode, MbrBatcher::Mode::kFixedCount);
}

TEST(AdaptivePrecisionLoop, ConvergesToTargetRateOnFastStream) {
  // A fast-drifting stream: the fixed-extent batcher would emit constantly;
  // the controller widens boxes until the rate lands near target.
  AdaptiveStream stream;
  common::Pcg32 rng(5, 5);
  double walk = 0.0;
  int emissions_late = 0;
  constexpr int kTotal = 4000;
  constexpr int kTail = 1600;  // measure after convergence
  for (int i = 0; i < kTotal; ++i) {
    walk += rng.uniform(-0.02, 0.02);
    walk = std::clamp(walk, -0.95, 0.95);
    const bool emitted = stream.push(walk).has_value();
    if (i >= kTotal - kTail) {
      emissions_late += emitted ? 1 : 0;
    }
  }
  // Target: 1 emission per 8 vectors = 200 over the tail. Allow 2x band.
  EXPECT_GT(emissions_late, 100);
  EXPECT_LT(emissions_late, 420);
}

TEST(AdaptivePrecisionLoop, FlatStreamGainsPrecision) {
  AdaptiveStream stream;
  for (int i = 0; i < 2000; ++i) {
    (void)stream.push(0.3);  // never moves: never emits
  }
  // Extent shrinks toward the minimum: maximal precision for free.
  EXPECT_LT(stream.current_extent(),
            AdaptivePrecisionController(options(1.0)).extent());
}

TEST(AdaptivePrecisionLoop, EmittedBoxesRespectCurrentBudget) {
  AdaptiveStream stream;
  common::Pcg32 rng(9, 9);
  double walk = 0.0;
  double max_budget_seen = 0.0;
  for (int i = 0; i < 3000; ++i) {
    walk += rng.uniform(-0.01, 0.01);
    max_budget_seen = std::max(max_budget_seen, stream.current_extent());
    if (const auto box = stream.push(walk)) {
      // A closed box never exceeds the largest budget that was in force.
      EXPECT_LE(box->routing_high() - box->routing_low(),
                max_budget_seen + 1e-12);
    }
  }
}

TEST(AdaptivePrecisionLoop, FasterStreamsGetWiderBoxes) {
  // The Sec VI-A promise: precision adapts per stream automatically.
  AdaptiveStream slow;
  AdaptiveStream fast;
  common::Pcg32 rng(11, 11);
  double w_slow = 0.0;
  double w_fast = 0.0;
  for (int i = 0; i < 4000; ++i) {
    w_slow += rng.uniform(-0.001, 0.001);
    w_fast += rng.uniform(-0.05, 0.05);
    w_fast = std::clamp(w_fast, -0.95, 0.95);
    (void)slow.push(w_slow);
    (void)fast.push(w_fast);
  }
  EXPECT_GT(fast.current_extent(), 2.0 * slow.current_extent());
}

}  // namespace
}  // namespace sdsi::core
