#include "core/strategy.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/lsh_map.hpp"
#include "core/mapper.hpp"
#include "streams/ecm_sketch.hpp"
#include "streams/summarizer.hpp"

namespace sdsi::core {

const char* strategy_name(StrategyKind kind) noexcept {
  switch (kind) {
    case StrategyKind::kDft: return "dft";
    case StrategyKind::kEcm: return "ecm";
    case StrategyKind::kLsh: return "lsh";
  }
  return "dft";
}

std::optional<StrategyKind> parse_strategy(std::string_view name) noexcept {
  if (name == "dft") return StrategyKind::kDft;
  if (name == "ecm") return StrategyKind::kEcm;
  if (name == "lsh") return StrategyKind::kLsh;
  return std::nullopt;
}

void ContentKeyMap::mbr_ranges(const dsp::Mbr& mbr,
                               std::vector<std::pair<Key, Key>>& out) const {
  out.clear();
  out.push_back(mbr_range(mbr));
}

void ContentKeyMap::query_ranges(const dsp::FeatureVector& features,
                                 double radius,
                                 std::vector<std::pair<Key, Key>>& out) const {
  out.clear();
  out.push_back(query_range(features, radius));
}

std::optional<Key> nearest_overlap_key(
    std::span<const std::pair<Key, Key>> batch,
    std::span<const std::pair<Key, Key>> query, Key middle) {
  std::optional<Key> best;
  Key best_gap = 0;
  for (const auto& [blo, bhi] : batch) {
    for (const auto& [qlo, qhi] : query) {
      const Key lo = std::max(blo, qlo);
      const Key hi = std::min(bhi, qhi);
      if (blo > bhi || qlo > qhi || lo > hi) {
        continue;
      }
      const Key point = std::clamp(middle, lo, hi);
      const Key gap = point > middle ? point - middle : middle - point;
      if (!best.has_value() || gap < best_gap ||
          (gap == best_gap && point < *best)) {
        best = point;
        best_gap = gap;
      }
    }
  }
  return best;
}

namespace {

// --- dft: the paper's pipeline -----------------------------------------------

class DftStrategy final : public IndexingStrategy {
 public:
  DftStrategy(dsp::FeatureConfig features, common::IdSpace space)
      : IndexingStrategy(StrategyKind::kDft, features), map_(space) {}

  std::unique_ptr<streams::Summarizer> make_summarizer() const override {
    return std::make_unique<streams::StreamSummarizer>(features());
  }
  const ContentKeyMap& key_map() const override { return map_; }
  dsp::FeatureVector features_from_window(
      std::span<const Sample> window) const override {
    return dsp::extract_features(window, features());
  }

 private:
  SummaryMapper map_;
};

// --- ecm: sketch summarizer over the Eq. 6 map -------------------------------

class EcmStrategy final : public IndexingStrategy {
 public:
  EcmStrategy(dsp::FeatureConfig features, common::IdSpace space)
      : IndexingStrategy(StrategyKind::kEcm, features), map_(space) {}

  std::size_t coefficients() const noexcept override {
    return streams::EcmStreamSummarizer::Options{}.bins / 2;
  }
  std::unique_ptr<streams::Summarizer> make_summarizer() const override {
    return std::make_unique<streams::EcmStreamSummarizer>(
        sketch_options(features().window_size));
  }
  const ContentKeyMap& key_map() const override { return map_; }
  dsp::FeatureVector features_from_window(
      std::span<const Sample> window) const override {
    // Queries quantize by the window's own statistics (a query carries no
    // stream history), mirroring what a stream's running scale converges to.
    streams::EcmStreamSummarizer probe(sketch_options(window.size()));
    probe.push_span(window);
    dsp::FeatureVector out;
    if (!probe.features_into(out)) {
      // Degenerate window: an empty histogram has no direction; pin the
      // central bin so the query still routes deterministically.
      const auto coeffs = out.overwrite(coefficients());
      std::fill(coeffs.begin(), coeffs.end(), dsp::Complex(0.0, 0.0));
      coeffs[0] = dsp::Complex(1.0, 0.0);
    }
    return out;
  }

 private:
  /// The sketch's default geometry over a window of `window` samples.
  static streams::EcmStreamSummarizer::Options sketch_options(
      std::size_t window) {
    streams::EcmStreamSummarizer::Options options;
    options.window = window;
    return options;
  }

  SummaryMapper map_;
};

// --- lsh: signed-random-projection bucket routing ----------------------------

class LshStrategy final : public IndexingStrategy {
 public:
  LshStrategy(dsp::FeatureConfig features, common::IdSpace space)
      : IndexingStrategy(StrategyKind::kLsh, features),
        map_(LshOptions{}, 2 * features.num_coefficients, space) {}

  std::unique_ptr<streams::Summarizer> make_summarizer() const override {
    return std::make_unique<streams::StreamSummarizer>(features());
  }
  const ContentKeyMap& key_map() const override { return map_; }
  dsp::FeatureVector features_from_window(
      std::span<const Sample> window) const override {
    return dsp::extract_features(window, features());
  }

 private:
  LshKeyMap map_;
};

}  // namespace

std::unique_ptr<IndexingStrategy> IndexingStrategy::make(
    StrategyKind kind, dsp::FeatureConfig features, common::IdSpace space) {
  SDSI_CHECK(space.bits() <= 52);
  switch (kind) {
    case StrategyKind::kDft:
      return std::make_unique<DftStrategy>(features, space);
    case StrategyKind::kEcm:
      return std::make_unique<EcmStrategy>(features, space);
    case StrategyKind::kLsh:
      return std::make_unique<LshStrategy>(features, space);
  }
  SDSI_CHECK(false && "unknown StrategyKind");
  return nullptr;
}

}  // namespace sdsi::core
