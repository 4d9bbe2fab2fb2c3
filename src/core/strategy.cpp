#include "core/strategy.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
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

// --- dft: the paper's pipeline, adapted verbatim -----------------------------

/// Wraps streams::StreamSummarizer; every call forwards unchanged, so the
/// dft strategy computes bit-identical features to the pre-strategy code.
class DftSummarizer final : public Summarizer {
 public:
  explicit DftSummarizer(dsp::FeatureConfig config)
      : inner_(config), config_(config) {}

  void push(Sample value) override { inner_.push(value); }
  bool ready() const noexcept override { return inner_.ready(); }
  std::uint64_t samples_seen() const noexcept override {
    return inner_.samples_seen();
  }
  bool features_into(dsp::FeatureVector& out) const override {
    return inner_.features_into(out);
  }

  bool approx_window(std::vector<Sample>& out) const override {
    // Eq. 7 reconstruction, then undo the normalization so the product is
    // on the raw data scale (the synopsis-owning node knows the window
    // mean and norm). Exactly the arithmetic the middleware inlined before
    // the strategy split — the equivalence gate pins it.
    const std::optional<dsp::FeatureVector> features = inner_.features();
    if (!features.has_value()) {
      return false;
    }
    out = dsp::reconstruct(*features, config_);
    const double denom = inner_.normalization_denominator();
    const double mu =
        config_.normalization == dsp::Normalization::kZNormalize
            ? inner_.window_mean()
            : 0.0;
    for (Sample& x : out) {
      x = x * denom + mu;
    }
    return true;
  }

 private:
  streams::StreamSummarizer inner_;
  dsp::FeatureConfig config_;
};

/// Delegates to the Eq. 6 interval map (core/mapper.hpp). Shared by the dft
/// and ecm strategies — any embedding with coordinates in [-1, 1] maps
/// monotonically onto the ring.
class IntervalKeyMap final : public ContentKeyMap {
 public:
  explicit IntervalKeyMap(common::IdSpace space) : mapper_(space) {}

  Key key_for(const dsp::FeatureVector& features) const override {
    return mapper_.key_for(features);
  }
  std::pair<Key, Key> mbr_range(const dsp::Mbr& mbr) const override {
    return mapper_.mbr_range(mbr);
  }
  std::pair<Key, Key> query_range(const dsp::FeatureVector& features,
                                  double radius) const override {
    return mapper_.query_range(features, radius);
  }

 private:
  SummaryMapper mapper_;
};

class DftStrategy final : public IndexingStrategy {
 public:
  DftStrategy(dsp::FeatureConfig features, common::IdSpace space)
      : IndexingStrategy(StrategyKind::kDft, features), map_(space) {}

  std::unique_ptr<Summarizer> make_summarizer() const override {
    return std::make_unique<DftSummarizer>(features());
  }
  const ContentKeyMap& key_map() const override { return map_; }
  dsp::FeatureVector features_from_window(
      std::span<const Sample> window) const override {
    return dsp::extract_features(window, features());
  }

 private:
  IntervalKeyMap map_;
};

// --- ecm: sketch summarizer over the Eq. 6 map -------------------------------

class EcmSummarizer final : public Summarizer {
 public:
  explicit EcmSummarizer(streams::EcmStreamSummarizer::Options options)
      : inner_(options) {}

  void push(Sample value) override { inner_.push(value); }
  bool ready() const noexcept override { return inner_.ready(); }
  std::uint64_t samples_seen() const noexcept override {
    return inner_.samples_seen();
  }
  bool features_into(dsp::FeatureVector& out) const override {
    return inner_.features_into(out);
  }
  bool approx_window(std::vector<Sample>& out) const override {
    // The sketch is what gets routed; the source node still holds the exact
    // ring, so local inner-product answers use it directly (strictly better
    // than a reconstruction).
    if (!inner_.ready()) {
      return false;
    }
    inner_.copy_window(out);
    return true;
  }

 private:
  streams::EcmStreamSummarizer inner_;
};

class EcmStrategy final : public IndexingStrategy {
 public:
  EcmStrategy(const EcmOptions& options, dsp::FeatureConfig features,
              common::IdSpace space)
      : IndexingStrategy(StrategyKind::kEcm, features),
        options_(options),
        map_(space) {
    SDSI_CHECK(options_.bins >= 2 && options_.bins % 2 == 0);
  }

  std::size_t coefficients() const noexcept override {
    return options_.bins / 2;
  }
  std::unique_ptr<Summarizer> make_summarizer() const override {
    return std::make_unique<EcmSummarizer>(summarizer_options());
  }
  const ContentKeyMap& key_map() const override { return map_; }
  dsp::FeatureVector features_from_window(
      std::span<const Sample> window) const override {
    // Queries quantize by the window's own statistics (a query carries no
    // stream history), mirroring what a stream's running scale converges to.
    streams::EcmStreamSummarizer probe(summarizer_options_for(window.size()));
    probe.push_span(window);
    dsp::FeatureVector out;
    if (!probe.features_into(out)) {
      // Degenerate window: an empty histogram has no direction; pin the
      // central bin so the query still routes deterministically.
      const auto coeffs = out.overwrite(options_.bins / 2);
      std::fill(coeffs.begin(), coeffs.end(), dsp::Complex(0.0, 0.0));
      coeffs[0] = dsp::Complex(1.0, 0.0);
    }
    return out;
  }

 private:
  streams::EcmStreamSummarizer::Options summarizer_options() const {
    return summarizer_options_for(features().window_size);
  }
  streams::EcmStreamSummarizer::Options summarizer_options_for(
      std::size_t window) const {
    streams::EcmStreamSummarizer::Options options;
    options.window = window;
    options.bins = options_.bins;
    options.z_span = options_.z_span;
    options.width = options_.width;
    options.depth = options_.depth;
    options.eh_k = options_.eh_k;
    options.seed = options_.seed;
    return options;
  }

  EcmOptions options_;
  IntervalKeyMap map_;
};

// --- lsh: signed-random-projection bucket routing ----------------------------

class LshStrategy final : public IndexingStrategy {
 public:
  LshStrategy(const LshOptions& options, dsp::FeatureConfig features,
              common::IdSpace space)
      : IndexingStrategy(StrategyKind::kLsh, features),
        map_(options, 2 * features.num_coefficients, space) {}

  std::unique_ptr<Summarizer> make_summarizer() const override {
    return std::make_unique<DftSummarizer>(features());
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
    const StrategyOptions& options, dsp::FeatureConfig features,
    common::IdSpace space) {
  switch (options.kind) {
    case StrategyKind::kDft:
      return std::make_unique<DftStrategy>(features, space);
    case StrategyKind::kEcm: {
      EcmOptions ecm = options.ecm;
      return std::make_unique<EcmStrategy>(ecm, features, space);
    }
    case StrategyKind::kLsh:
      return std::make_unique<LshStrategy>(options.lsh, features, space);
  }
  SDSI_CHECK(false && "unknown StrategyKind");
  return nullptr;
}

}  // namespace sdsi::core
