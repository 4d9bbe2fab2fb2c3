// Pluggable indexing strategies: the summary / routing-key / index triple
// behind one factory, so the middleware is a testbed for content-based
// stream indexing rather than one paper's design point.
//
// A strategy bundles the three axes the paper fixes in Sections III-IV:
//
//  - Summarizer     — per-stream incremental summary (raw samples in,
//                     FeatureVector out). The paper's instance is first-k
//                     sliding-window DFT coefficients (streams/summarizer.hpp).
//  - ContentKeyMap  — feature space -> identifier circle. The paper's
//                     instance is the Eq. 6 coefficient-interval map
//                     (core/mapper.hpp).
//  - IndexStore     — node-local storage + matching. All built-in strategies
//                     share core::IndexStore (interval-pruned MBRs): its
//                     pruning is a pure first-coordinate distance lower
//                     bound, valid for any feature embedding. A strategy
//                     with its own store (e.g. BSTree) would plug in here.
//
// Contract (docs/STRATEGIES.md is the full reference):
//  - Determinism: a summarizer's output is a pure function of the samples
//    pushed; a key map is a pure function of its inputs and construction
//    seed. No clocks, no global RNG draws.
//  - Lower-bounding: features of similar windows must be close (the store's
//    MBR containment test and first-coordinate pruning must never produce a
//    false dismissal *in feature space*), so the recall oracle's brute-force
//    shadow stays a meaningful ceiling for every strategy.
//  - Idempotent stores: routing may redeliver; the (stream, batch_seq) dedup
//    in IndexStore must keep redelivery invisible.
//  - Coordinates live in [-1, 1] (the Eq. 6 clamp domain), and the FIRST
//    coordinate is the routing coordinate (Mbr::routing_low/high).
//
// Built-in strategies:
//  - "dft" — the paper's pipeline, bit-identical to the pre-strategy code
//            (pinned by tests/test_strategy_equivalence.cpp).
//  - "ecm" — ECM-sketch summarizer (Papapetrou et al.): Count-Min of
//            exponential histograms over the sliding window; features are
//            the unit-L2 sqrt-frequency (Hellinger) embedding of the
//            window's value histogram. Routing reuses the Eq. 6 map.
//  - "lsh" — distributed LSH routing (Bahmani et al.): DFT features, but
//            the content-to-key map hashes them with signed random
//            projections so each signature bucket owns one ring arc;
//            queries multi-probe low-margin neighbor buckets. Recall < 1 by
//            design; the oracle quantifies the loss.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ring_math.hpp"
#include "common/types.hpp"
#include "dsp/features.hpp"
#include "dsp/mbr.hpp"

namespace sdsi::core {

enum class StrategyKind : std::uint8_t {
  kDft = 0,  // first-k DFT + Eq. 6 interval map (the paper; default)
  kEcm = 1,  // ECM-sketch histogram summarizer + Eq. 6 interval map
  kLsh = 2,  // DFT summarizer + LSH bucket content-to-key map
};

/// Stable CLI / metrics.json spelling ("dft" / "ecm" / "lsh").
const char* strategy_name(StrategyKind kind) noexcept;

/// Inverse of strategy_name; nullopt on unknown spellings.
std::optional<StrategyKind> parse_strategy(std::string_view name) noexcept;

/// ECM-sketch strategy knobs (streams/ecm_sketch.hpp holds the sketch).
struct EcmOptions {
  /// Histogram bins = feature dimensions (packed two per complex coeff,
  /// so `bins` must be even). Routing coordinate = central bin's mass.
  std::size_t bins = 8;
  /// Count-Min geometry: `width` cells per row, `depth` rows (estimate =
  /// min over rows). With width >= bins collisions are rare and the
  /// exponential-histogram window error dominates.
  std::size_t width = 32;
  std::size_t depth = 3;
  /// Exponential-histogram merge threshold k: per-cell sliding-window
  /// counts carry relative error <= 1/(2k) (Datar et al. bound).
  std::size_t eh_k = 8;
  /// Quantization: samples are z-scaled by running (Welford) stream stats
  /// and binned uniformly over [-z_span, +z_span].
  double z_span = 3.0;
  std::uint64_t seed = 0xec5eedULL;
};

/// LSH-routing strategy knobs.
struct LshOptions {
  /// Signature bits (hyperplanes); the ring splits into 2^planes bucket
  /// arcs. Must not exceed the id-space bit width.
  std::size_t planes = 6;
  /// Multi-probe cap: primary bucket + at most (max_probes - 1) single-bit
  /// flips of low-margin planes.
  std::size_t max_probes = 8;
  std::uint64_t seed = 0x15b45eedULL;
};

struct StrategyOptions {
  StrategyKind kind = StrategyKind::kDft;
  EcmOptions ecm;
  LshOptions lsh;
};

/// Per-stream incremental summary. Mirrors streams::StreamSummarizer's
/// surface (which the dft strategy adapts verbatim); one instance is owned
/// by exactly one stream and never shared across threads.
class Summarizer {
 public:
  virtual ~Summarizer() = default;

  virtual void push(Sample value) = 0;

  /// True once a full window has been observed.
  virtual bool ready() const noexcept = 0;
  virtual std::uint64_t samples_seen() const noexcept = 0;

  /// Current feature vector into `out` (reusing capacity); false until
  /// ready() or when the window is degenerate. `out` unchanged on false.
  virtual bool features_into(dsp::FeatureVector& out) const = 0;

  /// Approximate raw window (oldest first, raw data scale) for local
  /// inner-product answering (paper Eq. 7); false when not ready. The dft
  /// strategy reconstructs from the synopsis and undoes the normalization;
  /// ecm copies its exact raw ring.
  virtual bool approx_window(std::vector<Sample>& out) const = 0;
};

/// Feature space -> identifier circle. Pure and deterministic: equal inputs
/// give equal keys on every node (the property content-based routing needs).
class ContentKeyMap {
 public:
  virtual ~ContentKeyMap() = default;

  virtual Key key_for(const dsp::FeatureVector& features) const = 0;

  /// Primary key range of a published MBR / posed query. The primary range
  /// is the one the reliability layers track (acks, refresh, replication
  /// arc checks) and the one whose midpoint hosts the query's aggregator.
  virtual std::pair<Key, Key> mbr_range(const dsp::Mbr& mbr) const = 0;
  virtual std::pair<Key, Key> query_range(const dsp::FeatureVector& features,
                                          double radius) const = 0;

  /// Full probe set, primary first. Single-range maps (dft/ecm) emit
  /// exactly the primary; lsh appends neighbor-bucket probes. `out` is
  /// cleared first.
  virtual void mbr_ranges(const dsp::Mbr& mbr,
                          std::vector<std::pair<Key, Key>>& out) const;
  virtual void query_ranges(const dsp::FeatureVector& features, double radius,
                            std::vector<std::pair<Key, Key>>& out) const;
};

/// The designated report point of a (batch, query) candidate: over every
/// overlap of a batch range with a query range (each list a full probe set,
/// as mbr_ranges / query_ranges emit it), the key nearest `middle`, ties to
/// the smaller key. The node covering that key holds both the batch and the
/// subscription, so it alone reports the pair. Ranges are the non-wrapping
/// [lo, hi] pairs of the built-in maps (Eq. 6 is monotone; lsh bucket arcs
/// never cross key 0); a wrapping range is skipped. nullopt when no ranges
/// overlap.
std::optional<Key> nearest_overlap_key(
    std::span<const std::pair<Key, Key>> batch,
    std::span<const std::pair<Key, Key>> query, Key middle);

/// One strategy = a Summarizer factory + a ContentKeyMap + the batch query
/// feature extractor. Construction is cheap and deterministic; the object
/// is immutable after construction and safe to share const across threads.
class IndexingStrategy {
 public:
  static std::unique_ptr<IndexingStrategy> make(const StrategyOptions& options,
                                                dsp::FeatureConfig features,
                                                common::IdSpace space);

  virtual ~IndexingStrategy() = default;

  StrategyKind kind() const noexcept { return kind_; }
  const char* name() const noexcept { return strategy_name(kind_); }
  const dsp::FeatureConfig& features() const noexcept { return features_; }
  /// Complex coefficients in each feature vector this strategy produces;
  /// its MBRs span twice as many real dimensions.
  virtual std::size_t coefficients() const noexcept {
    return features_.num_coefficients;
  }

  /// Fresh summarizer for one local stream.
  virtual std::unique_ptr<Summarizer> make_summarizer() const = 0;

  /// The shared, stateless key map.
  virtual const ContentKeyMap& key_map() const = 0;

  /// Features of a complete raw window (query construction: the batch
  /// equivalent of what make_summarizer() computes incrementally).
  virtual dsp::FeatureVector features_from_window(
      std::span<const Sample> window) const = 0;

 protected:
  IndexingStrategy(StrategyKind kind, dsp::FeatureConfig features)
      : kind_(kind), features_(std::move(features)) {}

 private:
  StrategyKind kind_;
  dsp::FeatureConfig features_;
};

}  // namespace sdsi::core
