// Pluggable indexing strategies: the summary / routing-key / index triple
// behind one factory, so the middleware is a testbed for content-based
// stream indexing rather than one paper's design point.
//
// A strategy bundles the three axes the paper fixes in Sections III-IV:
//
//  - Summarizer     — per-stream incremental summary (raw samples in,
//                     FeatureVector out; streams/summarizer.hpp). The
//                     paper's instance is first-k sliding-window DFT
//                     coefficients (streams::StreamSummarizer).
//  - ContentKeyMap  — feature space -> identifier circle. The paper's
//                     instance is the Eq. 6 coefficient-interval map
//                     (core::SummaryMapper, core/mapper.hpp), here with
//                     stub placement (the rule on ContentKeyMap below).
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
// Built-in strategies, each with fixed constants (no caller tunes them):
//  - "dft" — the paper's pipeline, bit-identical to the pre-strategy code
//            (pinned by tests/test_strategy_equivalence.cpp).
//  - "ecm" — ECM-sketch summarizer (Papapetrou et al.): Count-Min of
//            exponential histograms over the sliding window; features are
//            the unit-L2 sqrt-frequency (Hellinger) embedding of the
//            window's value histogram. Routing reuses the Eq. 6 map. Its
//            constants are the defaults of streams::EcmStreamSummarizer::
//            Options.
//  - "lsh" — distributed LSH routing (Bahmani et al.): DFT features, but
//            the content-to-key map hashes them with signed random
//            projections so each signature bucket owns one ring arc;
//            queries multi-probe low-margin neighbor buckets. Recall < 1 by
//            design; the oracle quantifies the loss. Its constants are the
//            defaults of LshOptions (core/lsh_map.hpp).
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
#include "streams/summarizer.hpp"

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

/// Feature space -> identifier circle. Pure and deterministic: equal inputs
/// give equal keys on every node (the property content-based routing needs).
///
/// Placement rule: a batch is stored on as few nodes as the map allows and
/// the query walks far enough to meet it, because batches outnumber queries
/// by orders of magnitude. Whenever a batch's box can meet a query's ball in
/// feature space, some range of mbr_ranges(box) meets some range of
/// query_ranges(ball) (lsh: within its probe cap). The routed ranges are
/// therefore not the geometric image itself:
///  - dft, ecm (SummaryMapper): a batch with routing interval [lo, hi] goes
///    to the stub [min(lo + E, hi), hi], a query to [x1 - r, x1 + r + E];
///  - lsh (LshKeyMap): a batch goes to one key inside each probed bucket
///    arc, a query walks each probed arc whole.
/// Every layer that places or finds an entry (range multicast, designated
/// reporter, acks, refresh, mirrors, handoff and anti-entropy) reads these
/// ranges, so the rule holds on both hosts.
class ContentKeyMap {
 public:
  virtual ~ContentKeyMap() = default;

  virtual Key key_for(const dsp::FeatureVector& features) const = 0;

  /// Primary routed range of a published MBR / posed query. The primary
  /// range is the one the reliability layers track (acks, refresh,
  /// replication arc checks).
  virtual std::pair<Key, Key> mbr_range(const dsp::Mbr& mbr) const = 0;
  virtual std::pair<Key, Key> query_range(const dsp::FeatureVector& features,
                                          double radius) const = 0;

  /// The query's middle key: the node covering it aggregates the query's
  /// matches (Sec IV-C). It is the midpoint of the query's own range before
  /// any placement slack, so the slack lengthens the walk without moving the
  /// aggregator. The default is the query's own key, which for lsh is the
  /// midpoint of the bucket arc query_range returns.
  virtual Key query_middle(const dsp::FeatureVector& features,
                           double radius) const {
    (void)radius;
    return key_for(features);
  }

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
/// [lo, hi] pairs of the built-in maps (Eq. 6 is monotone; lsh stores a
/// batch on single keys and its bucket arcs never cross key 0); a wrapping
/// range is skipped. nullopt when no ranges overlap.
std::optional<Key> nearest_overlap_key(
    std::span<const std::pair<Key, Key>> batch,
    std::span<const std::pair<Key, Key>> query, Key middle);

/// One strategy = a Summarizer factory + a ContentKeyMap + the batch query
/// feature extractor. Construction is cheap and deterministic; the object
/// is immutable after construction and safe to share const across threads.
class IndexingStrategy {
 public:
  /// Aborts when `space` is wider than 52 bits, whatever the kind: a ring
  /// must fit Eq. 6 (2^m exact in a double) for every strategy.
  static std::unique_ptr<IndexingStrategy> make(StrategyKind kind,
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
  virtual std::unique_ptr<streams::Summarizer> make_summarizer() const = 0;

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
