// Adversarial workload shaping (ROADMAP: survive adversarial skew).
//
// The paper's evaluation draws everything uniformly: one stream per node,
// query clients uniform, query patterns fresh random walks. Content routing
// then spreads keys evenly and Fig 6(b)'s load-uniformity claim follows
// almost by construction. Real deployments are not uniform — popularity is
// Zipf, correlated assets move together, and flash crowds pile correlated
// keys plus correlated queries onto one narrow ring arc at once. This module
// supplies the deterministic skew machinery the robustness experiments feed
// into the Experiment harness:
//
//  - ZipfSampler: inverse-CDF Zipf(s) over ranks, for popularity-skewed
//    pattern pools and client placement.
//  - skewed_node_ids: non-uniform node placement (u^skew), leaving a few
//    nodes owning most of the identifier circle.
//  - FlashCrowd / AdversarialSpec: a declarative scenario — a sector-
//    correlated price shock (StockMarketModel::apply_sector_shock) paired
//    with a query-rate boost over the same interval.
//
// Everything here is seed-deterministic and rng-draw-stable: enabling a
// flash crowd does not perturb the draw sequence of the underlying market,
// so the pre-shock prefix of an adversarial run is byte-identical to the
// benign run with the same seed.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ring_math.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace sdsi::streams {

/// Inverse-CDF sampler for the Zipf distribution over ranks {0, .., n-1}:
/// P(rank = k) proportional to 1 / (k + 1)^exponent. Table-driven, so one
/// sample costs a binary search and exactly one rng draw (determinism:
/// enabling skew consumes the same number of draws per call site no matter
/// the exponent).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  /// Draws one rank (one uniform01 draw).
  std::size_t sample(common::Pcg32& rng) const;

  std::size_t size() const noexcept { return cdf_.size(); }
  double exponent() const noexcept { return exponent_; }

 private:
  std::vector<double> cdf_;  // cumulative, cdf_.back() == 1.0
  double exponent_;
};

/// Non-uniform node placement on the identifier circle: ids are drawn as
/// u^skew scaled to the id space (sorted, deduplicated by nudging), so most
/// nodes crowd into the low arc while a handful own huge high-arc ranges —
/// the worst case for content routing's "load follows keys" argument.
/// skew = 1 reduces to uniform placement; the uniform hash placement of
/// routing::hash_node_ids remains the default everywhere.
std::vector<Key> skewed_node_ids(std::size_t count, common::IdSpace space,
                                 std::uint64_t seed, double skew);

/// One sector-correlated flash crowd: at `at_seconds` (absolute simulation
/// time; warmup starts at 0) sector kSector's factor gets an additive
/// kMagnitude shock for kSteps market steps, marching every ticker of the
/// sector in lockstep — their DFT keys converge onto one narrow arc. For
/// kBoostDurationSeconds from then the query arrival rate is multiplied by
/// kQueryBoost (the crowd *asks* about what is moving).
struct FlashCrowd {
  static constexpr std::size_t kSector = 0;
  static constexpr double kMagnitude = 0.03;  // per-step sector log-return
  static constexpr int kSteps = 40;
  static constexpr double kQueryBoost = 4.0;
  static constexpr double kBoostDurationSeconds = 20.0;

  double at_seconds = 0.0;
};

/// Full adversarial-workload scenario consumed by core::Experiment.
struct AdversarialSpec {
  /// Query patterns draw from a pool of `pattern_pool` fixed base patterns
  /// with Zipf(zipf_exponent)-distributed popularity, instead of a fresh
  /// random pattern per query: popular patterns concentrate subscriptions
  /// onto the arcs owning their key ranges. 0 keeps per-query patterns.
  std::size_t pattern_pool = 8;
  double zipf_exponent = 1.1;

  /// Query *clients* are drawn Zipf(zipf_exponent) over node rank instead of
  /// uniformly (a few data centers pose most queries). False keeps uniform.
  bool zipf_clients = false;

  /// Node-id placement skew (see skewed_node_ids); 0 keeps uniform hashing.
  double placement_skew = 0.0;

  /// Optional flash-crowd event (stock family only).
  std::optional<FlashCrowd> flash_crowd;
};

}  // namespace sdsi::streams
