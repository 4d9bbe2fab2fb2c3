// LshKeyMap invariants (core/lsh_map.hpp): deterministic seeded planes,
// bucket arcs that exactly partition the identifier circle, membership
// independence of keys (the churn-stability property docs/STRATEGIES.md
// claims for the "lsh" strategy), and the multi-probe range discipline
// (primary first, distinct, capped at max_probes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/ring_math.hpp"
#include "common/rng.hpp"
#include "core/lsh_map.hpp"
#include "dsp/features.hpp"
#include "dsp/mbr.hpp"

namespace sdsi::core {
namespace {

dsp::FeatureVector make_features(std::span<const double> reals) {
  dsp::FeatureVector out;
  auto coeffs = out.overwrite(reals.size() / 2);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    coeffs[i] = dsp::Complex(reals[2 * i], reals[2 * i + 1]);
  }
  return out;
}

dsp::FeatureVector random_features(common::Pcg32& rng, std::size_t dims) {
  std::vector<double> reals(dims);
  double norm_sq = 0.0;
  for (double& x : reals) {
    x = rng.normal();
    norm_sq += x * x;
  }
  for (double& x : reals) {
    x /= std::sqrt(norm_sq);
  }
  return make_features(reals);
}

LshKeyMap make_map(std::size_t planes = 6, std::size_t max_probes = 8) {
  LshOptions options;
  options.planes = planes;
  options.max_probes = max_probes;
  return LshKeyMap(options, 4, common::IdSpace(16));
}

TEST(LshKeyMap, DeterministicAcrossInstances) {
  const LshKeyMap a = make_map();
  const LshKeyMap b = make_map();
  common::Pcg32 rng(11u, 0x5eedu);
  for (int i = 0; i < 50; ++i) {
    const dsp::FeatureVector f = random_features(rng, 4);
    EXPECT_EQ(a.signature_of(f), b.signature_of(f));
    EXPECT_EQ(a.key_for(f), b.key_for(f));
  }
}

TEST(LshKeyMap, BucketArcsPartitionTheRing) {
  const LshKeyMap map = make_map(4);
  const common::IdSpace space(16);
  std::uint64_t covered = 0;
  Key expected_lo = 0;
  for (std::uint64_t b = 0; b < (1u << 4); ++b) {
    const auto [lo, hi] = map.bucket_arc(b);
    EXPECT_EQ(lo, expected_lo);
    EXPECT_LE(lo, hi);
    covered += hi - lo + 1;
    expected_lo = space.wrap(hi + 1);
  }
  EXPECT_EQ(covered, std::uint64_t{1} << 16);
  EXPECT_EQ(expected_lo, 0u);  // wrapped all the way around
}

TEST(LshKeyMap, KeyLandsInsideItsSignatureArc) {
  const LshKeyMap map = make_map();
  common::Pcg32 rng(17u, 0x5eedu);
  for (int i = 0; i < 50; ++i) {
    const dsp::FeatureVector f = random_features(rng, 4);
    const auto [lo, hi] = map.bucket_arc(map.signature_of(f));
    const Key key = map.key_for(f);
    EXPECT_GE(key, lo);
    EXPECT_LE(key, hi);
  }
}

TEST(LshKeyMap, QueryRangesPrimaryFirstDistinctAndCapped) {
  const std::size_t max_probes = 5;
  const LshKeyMap map = make_map(6, max_probes);
  common::Pcg32 rng(23u, 0x5eedu);
  std::vector<std::pair<Key, Key>> ranges;
  for (int i = 0; i < 50; ++i) {
    const dsp::FeatureVector f = random_features(rng, 4);
    map.query_ranges(f, 0.8, ranges);
    ASSERT_FALSE(ranges.empty());
    EXPECT_LE(ranges.size(), max_probes);
    EXPECT_EQ(ranges.front(), map.query_range(f, 0.8));
    std::set<std::pair<Key, Key>> unique(ranges.begin(), ranges.end());
    EXPECT_EQ(unique.size(), ranges.size());
  }
}

TEST(LshKeyMap, WiderRadiusProbesAtLeastAsManyArcs) {
  const LshKeyMap map = make_map(6, 64);
  common::Pcg32 rng(29u, 0x5eedu);
  std::vector<std::pair<Key, Key>> narrow;
  std::vector<std::pair<Key, Key>> wide;
  for (int i = 0; i < 50; ++i) {
    const dsp::FeatureVector f = random_features(rng, 4);
    map.query_ranges(f, 0.1, narrow);
    map.query_ranges(f, 1.0, wide);
    EXPECT_LE(narrow.size(), wide.size());
  }
}

TEST(LshKeyMap, ZeroRadiusProbesOnlyThePrimary) {
  const LshKeyMap map = make_map();
  common::Pcg32 rng(31u, 0x5eedu);
  std::vector<std::pair<Key, Key>> ranges;
  for (int i = 0; i < 20; ++i) {
    const dsp::FeatureVector f = random_features(rng, 4);
    map.query_ranges(f, 0.0, ranges);
    // Only planes the point lies exactly on (margin 0) can add probes.
    EXPECT_LE(ranges.size(), 2u);
    EXPECT_EQ(ranges.front(), map.query_range(f, 0.0));
  }
}

TEST(LshKeyMap, MbrRangesCoverEveryCornerSignature) {
  // Every corner of the box hashes to some signature; the probed buckets
  // (straddled-plane flips of the box signature) must include each corner's
  // bucket when the probe budget allows it. A box is stored on one key per
  // probed bucket, so each corner's arc must contain a probed key.
  const LshKeyMap map = make_map(4, 64);
  common::Pcg32 rng(37u, 0x5eedu);
  std::vector<std::pair<Key, Key>> ranges;
  for (int i = 0; i < 30; ++i) {
    const dsp::FeatureVector a = random_features(rng, 4);
    const dsp::FeatureVector b = random_features(rng, 4);
    dsp::Mbr box(a);
    box.extend(b);
    map.mbr_ranges(box, ranges);
    EXPECT_EQ(ranges.front(), map.mbr_range(box));
    for (const auto& [lo, hi] : ranges) {
      EXPECT_EQ(lo, hi) << "a box is stored on single keys";
    }
    for (const dsp::FeatureVector* corner : {&a, &b}) {
      const auto [arc_lo, arc_hi] = map.bucket_arc(map.signature_of(*corner));
      EXPECT_TRUE(std::any_of(ranges.begin(), ranges.end(),
                              [&](const std::pair<Key, Key>& key) {
                                return key.first >= arc_lo &&
                                       key.first <= arc_hi;
                              }))
          << "corner bucket not probed on iteration " << i;
    }
  }
}

TEST(LshKeyMap, KeysIgnoreRingMembership) {
  // The map is constructed from (options, dims, id space) alone: two maps
  // built for rings of different *node* populations — same id space — agree
  // on every key, which is exactly why churn never re-keys content.
  const LshKeyMap sparse_ring = make_map();
  const LshKeyMap dense_ring = make_map();
  common::Pcg32 rng(41u, 0x5eedu);
  for (int i = 0; i < 20; ++i) {
    const dsp::FeatureVector f = random_features(rng, 4);
    EXPECT_EQ(sparse_ring.key_for(f), dense_ring.key_for(f));
  }
}

TEST(LshKeyMap, RejectsDegenerateGeometry) {
  LshOptions options;
  options.planes = 0;
  EXPECT_DEATH(LshKeyMap(options, 4, common::IdSpace(16)), "");
}

}  // namespace
}  // namespace sdsi::core
