// Eq. 6 content-to-key mapping and the h2 stream-id hash.
#include <gtest/gtest.h>

#include "core/mapper.hpp"
#include "core/strategy.hpp"

namespace sdsi::core {
namespace {

dsp::FeatureVector fv(double re, double im = 0.0) {
  return dsp::FeatureVector({dsp::Complex{re, im}});
}

TEST(SummaryMapper, PaperAnchorsAtM5) {
  // "X1 = -1, 0 and +1 map to 0, 2^(m-1), and 2^m - 1 respectively."
  const SummaryMapper mapper{common::IdSpace(5)};
  EXPECT_EQ(mapper.key_for_coordinate(-1.0), 0u);
  EXPECT_EQ(mapper.key_for_coordinate(0.0), 16u);
  EXPECT_EQ(mapper.key_for_coordinate(1.0), 31u);
}

TEST(SummaryMapper, PaperWorkedExample) {
  // "The feature vector X = [0.40 0.09] maps to key 22 on the m=5 ring."
  const SummaryMapper mapper{common::IdSpace(5)};
  EXPECT_EQ(mapper.key_for_coordinate(0.40), 22u);
  EXPECT_EQ(mapper.key_for(fv(0.40, 0.09)), 22u);
}

TEST(SummaryMapper, Figure3aQueryRange) {
  // Query X = [-0.08, 0.12], r = 0.29: high boundary 0.21 -> K19, low
  // boundary -0.37 -> K10 (m = 5).
  const SummaryMapper mapper{common::IdSpace(5)};
  const auto [lo, hi] = mapper.query_range(fv(-0.08, 0.12), 0.29);
  EXPECT_EQ(lo, 10u);
  EXPECT_EQ(hi, 19u);
}

TEST(SummaryMapper, Figure4MbrRange) {
  // MBR low (0.09, 0.12), high (0.21, 0.40): keys K19 and K22 wait — in the
  // figure the low corner 0.09 maps to K17 region and high 0.21 to K19; the
  // figure's annotations place the range across N20's arc. We check the
  // mapping is monotone and matches Eq. 6 arithmetic exactly.
  const SummaryMapper mapper{common::IdSpace(5)};
  const dsp::Mbr box({0.09, 0.12}, {0.21, 0.40});
  const auto [lo, hi] = mapper.mbr_range(box);
  EXPECT_EQ(lo, mapper.key_for_coordinate(0.09));
  EXPECT_EQ(hi, mapper.key_for_coordinate(0.21));
  EXPECT_LE(lo, hi);
}

TEST(SummaryMapper, ClampsOutOfRangeCoordinates) {
  const SummaryMapper mapper{common::IdSpace(5)};
  EXPECT_EQ(mapper.key_for_coordinate(-5.0), 0u);
  EXPECT_EQ(mapper.key_for_coordinate(5.0), 31u);
}

class MapperMonotonicity : public ::testing::TestWithParam<unsigned> {};

TEST_P(MapperMonotonicity, Eq6IsMonotoneAndOnto) {
  const SummaryMapper mapper{common::IdSpace(GetParam())};
  Key prev = 0;
  for (int i = 0; i <= 1000; ++i) {
    const double x = -1.0 + 2.0 * i / 1000.0;
    const Key key = mapper.key_for_coordinate(x);
    EXPECT_GE(key, prev) << "x=" << x;
    EXPECT_LE(key, mapper.space().mask());
    prev = key;
  }
  EXPECT_EQ(mapper.key_for_coordinate(-1.0), 0u);
  EXPECT_EQ(mapper.key_for_coordinate(1.0), mapper.space().mask());
}

INSTANTIATE_TEST_SUITE_P(Widths, MapperMonotonicity,
                         ::testing::Values(1, 5, 8, 16, 32, 52));

TEST(SummaryMapper, KeyRangeOrdersEndpoints) {
  const SummaryMapper mapper{common::IdSpace(32)};
  const auto [lo, hi] = mapper.key_range(-0.3, 0.3);
  EXPECT_LT(lo, hi);
  const auto [same_lo, same_hi] = mapper.key_range(0.1, 0.1);
  EXPECT_EQ(same_lo, same_hi);
}

TEST(SummaryMapper, SimilarValuesMapToSameOrNeighborKeys) {
  // The core locality claim of Sec IV-B.
  const SummaryMapper mapper{common::IdSpace(5)};
  const Key a = mapper.key_for(fv(0.40));
  const Key b = mapper.key_for(fv(0.42));
  EXPECT_LE(b - a, 1u);
}

TEST(SummaryMapper, StreamKeyIsDeterministicAndSpread) {
  const common::IdSpace space(32);
  EXPECT_EQ(key_for_stream(space, 42), key_for_stream(space, 42));
  // Different streams hash apart (location load spreads).
  int collisions = 0;
  for (StreamId s = 0; s < 200; ++s) {
    if (key_for_stream(space, s) == key_for_stream(space, s + 1)) {
      ++collisions;
    }
  }
  EXPECT_EQ(collisions, 0);
}

TEST(SummaryMapper, QueryRangeClampsAtSphereEdge) {
  const SummaryMapper mapper{common::IdSpace(8)};
  const auto [lo, hi] = mapper.query_range(fv(0.95), 0.2);
  EXPECT_EQ(hi, mapper.space().mask());  // clamped at +1
  EXPECT_LT(lo, hi);
}

using Ranges = std::vector<std::pair<Key, Key>>;

TEST(NearestOverlapKey, MiddleInsideTheOverlapIsItself) {
  EXPECT_EQ(nearest_overlap_key(Ranges{{10, 40}}, Ranges{{20, 60}}, 30),
            std::optional<Key>(30));
}

TEST(NearestOverlapKey, OverlapAwayFromTheMiddleGivesItsNearEnd) {
  // Overlap [20, 25] lies below the middle, [50, 55] above it.
  EXPECT_EQ(nearest_overlap_key(Ranges{{10, 25}}, Ranges{{20, 60}}, 40),
            std::optional<Key>(25));
  EXPECT_EQ(nearest_overlap_key(Ranges{{50, 55}}, Ranges{{20, 60}}, 40),
            std::optional<Key>(50));
}

TEST(NearestOverlapKey, EveryProbePairCountsAndTiesGoToTheSmallerKey) {
  // The probe overlaps [10, 20] and [60, 70] both come within 20 keys of
  // the middle 40; the tie goes to the smaller key.
  const Ranges batch{{10, 20}, {60, 70}};
  const Ranges query{{0, 30}, {55, 80}};
  EXPECT_EQ(nearest_overlap_key(batch, query, 40), std::optional<Key>(20));
  // A nearer probe pair wins whatever its position in either list.
  const Ranges more{{10, 20}, {60, 70}, {41, 44}};
  const Ranges wide{{0, 30}, {55, 80}, {43, 90}};
  EXPECT_EQ(nearest_overlap_key(more, wide, 40), std::optional<Key>(43));
}

TEST(NearestOverlapKey, DisjointOrWrappingRangesGiveNothing) {
  EXPECT_EQ(nearest_overlap_key(Ranges{{10, 20}}, Ranges{{21, 30}}, 25),
            std::nullopt);
  // A range that wraps key 0 is not a built-in map's; it is skipped.
  EXPECT_EQ(nearest_overlap_key(Ranges{{90, 5}}, Ranges{{0, 10}}, 3),
            std::nullopt);
  EXPECT_EQ(nearest_overlap_key(Ranges{}, Ranges{{0, 10}}, 3), std::nullopt);
}

}  // namespace
}  // namespace sdsi::core
