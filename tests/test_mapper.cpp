// Eq. 6 content-to-key mapping, the stub placement rule and the h2
// stream-id hash.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
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
  const auto [lo, hi] = mapper.key_range(-0.08 - 0.29, -0.08 + 0.29);
  EXPECT_EQ(lo, 10u);
  EXPECT_EQ(hi, 19u);
  // The routed range keeps the low end and widens the high end by the
  // slack: [h(-0.37), h(0.21 + E)]. One key spans 0.0625 at m = 5, so the
  // widened end stays on K19.
  const auto [qlo, qhi] = mapper.query_range(fv(-0.08, 0.12), 0.29);
  EXPECT_EQ(qlo, 10u);
  EXPECT_EQ(qhi,
            mapper.key_for_coordinate(-0.08 + 0.29 + SummaryMapper::kSlack));
  EXPECT_EQ(qhi, 19u);
}

TEST(SummaryMapper, Figure4MbrRange) {
  // MBR low (0.09, 0.12), high (0.21, 0.40): its routing interval is
  // [0.09, 0.21], whose Eq. 6 image is [h(0.09), h(0.21)] = [K17, K19].
  const SummaryMapper mapper{common::IdSpace(5)};
  const auto [lo, hi] = mapper.key_range(0.09, 0.21);
  EXPECT_EQ(lo, mapper.key_for_coordinate(0.09));
  EXPECT_EQ(hi, mapper.key_for_coordinate(0.21));
  EXPECT_EQ(lo, 17u);
  EXPECT_EQ(hi, 19u);
  // The batch is stored over the stub [h(0.09 + E), h(0.21)].
  const dsp::Mbr box({0.09, 0.12}, {0.21, 0.40});
  const auto [slo, shi] = mapper.mbr_range(box);
  EXPECT_EQ(slo, mapper.key_for_coordinate(0.09 + SummaryMapper::kSlack));
  EXPECT_EQ(shi, hi);
  EXPECT_LE(lo, slo);
  EXPECT_LE(slo, shi);
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

bool ranges_meet(std::pair<Key, Key> a, std::pair<Key, Key> b) {
  return std::max(a.first, b.first) <= std::min(a.second, b.second);
}

class StubPlacement : public ::testing::TestWithParam<unsigned> {};

TEST_P(StubPlacement, StubMeetsTheWidenedQueryWheneverTheIntervalsMeet) {
  // Random batch intervals [lo, hi] and query balls [x - r, x + r]: when
  // the two meet in routing coordinates, the stored stub must meet the
  // routed query in coordinates and in keys, and the designated report
  // point must lie inside both ranges.
  const SummaryMapper mapper{common::IdSpace(GetParam())};
  const double slack = SummaryMapper::kSlack;
  common::Pcg32 rng(GetParam(), 0x57ab);
  int met = 0;
  for (int i = 0; i < 20000; ++i) {
    double lo = rng.uniform(-1.0, 1.0);
    double hi = rng.uniform(-1.0, 1.0);
    if (lo > hi) {
      std::swap(lo, hi);
    }
    if (i % 4 == 0) {
      hi = std::min(1.0, lo + rng.uniform(0.0, 2.0 * slack));  // narrow
    }
    const double x = rng.uniform(-1.0, 1.0);
    const double r = rng.uniform(0.0, 0.5);
    if (lo > x + r || hi < x - r) {
      continue;  // no obligation: the intervals are disjoint
    }
    ++met;
    const double stub_lo = std::min(lo + slack, hi);
    EXPECT_LE(stub_lo, x + r + slack);
    EXPECT_GE(hi, x - r);

    const dsp::Mbr box({lo, 0.0}, {hi, 0.0});
    const auto batch = mapper.mbr_range(box);
    const auto query = mapper.query_range(fv(x), r);
    EXPECT_EQ(batch, mapper.key_range(stub_lo, hi));
    EXPECT_EQ(query, mapper.key_range(x - r, x + r + slack));
    ASSERT_TRUE(ranges_meet(batch, query))
        << "batch [" << lo << ", " << hi << "] query " << x << " +- " << r;
    const Key middle = mapper.space().midpoint(query.first, query.second);
    const std::optional<Key> point =
        nearest_overlap_key(Ranges{batch}, Ranges{query}, middle);
    ASSERT_TRUE(point.has_value());
    EXPECT_GE(*point, std::max(batch.first, query.first));
    EXPECT_LE(*point, std::min(batch.second, query.second));
  }
  EXPECT_GT(met, 1000);
}

TEST_P(StubPlacement, BatchNarrowerThanTheSlackLandsOnOneKey) {
  const SummaryMapper mapper{common::IdSpace(GetParam())};
  common::Pcg32 rng(GetParam(), 0x0e);
  for (int i = 0; i < 1000; ++i) {
    const double lo = rng.uniform(-1.0, 1.0 - SummaryMapper::kSlack);
    const double hi = lo + rng.uniform(0.0, SummaryMapper::kSlack);
    const auto [slo, shi] = mapper.mbr_range(dsp::Mbr({lo, 0.0}, {hi, 0.0}));
    EXPECT_EQ(slo, shi) << "[" << lo << ", " << hi << "]";
    EXPECT_EQ(shi, mapper.key_for_coordinate(hi));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, StubPlacement, ::testing::Values(5u, 32u));

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
