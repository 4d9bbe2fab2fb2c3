// Modular interval logic on the identifier circle — the foundation Chord's
// correctness rests on.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/ring_math.hpp"

namespace sdsi::common {
namespace {

TEST(IdSpace, SizeAndMask) {
  EXPECT_EQ(IdSpace(5).size(), 32u);
  EXPECT_EQ(IdSpace(5).mask(), 31u);
  EXPECT_EQ(IdSpace(32).size(), 1ull << 32);
  EXPECT_EQ(IdSpace(64).mask(), ~0ull);
}

TEST(IdSpace, WrapReducesModulo) {
  const IdSpace space(5);
  EXPECT_EQ(space.wrap(32), 0u);
  EXPECT_EQ(space.wrap(33), 1u);
  EXPECT_EQ(space.wrap(31), 31u);
}

TEST(IdSpace, DistanceIsClockwise) {
  const IdSpace space(5);
  EXPECT_EQ(space.distance(3, 10), 7u);
  EXPECT_EQ(space.distance(10, 3), 25u);
  EXPECT_EQ(space.distance(7, 7), 0u);
  EXPECT_EQ(space.distance(31, 0), 1u);
}

TEST(IdSpace, FingerStartMatchesPaperExample) {
  // Figure 1(a): node 8's fingers start at 9, 10, 12, 16, 24.
  const IdSpace space(5);
  EXPECT_EQ(space.finger_start(8, 0), 9u);
  EXPECT_EQ(space.finger_start(8, 1), 10u);
  EXPECT_EQ(space.finger_start(8, 2), 12u);
  EXPECT_EQ(space.finger_start(8, 3), 16u);
  EXPECT_EQ(space.finger_start(8, 4), 24u);
  // Wrap: node 20 + 16 = 36 mod 32 = 4.
  EXPECT_EQ(space.finger_start(20, 4), 4u);
}

TEST(IdSpace, OpenIntervalNonWrapping) {
  const IdSpace space(5);
  EXPECT_TRUE(space.in_open(5, 3, 10));
  EXPECT_FALSE(space.in_open(3, 3, 10));
  EXPECT_FALSE(space.in_open(10, 3, 10));
  EXPECT_FALSE(space.in_open(11, 3, 10));
}

TEST(IdSpace, OpenIntervalWrapping) {
  const IdSpace space(5);
  EXPECT_TRUE(space.in_open(31, 28, 4));
  EXPECT_TRUE(space.in_open(0, 28, 4));
  EXPECT_TRUE(space.in_open(3, 28, 4));
  EXPECT_FALSE(space.in_open(4, 28, 4));
  EXPECT_FALSE(space.in_open(28, 28, 4));
  EXPECT_FALSE(space.in_open(10, 28, 4));
}

TEST(IdSpace, OpenIntervalDegenerate) {
  const IdSpace space(5);
  // (a, a) is empty.
  EXPECT_FALSE(space.in_open(5, 7, 7));
  EXPECT_FALSE(space.in_open(7, 7, 7));
}

TEST(IdSpace, HalfOpenInterval) {
  const IdSpace space(5);
  EXPECT_TRUE(space.in_half_open(10, 3, 10));
  EXPECT_FALSE(space.in_half_open(3, 3, 10));
  EXPECT_TRUE(space.in_half_open(4, 3, 10));
  EXPECT_FALSE(space.in_half_open(11, 3, 10));
}

TEST(IdSpace, HalfOpenFullCircleConvention) {
  // (a, a] is the whole ring: a lone node succeeds every key.
  const IdSpace space(5);
  EXPECT_TRUE(space.in_half_open(0, 7, 7));
  EXPECT_TRUE(space.in_half_open(7, 7, 7));
  EXPECT_TRUE(space.in_half_open(31, 7, 7));
}

TEST(IdSpace, ClosedInterval) {
  const IdSpace space(5);
  EXPECT_TRUE(space.in_closed(3, 3, 10));
  EXPECT_TRUE(space.in_closed(10, 3, 10));
  EXPECT_TRUE(space.in_closed(7, 3, 10));
  EXPECT_FALSE(space.in_closed(11, 3, 10));
  EXPECT_FALSE(space.in_closed(2, 3, 10));
  // Single point when a == b.
  EXPECT_TRUE(space.in_closed(5, 5, 5));
  EXPECT_FALSE(space.in_closed(6, 5, 5));
}

TEST(IdSpace, ClosedIntervalWrapping) {
  const IdSpace space(5);
  EXPECT_TRUE(space.in_closed(30, 28, 2));
  EXPECT_TRUE(space.in_closed(0, 28, 2));
  EXPECT_TRUE(space.in_closed(2, 28, 2));
  EXPECT_FALSE(space.in_closed(3, 28, 2));
  EXPECT_FALSE(space.in_closed(27, 28, 2));
}

TEST(IdSpace, Midpoint) {
  const IdSpace space(5);
  EXPECT_EQ(space.midpoint(0, 10), 5u);
  EXPECT_EQ(space.midpoint(10, 10), 10u);
  // Wrapping range [30, 4]: length 6, midpoint 30 + 3 = 33 mod 32 = 1.
  EXPECT_EQ(space.midpoint(30, 4), 1u);
}

TEST(IdSpace, MidpointIsInsideRange) {
  const IdSpace space(8);
  for (Key a = 0; a < 256; a += 17) {
    for (Key b = 0; b < 256; b += 13) {
      const Key mid = space.midpoint(a, b);
      EXPECT_TRUE(space.in_closed(mid, a, b))
          << "a=" << a << " b=" << b << " mid=" << mid;
    }
  }
}

class IdSpaceWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(IdSpaceWidths, IntervalIdentities) {
  const IdSpace space(GetParam());
  const Key quarter = space.mask() / 4;
  const Key a = quarter;
  // Half the circle past a; at least one step, so that a != b on the 1- and
  // 2-bit rings, where quarter is 0.
  const Key b = space.wrap(a + std::max<Key>(1, 2 * quarter));
  // in_half_open == in_open || key == b.
  for (const Key key :
       {Key{0}, a, space.wrap(a + 1), space.wrap(b - 1), b, space.mask()}) {
    EXPECT_EQ(space.in_half_open(key, a, b),
              space.in_open(key, a, b) || key == b)
        << "bits=" << GetParam() << " key=" << key;
    // in_closed == in_half_open || key == a.
    EXPECT_EQ(space.in_closed(key, a, b),
              space.in_half_open(key, a, b) || key == a)
        << "bits=" << GetParam() << " key=" << key;
  }
}

TEST_P(IdSpaceWidths, DistanceTriangleOnCircle) {
  const IdSpace space(GetParam());
  const Key a = 1;
  const Key b = space.mask() / 3;
  const Key c = space.wrap(2 * static_cast<std::uint64_t>(space.mask() / 3));
  // Going a->b->c clockwise equals going a->c when b is on the way.
  EXPECT_EQ(space.wrap(space.distance(a, b) + space.distance(b, c)),
            space.distance(a, c));
}

INSTANTIATE_TEST_SUITE_P(Widths, IdSpaceWidths,
                         ::testing::Values(1, 2, 5, 8, 16, 32, 52, 63, 64));

}  // namespace
}  // namespace sdsi::common
