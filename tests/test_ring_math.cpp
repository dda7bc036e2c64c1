// Modular interval logic on the identifier circle — the foundation Chord's
// correctness rests on.
#include <gtest/gtest.h>

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

TEST(IdSpace, RangeIntersectsArcWrappedRange) {
  const IdSpace space(6);
  // [60, 3] wraps through 0.
  EXPECT_TRUE(space.range_intersects_arc(60, 3, 1, 10));    // ends inside
  EXPECT_TRUE(space.range_intersects_arc(60, 3, 55, 62));   // starts inside
  EXPECT_FALSE(space.range_intersects_arc(60, 3, 10, 50));  // clear of it
  // A wrapped arc (55, 5] against a plain range ending at its start.
  EXPECT_FALSE(space.range_intersects_arc(40, 55, 55, 5));
}

TEST(IdSpace, RangeIntersectsArcSwallowsWholeArc) {
  const IdSpace space(6);
  // Neither endpoint lies in the arc, but the range covers it entirely.
  EXPECT_TRUE(space.range_intersects_arc(5, 40, 10, 20));
  EXPECT_TRUE(space.range_intersects_arc(50, 30, 55, 5));  // both wrap
  // A one-point range on the arc's closed end.
  EXPECT_TRUE(space.range_intersects_arc(20, 20, 10, 20));
  // a == b is the full circle: every range meets it.
  EXPECT_TRUE(space.range_intersects_arc(33, 34, 7, 7));
}

TEST(IdSpace, RangeIntersectsArcDisjointRange) {
  const IdSpace space(6);
  EXPECT_FALSE(space.range_intersects_arc(21, 30, 10, 20));
  // The arc is open at a: a range ending exactly at a misses it.
  EXPECT_FALSE(space.range_intersects_arc(5, 10, 10, 20));
  EXPECT_FALSE(space.range_intersects_arc(10, 10, 10, 20));
}

class IdSpaceWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(IdSpaceWidths, IntervalIdentities) {
  const IdSpace space(GetParam());
  // a != b at every width: the identities do not hold for a == b, where
  // (a, a] is the full circle but [a, a] a single point. a sits a quarter of
  // the way round and b half the circle further (at least one step).
  const Key a = space.mask() / 4;
  const Key half = space.mask() / 2 > 0 ? space.mask() / 2 : 1;
  const Key b = space.wrap(a + half);
  ASSERT_NE(a, b);
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
