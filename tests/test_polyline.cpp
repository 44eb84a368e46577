#include "geo/polyline.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mobipriv::geo {
namespace {

std::vector<Point2> LShape() {
  // Two segments of 100 m each.
  return {{0.0, 0.0}, {100.0, 0.0}, {100.0, 100.0}};
}

TEST(PolylineLength, Basic) {
  EXPECT_DOUBLE_EQ(PolylineLength({}), 0.0);
  EXPECT_DOUBLE_EQ(PolylineLength({{1.0, 1.0}}), 0.0);
  EXPECT_DOUBLE_EQ(PolylineLength(LShape()), 200.0);
}

TEST(CumulativeLengths, Basic) {
  const auto cum = CumulativeLengths(LShape());
  ASSERT_EQ(cum.size(), 3u);
  EXPECT_DOUBLE_EQ(cum[0], 0.0);
  EXPECT_DOUBLE_EQ(cum[1], 100.0);
  EXPECT_DOUBLE_EQ(cum[2], 200.0);
  EXPECT_TRUE(CumulativeLengths({}).empty());
}

TEST(PointAtLength, InterpolatesAndClamps) {
  const auto path = LShape();
  const auto cum = CumulativeLengths(path);
  EXPECT_EQ(PointAtLength(path, cum, -5.0), (Point2{0.0, 0.0}));
  EXPECT_EQ(PointAtLength(path, cum, 0.0), (Point2{0.0, 0.0}));
  EXPECT_EQ(PointAtLength(path, cum, 50.0), (Point2{50.0, 0.0}));
  EXPECT_EQ(PointAtLength(path, cum, 150.0), (Point2{100.0, 50.0}));
  EXPECT_EQ(PointAtLength(path, cum, 999.0), (Point2{100.0, 100.0}));
}

TEST(PointAtLength, ZeroLengthSegments) {
  const std::vector<Point2> path{{0.0, 0.0}, {0.0, 0.0}, {10.0, 0.0}};
  EXPECT_EQ(PointAtLength(path, 5.0), (Point2{5.0, 0.0}));
}

TEST(ResampleUniform, ExactArcSpacing) {
  const auto out = ResampleUniform(LShape(), 30.0);
  // 200 m / 30 m -> ceil = 7 intervals of 200/7 m of *arc length* each.
  ASSERT_EQ(out.size(), 8u);
  const double expected = 200.0 / 7.0;
  // Verify via arc length along the original path: each output point's
  // distance along the L equals k * 200/7.
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double arc =
        out[i].y > 0.0 ? 100.0 + out[i].y : out[i].x;  // position on the L
    EXPECT_NEAR(arc, expected * static_cast<double>(i), 1e-9);
  }
  // On straight runs (no corner between points) chord == arc spacing.
  EXPECT_NEAR(Distance(out[0], out[1]), expected, 1e-9);
  EXPECT_EQ(out.front(), (Point2{0.0, 0.0}));
  EXPECT_EQ(out.back(), (Point2{100.0, 100.0}));
}

TEST(ChordResample, ExactChordSpacingOnStraightLine) {
  const std::vector<Point2> line{{0.0, 0.0}, {100.0, 0.0}};
  const auto out = ChordResample(line, 30.0);
  // Points at 0, 30, 60, 90, plus the preserved endpoint at 100.
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 1; i + 1 < out.size(); ++i) {
    EXPECT_NEAR(Distance(out[i - 1], out[i]), 30.0, 1e-9);
  }
  EXPECT_NEAR(Distance(out[3], out[4]), 10.0, 1e-9);  // final short hop
  EXPECT_EQ(out.back(), (Point2{100.0, 0.0}));
}

TEST(ChordResample, ChordSpacingHoldsAcrossCorners) {
  const auto out = ChordResample(LShape(), 30.0);
  ASSERT_GE(out.size(), 3u);
  for (std::size_t i = 1; i + 1 < out.size(); ++i) {
    EXPECT_NEAR(Distance(out[i - 1], out[i]), 30.0, 1e-9)
        << "gap " << i << " is not one chord";
  }
  EXPECT_LE(Distance(out[out.size() - 2], out.back()), 30.0 + 1e-9);
}

TEST(ChordResample, AbsorbsJitterExcursions) {
  // A long dwell: hundreds of small wiggles within 10 m of one spot,
  // between two genuine 100 m moves. Arc length of the wiggle is huge but
  // no wiggle point is ever 30 m from the anchor.
  std::vector<Point2> path{{0.0, 0.0}, {100.0, 0.0}};
  for (int i = 0; i < 300; ++i) {
    path.push_back({100.0 + ((i % 2 == 0) ? 8.0 : -8.0),
                    (i % 3 == 0) ? 6.0 : -6.0});
  }
  path.push_back({200.0, 0.0});
  const auto out = ChordResample(path, 30.0);
  // The wiggle contributes at most a couple of points (its diameter is
  // 16 m < 30 m); without absorption it would contribute ~100 points
  // (total wiggle arc length ~ 4 km).
  EXPECT_LE(out.size(), 10u);
  for (std::size_t i = 1; i + 1 < out.size(); ++i) {
    EXPECT_NEAR(Distance(out[i - 1], out[i]), 30.0, 1e-9);
  }
}

TEST(ChordResample, DegenerateInputs) {
  EXPECT_TRUE(ChordResample({}, 10.0).empty());
  const auto single = ChordResample({{1.0, 2.0}}, 10.0);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single.front(), (Point2{1.0, 2.0}));
  // All-identical points: one output point, no duplicate endpoint.
  const auto zero = ChordResample({{5.0, 5.0}, {5.0, 5.0}, {5.0, 5.0}}, 10.0);
  EXPECT_EQ(zero.size(), 1u);
}

TEST(ChordResample, NonFiniteFixesTerminate) {
  // A NaN or infinite fix makes every crossing root NaN; the scan must
  // stop on the segment instead of emitting points until memory runs out.
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  for (const Point2 bad : {Point2{nan, 0.0}, Point2{inf, 0.0}}) {
    const std::vector<Point2> path{{0.0, 0.0}, {100.0, 0.0}, bad,
                                   {200.0, 0.0}};
    const auto out = ChordResample(path, 30.0);
    EXPECT_LE(out.size(), 16u);
    EXPECT_EQ(out.front(), (Point2{0.0, 0.0}));
  }
}

TEST(ChordResample, SpacingLargerThanPath) {
  const auto out = ChordResample(LShape(), 1000.0);
  // Anchor never gets 1000 m away: only first + last survive.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.front(), (Point2{0.0, 0.0}));
  EXPECT_EQ(out.back(), (Point2{100.0, 100.0}));
}

TEST(ChordResample, ClosedLoopKeepsReturnPoint) {
  // Out-and-back: ends where it starts.
  const std::vector<Point2> loop{{0.0, 0.0}, {100.0, 0.0}, {0.0, 0.0}};
  const auto out = ChordResample(loop, 40.0);
  EXPECT_EQ(out.back(), (Point2{0.0, 0.0}));
  for (std::size_t i = 1; i + 1 < out.size(); ++i) {
    EXPECT_NEAR(Distance(out[i - 1], out[i]), 40.0, 1e-9);
  }
}

TEST(ResampleUniform, SpacingLargerThanLength) {
  const auto out = ResampleUniform(LShape(), 1000.0);
  // One interval: endpoints only.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.front(), (Point2{0.0, 0.0}));
  EXPECT_EQ(out.back(), (Point2{100.0, 100.0}));
}

TEST(ResampleUniform, DegenerateInputs) {
  EXPECT_TRUE(ResampleUniform({}, 10.0).empty());
  const auto single = ResampleUniform({{3.0, 4.0}}, 10.0);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single.front(), (Point2{3.0, 4.0}));
  // All points identical: zero-length path.
  const auto zero =
      ResampleUniform({{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}}, 10.0);
  ASSERT_EQ(zero.size(), 2u);
  EXPECT_EQ(zero.front(), zero.back());
}

TEST(ResampleUniform, PointsLieOnOriginalPath) {
  const auto out = ResampleUniform(LShape(), 17.0);
  for (const auto& p : out) {
    EXPECT_LT(DistanceToPolyline(LShape(), p), 1e-9);
  }
}

TEST(ResampleCount, ExactCount) {
  const auto out = ResampleCount(LShape(), 5);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.front(), (Point2{0.0, 0.0}));
  EXPECT_EQ(out.back(), (Point2{100.0, 100.0}));
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_NEAR(Distance(out[i - 1], out[i]), 50.0, 1e-9);
  }
}

TEST(SimplifyRdp, RemovesCollinearPoints) {
  const std::vector<Point2> path{
      {0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}, {10.0, 0.0}};
  const auto out = SimplifyRdp(path, 0.1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.front(), path.front());
  EXPECT_EQ(out.back(), path.back());
}

TEST(SimplifyRdp, KeepsSignificantCorner) {
  const auto out = SimplifyRdp(LShape(), 1.0);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1], (Point2{100.0, 0.0}));
}

TEST(SimplifyRdp, ShortPathsUntouched) {
  const std::vector<Point2> two{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_EQ(SimplifyRdp(two, 0.5), two);
}

TEST(NearestVertex, Basic) {
  const auto idx = NearestVertex(LShape(), {95.0, 10.0});
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 1u);
  EXPECT_FALSE(NearestVertex({}, {0.0, 0.0}).has_value());
}

TEST(DistanceToPolyline, SegmentsNotJustVertices) {
  // Closest approach is interior to the first segment.
  EXPECT_DOUBLE_EQ(DistanceToPolyline(LShape(), {50.0, 7.0}), 7.0);
  EXPECT_DOUBLE_EQ(DistanceToPolyline({{2.0, 2.0}}, {2.0, 5.0}), 3.0);
}

}  // namespace
}  // namespace mobipriv::geo
