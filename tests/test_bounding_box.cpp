#include "geo/bounding_box.h"

#include <gtest/gtest.h>

#include <limits>

namespace mobipriv::geo {
namespace {

TEST(GeoBoundingBox, EmptyContainsNothing) {
  const GeoBoundingBox box;
  EXPECT_TRUE(box.IsEmpty());
  EXPECT_FALSE(box.Contains({0.0, 0.0}));
  EXPECT_DOUBLE_EQ(box.DiagonalMeters(), 0.0);
}

TEST(GeoBoundingBox, ExtendAndContains) {
  GeoBoundingBox box;
  box.Extend({45.0, 4.0});
  box.Extend({46.0, 5.0});
  EXPECT_FALSE(box.IsEmpty());
  EXPECT_TRUE(box.Contains({45.5, 4.5}));
  EXPECT_TRUE(box.Contains({45.0, 4.0}));  // boundary inclusive
  EXPECT_FALSE(box.Contains({44.9, 4.5}));
  EXPECT_FALSE(box.Contains({45.5, 5.1}));
  EXPECT_EQ(box.SouthWest(), (LatLng{45.0, 4.0}));
  EXPECT_EQ(box.NorthEast(), (LatLng{46.0, 5.0}));
}

TEST(GeoBoundingBox, Center) {
  GeoBoundingBox box({45.0, 4.0}, {46.0, 5.0});
  EXPECT_EQ(box.Center(), (LatLng{45.5, 4.5}));
}

TEST(GeoBoundingBox, ExtendWithBox) {
  GeoBoundingBox a({45.0, 4.0}, {45.5, 4.5});
  const GeoBoundingBox b({45.4, 4.4}, {46.0, 5.0});
  a.Extend(b);
  EXPECT_EQ(a.SouthWest(), (LatLng{45.0, 4.0}));
  EXPECT_EQ(a.NorthEast(), (LatLng{46.0, 5.0}));
  // Extending with an empty box is a no-op.
  a.Extend(GeoBoundingBox{});
  EXPECT_EQ(a.NorthEast(), (LatLng{46.0, 5.0}));
}

TEST(GeoBoundingBox, Intersects) {
  const GeoBoundingBox a({45.0, 4.0}, {45.5, 4.5});
  const GeoBoundingBox b({45.4, 4.4}, {46.0, 5.0});
  const GeoBoundingBox c({47.0, 6.0}, {48.0, 7.0});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_FALSE(a.Intersects(GeoBoundingBox{}));
}

TEST(GeoBoundingBox, OfPoints) {
  const auto box =
      GeoBoundingBox::Of({{45.0, 4.8}, {45.9, 4.1}, {45.3, 4.5}});
  EXPECT_EQ(box.SouthWest(), (LatLng{45.0, 4.1}));
  EXPECT_EQ(box.NorthEast(), (LatLng{45.9, 4.8}));
  EXPECT_TRUE(GeoBoundingBox::Of({}).IsEmpty());
}

TEST(GeoBoundingBox, NanPointLeavesBoxUnchanged) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  GeoBoundingBox empty;
  empty.Extend({nan, nan});
  empty.Extend({nan, 4.0});
  empty.Extend({45.0, nan});
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_FALSE(empty.Contains({45.0, 4.0}));

  GeoBoundingBox box({45.0, 4.0}, {46.0, 5.0});
  box.Extend({nan, 9.0});
  box.Extend({9.0, nan});
  EXPECT_EQ(box.SouthWest(), (LatLng{45.0, 4.0}));
  EXPECT_EQ(box.NorthEast(), (LatLng{46.0, 5.0}));

  // Infinite coordinates are points at the edge of the plane, not gaps.
  GeoBoundingBox wide;
  wide.Extend({45.0, std::numeric_limits<double>::infinity()});
  EXPECT_FALSE(wide.IsEmpty());
  EXPECT_EQ(wide.NorthEast().lng, std::numeric_limits<double>::infinity());
}

TEST(GeoBoundingBox, AllNanTraceDoesNotStretchTheDatasetBox) {
  // One finite two-fix trace plus a single-fix all-NaN trace: the union
  // of the per-trace boxes must be the finite trace's box, not the globe.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const GeoBoundingBox finite =
      GeoBoundingBox::Of({{45.0, 4.0}, {45.1, 4.2}});
  const GeoBoundingBox nan_trace = GeoBoundingBox::Of({{nan, nan}});
  EXPECT_TRUE(nan_trace.IsEmpty());
  GeoBoundingBox dataset;
  dataset.Extend(finite);
  dataset.Extend(nan_trace);
  EXPECT_EQ(dataset.SouthWest(), (LatLng{45.0, 4.0}));
  EXPECT_EQ(dataset.NorthEast(), (LatLng{45.1, 4.2}));
}

TEST(GeoBoundingBox, DiagonalPositive) {
  const GeoBoundingBox box({45.0, 4.0}, {46.0, 5.0});
  EXPECT_GT(box.DiagonalMeters(), 100000.0);
}

TEST(Rect, ContainsAndIntersects) {
  const Rect r{{0.0, 0.0}, {10.0, 5.0}};
  EXPECT_TRUE(r.Contains({5.0, 2.5}));
  EXPECT_TRUE(r.Contains({0.0, 0.0}));
  EXPECT_TRUE(r.Contains({10.0, 5.0}));
  EXPECT_FALSE(r.Contains({10.1, 2.0}));
  const Rect other{{9.0, 4.0}, {20.0, 20.0}};
  EXPECT_TRUE(r.Intersects(other));
  const Rect far{{100.0, 100.0}, {110.0, 110.0}};
  EXPECT_FALSE(r.Intersects(far));
}

TEST(Rect, Dimensions) {
  const Rect r{{1.0, 2.0}, {4.0, 6.0}};
  EXPECT_DOUBLE_EQ(r.Width(), 3.0);
  EXPECT_DOUBLE_EQ(r.Height(), 4.0);
  EXPECT_DOUBLE_EQ(r.Area(), 12.0);
  EXPECT_EQ(r.Center(), (Point2{2.5, 4.0}));
}

TEST(Rect, OfPoints) {
  const Rect r = Rect::Of({{3.0, 1.0}, {-1.0, 4.0}, {2.0, 2.0}});
  EXPECT_EQ(r.min, (Point2{-1.0, 1.0}));
  EXPECT_EQ(r.max, (Point2{3.0, 4.0}));
}

}  // namespace
}  // namespace mobipriv::geo
