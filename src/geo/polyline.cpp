#include "geo/polyline.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace mobipriv::geo {

double PolylineLength(const std::vector<Point2>& path) noexcept {
  double total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    total += Distance(path[i - 1], path[i]);
  }
  return total;
}

std::vector<double> CumulativeLengths(const std::vector<Point2>& path) {
  std::vector<double> out;
  out.reserve(path.size());
  double total = 0.0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) total += Distance(path[i - 1], path[i]);
    out.push_back(total);
  }
  return out;
}

Point2 PointAtLength(const std::vector<Point2>& path,
                     const std::vector<double>& cumulative,
                     double s) noexcept {
  assert(!path.empty());
  assert(cumulative.size() == path.size());
  if (s <= 0.0) return path.front();
  if (s >= cumulative.back()) return path.back();
  // First vertex with cumulative length >= s; s < back() so it exists and
  // is not the first vertex.
  const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), s);
  const auto idx = static_cast<std::size_t>(it - cumulative.begin());
  const double seg_start = cumulative[idx - 1];
  const double seg_len = cumulative[idx] - seg_start;
  if (seg_len <= 0.0) return path[idx];
  const double t = (s - seg_start) / seg_len;
  return Lerp(path[idx - 1], path[idx], t);
}

Point2 PointAtLength(const std::vector<Point2>& path, double s) {
  return PointAtLength(path, CumulativeLengths(path), s);
}

std::vector<Point2> ResampleUniform(const std::vector<Point2>& path,
                                    double spacing) {
  assert(spacing > 0.0);
  if (path.empty()) return {};
  if (path.size() == 1) return {path.front()};
  const auto cumulative = CumulativeLengths(path);
  const double length = cumulative.back();
  if (length <= 0.0) return {path.front(), path.back()};
  // n-1 intervals of exact spacing length/(n-1) <= requested spacing.
  const auto intervals =
      static_cast<std::size_t>(std::max(1.0, std::ceil(length / spacing)));
  std::vector<Point2> out;
  out.reserve(intervals + 1);
  for (std::size_t k = 0; k <= intervals; ++k) {
    const double s =
        length * static_cast<double>(k) / static_cast<double>(intervals);
    out.push_back(PointAtLength(path, cumulative, s));
  }
  // Endpoints exactly (PointAtLength already clamps, this removes rounding).
  out.front() = path.front();
  out.back() = path.back();
  return out;
}

std::vector<Point2> ResampleCount(const std::vector<Point2>& path,
                                  std::size_t count) {
  assert(count >= 2);
  if (path.empty()) return {};
  if (path.size() == 1) return std::vector<Point2>(count, path.front());
  const auto cumulative = CumulativeLengths(path);
  const double length = cumulative.back();
  std::vector<Point2> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const double s = length * static_cast<double>(k) /
                     static_cast<double>(count - 1);
    out.push_back(PointAtLength(path, cumulative, s));
  }
  out.front() = path.front();
  out.back() = path.back();
  return out;
}

std::vector<Point2> ChordResample(const std::vector<Point2>& path,
                                  double spacing) {
  assert(spacing > 0.0);
  if (path.empty()) return {};
  if (path.size() == 1) return {path.front()};

  std::vector<Point2> out{path.front()};
  Point2 anchor = path.front();
  for (std::size_t i = 1; i < path.size(); ++i) {
    Point2 a = path[i - 1];
    const Point2 b = path[i];
    // Repeatedly find where the segment [a, b] exits the spacing-circle
    // around the current anchor; each exit becomes an output point and the
    // new anchor (and the new segment start).
    for (;;) {
      const Point2 d = b - a;
      const Point2 m = a - anchor;
      const double dd = d.NormSquared();
      if (dd == 0.0) break;  // degenerate segment
      const double md = m.Dot(d);
      const double c = m.NormSquared() - spacing * spacing;
      // c < 0 always holds (a is within the circle); the outward crossing
      // is the larger quadratic root.
      const double disc = md * md - dd * c;
      if (disc < 0.0) break;  // numerically inside for the whole segment
      const double t = (-md + std::sqrt(disc)) / dd;
      // Segment ends inside the circle. A NaN root (non-finite fixes)
      // ends the scan too: it would otherwise emit points forever.
      if (!(t <= 1.0)) break;
      const Point2 crossing = a + d * t;
      out.push_back(crossing);
      anchor = crossing;
      a = crossing;  // continue scanning the remainder of this segment
    }
  }
  // Preserve the final fix (possibly closer than `spacing` to the last
  // emitted point); skip only an exact duplicate.
  if (!(out.back() == path.back())) out.push_back(path.back());
  return out;
}

namespace {

void RdpRecurse(const std::vector<Point2>& path, std::size_t first,
                std::size_t last, double epsilon, std::vector<bool>& keep) {
  if (last <= first + 1) return;
  double max_dist = -1.0;
  std::size_t max_idx = first;
  for (std::size_t i = first + 1; i < last; ++i) {
    const double d = DistanceToSegment(path[i], path[first], path[last]);
    if (d > max_dist) {
      max_dist = d;
      max_idx = i;
    }
  }
  if (max_dist > epsilon) {
    keep[max_idx] = true;
    RdpRecurse(path, first, max_idx, epsilon, keep);
    RdpRecurse(path, max_idx, last, epsilon, keep);
  }
}

}  // namespace

std::vector<Point2> SimplifyRdp(const std::vector<Point2>& path,
                                double epsilon) {
  if (path.size() < 3) return path;
  std::vector<bool> keep(path.size(), false);
  keep.front() = keep.back() = true;
  RdpRecurse(path, 0, path.size() - 1, epsilon, keep);
  std::vector<Point2> out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (keep[i]) out.push_back(path[i]);
  }
  return out;
}

std::optional<std::size_t> NearestVertex(const std::vector<Point2>& path,
                                         Point2 p) noexcept {
  if (path.empty()) return std::nullopt;
  std::size_t best = 0;
  double best_dist = DistanceSquared(path[0], p);
  for (std::size_t i = 1; i < path.size(); ++i) {
    const double d = DistanceSquared(path[i], p);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return best;
}

double DistanceToPolyline(const std::vector<Point2>& path, Point2 p) noexcept {
  assert(!path.empty());
  if (path.size() == 1) return Distance(path.front(), p);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i < path.size(); ++i) {
    best = std::min(best, DistanceToSegment(p, path[i - 1], path[i]));
  }
  return best;
}

}  // namespace mobipriv::geo
