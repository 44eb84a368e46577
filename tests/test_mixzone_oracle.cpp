// Differential test of mix-zone detection and clustering against a
// brute-force oracle.
//
// The mechanism never stores its encounter pairs: it counts them in a
// parallel pass, then streams first-fit clustering and skips events whose
// midpoints provably fall inside an existing zone. The oracle does the
// obvious thing instead — an O(n^2) pair list in emission order and a
// first-fit over a plain list of centres — so any pair the streamed scan
// miscounts, reorders or wrongly skips shows up as a different encounter
// count, a different centre list, or (through MixAroundZones) different
// published bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "geo/bounding_box.h"
#include "geo/projection.h"
#include "mechanisms/mixzone.h"
#include "model/dataset.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mobipriv::mech {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

// ---- The oracle -------------------------------------------------------------

struct OracleEvent {
  geo::Point2 p;
  util::Timestamp t = 0;
  model::UserId user = model::kInvalidUser;
};

/// Grid cell of a coordinate, computed the way both the detector's cell
/// grid and GridIndex compute it.
std::int64_t CellOf(double v, double r) {
  return static_cast<std::int64_t>(std::floor(v / r));
}

/// Neighbour slot k = (dx + 1) * 3 + (dy + 1) of q's cell in p's 3x3 cell
/// block, or -1 outside it. Cell differences wrap like the detector's
/// int64 cell arithmetic (non-finite coordinates share one extreme cell).
int NeighbourSlot(geo::Point2 p, geo::Point2 q, double r) {
  const auto diff = [&](double a, double b) {
    return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(CellOf(b, r)) -
        static_cast<std::uint64_t>(CellOf(a, r)));
  };
  const std::int64_t dx = diff(p.x, q.x);
  const std::int64_t dy = diff(p.y, q.y);
  if (dx < -1 || dx > 1 || dy < -1 || dy > 1) return -1;
  return static_cast<int>((dx + 1) * 3 + (dy + 1));
}

/// Events in flat order (traces in view order, fixes in trace order),
/// projected on the dataset-wide plane the mechanism uses.
std::vector<OracleEvent> Flatten(const model::DatasetView& view) {
  const geo::GeoBoundingBox bbox = view.BoundingBox();
  const geo::LocalProjection projection(
      bbox.IsEmpty() ? geo::LatLng{0.0, 0.0} : bbox.Center());
  std::vector<OracleEvent> flat;
  for (const model::TraceView& trace : view.traces()) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      flat.push_back(OracleEvent{projection.Project(trace.position(i)),
                                 trace.time(i), trace.user()});
    }
  }
  return flat;
}

/// Every encounter midpoint in emission order — flat id a, then neighbour
/// slot, then partner id — followed by list-based first-fit clustering.
/// A pair is two events of different users, at most w apart in time, in
/// neighbouring cells and not farther apart than r (a NaN distance is not
/// "farther"). A midpoint founds a zone unless a centre in its 3x3 cell
/// block lies within r.
detail::ZoneDetection Oracle(const MixZoneConfig& config,
                             const model::DatasetView& view) {
  const double r = config.zone_radius_m;
  const double r_sq = r * r;
  const std::vector<OracleEvent> flat = Flatten(view);
  std::vector<geo::Point2> midpoints;
  std::vector<std::pair<int, std::size_t>> partners;
  for (std::size_t a = 0; a < flat.size(); ++a) {
    partners.clear();
    for (std::size_t b = a + 1; b < flat.size(); ++b) {
      const int slot = NeighbourSlot(flat[a].p, flat[b].p, r);
      if (slot < 0) continue;
      const double dx = flat[b].p.x - flat[a].p.x;
      const double dy = flat[b].p.y - flat[a].p.y;
      if (dx * dx + dy * dy > r_sq) continue;
      if (flat[a].user == flat[b].user) continue;
      if (std::abs(flat[a].t - flat[b].t) > config.time_window_s) continue;
      partners.emplace_back(slot, b);
    }
    std::sort(partners.begin(), partners.end());
    for (const auto& [slot, b] : partners) {
      midpoints.push_back(geo::Midpoint(flat[a].p, flat[b].p));
    }
  }
  detail::ZoneDetection detection;
  detection.encounters = midpoints.size();
  for (const geo::Point2 m : midpoints) {
    const bool covered = std::any_of(
        detection.centers.begin(), detection.centers.end(),
        [&](geo::Point2 c) {
          const double dx = c.x - m.x;
          const double dy = c.y - m.y;
          return NeighbourSlot(m, c, r) >= 0 && dx * dx + dy * dy <= r_sq;
        });
    if (!covered) detection.centers.push_back(m);
  }
  return detection;
}

// ---- Comparison -------------------------------------------------------------

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void ExpectSamePoints(const std::vector<geo::Point2>& got,
                      const std::vector<geo::Point2>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameBits(got[i].x, want[i].x) && SameBits(got[i].y, want[i].y))
        << "centre " << i << ": (" << got[i].x << ", " << got[i].y
        << ") vs (" << want[i].x << ", " << want[i].y << ")";
  }
}

void ExpectSameStore(const model::EventStore& got,
                     const model::EventStore& want) {
  const model::DatasetView g = got.View();
  const model::DatasetView w = want.View();
  ASSERT_EQ(g.traces().size(), w.traces().size());
  for (std::size_t t = 0; t < g.traces().size(); ++t) {
    const model::TraceView& gt = g.traces()[t];
    const model::TraceView& wt = w.traces()[t];
    ASSERT_EQ(gt.user(), wt.user()) << "trace " << t;
    ASSERT_EQ(gt.size(), wt.size()) << "trace " << t;
    for (std::size_t i = 0; i < gt.size(); ++i) {
      ASSERT_EQ(gt.time(i), wt.time(i)) << "trace " << t << " fix " << i;
      ASSERT_TRUE(SameBits(gt.lat(i), wt.lat(i)) &&
                  SameBits(gt.lng(i), wt.lng(i)))
          << "trace " << t << " fix " << i;
    }
  }
}

/// Runs the mechanism on `world` at 1 and 4 threads and compares it with
/// the oracle: encounter count, every zone centre, and the published
/// store, report and RNG position of the whole mechanism against the same
/// mechanism fed the oracle's zones.
void ExpectMatchesOracle(const model::Dataset& world,
                         const MixZoneConfig& config) {
  const model::DatasetView view = model::DatasetView::Of(world);
  const detail::ZoneDetection want = Oracle(config, view);
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const util::ScopedParallelism parallelism(threads);
    const detail::ZoneDetection got = detail::DetectZones(config, view);
    EXPECT_EQ(got.encounters, want.encounters);
    ExpectSamePoints(got.centers, want.centers);

    const MixZone mechanism(config);
    EXPECT_EQ(mechanism.CountEncounters(view), want.encounters);
    util::Rng want_rng(99);
    util::Rng got_rng(99);
    MixZoneReport want_report;
    MixZoneReport got_report;
    const model::EventStore want_store =
        detail::MixAroundZones(config, view, want, want_rng, want_report);
    const model::EventStore got_store =
        mechanism.ApplyToStoreWithReport(view, got_rng, got_report);
    ExpectSameStore(got_store, want_store);
    EXPECT_EQ(got_report.ToString(), want_report.ToString());
    std::vector<geo::Point2> got_zones;
    std::vector<geo::Point2> want_zones;
    for (const MixZoneInfo& zone : got_report.zones) {
      got_zones.push_back(zone.center);
    }
    for (const MixZoneInfo& zone : want_report.zones) {
      want_zones.push_back(zone.center);
    }
    ExpectSamePoints(got_zones, want_zones);
    EXPECT_EQ(got_rng.NextU64(), want_rng.NextU64());
  }
}

// ---- Random worlds ----------------------------------------------------------

/// "<prefix><i>" (appended in place: GCC 12 misreports the temporary
/// concatenation under -Wrestrict).
std::string Label(const char* prefix, std::uint64_t i) {
  std::string label(prefix);
  label += std::to_string(i);
  return label;
}

/// A seeded world of at most 2000 fixes around a few hotspots: users with
/// several traces (same-user pairs), repeated timestamps, duplicated fixes
/// and exact copies of other users' fixes (coincident pairs).
model::Dataset RandomWorld(std::uint64_t seed) {
  util::Rng rng(seed);
  const geo::LocalProjection projection(kOrigin);
  const std::size_t users = 2 + rng.NextBounded(10);
  std::vector<geo::Point2> hotspots(1 + rng.NextBounded(6));
  for (geo::Point2& spot : hotspots) {
    spot = {rng.Uniform(-700.0, 700.0), rng.Uniform(-700.0, 700.0)};
  }
  model::Dataset world;
  std::vector<model::Event> placed;
  std::size_t budget = 200 + rng.NextBounded(1801);
  while (budget > 0) {
    const std::string name = Label("u", rng.NextBounded(users));
    const std::size_t length =
        1 + rng.NextBounded(std::min<std::size_t>(budget, 150));
    budget -= length;
    util::Timestamp t = rng.UniformInt(0, 5400);
    geo::Point2 p = hotspots[rng.NextBounded(hotspots.size())];
    std::vector<model::Event> events;
    for (std::size_t i = 0; i < length; ++i) {
      const double choice = rng.NextDouble();
      if (choice < 0.05 && !events.empty()) {
        events.push_back(events.back());  // duplicated fix
        continue;
      }
      if (choice < 0.12 && !placed.empty()) {
        // Another trace's fix, copied exactly (time too when it keeps this
        // trace in order).
        const model::Event other = placed[rng.NextBounded(placed.size())];
        t = std::max(t, other.time);
        events.push_back({other.position, t});
        continue;
      }
      if (choice < 0.2) {
        p = hotspots[rng.NextBounded(hotspots.size())];
      }
      p = {p.x + rng.Gaussian(0.0, 35.0), p.y + rng.Gaussian(0.0, 35.0)};
      t += rng.UniformInt(0, 90);
      events.push_back({projection.Unproject(p), t});
    }
    placed.insert(placed.end(), events.begin(), events.end());
    world.AddTraceForUser(name, std::move(events));
  }
  return world;
}

MixZoneConfig RandomConfig(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5EEDu);
  MixZoneConfig config;
  config.zone_radius_m = rng.Uniform(15.0, 220.0);
  config.time_window_s = rng.UniformInt(1, 900);
  config.min_users = 2 + rng.NextBounded(2);
  config.suppress_zone_points = rng.Bernoulli(0.8);
  return config;
}

TEST(MixZoneOracle, RandomWorlds) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExpectMatchesOracle(RandomWorld(seed), RandomConfig(seed));
  }
}

TEST(MixZoneOracle, RandomWorldsAtDefaultConfig) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExpectMatchesOracle(RandomWorld(seed), MixZoneConfig{});
  }
}

// ---- Adversarial worlds -----------------------------------------------------

/// A world whose projection plane is pinned by two far-corner anchor fixes
/// of one user (an hour-long day apart from everything else), so fixes
/// can be placed against the exact plane the mechanism will project on.
class PinnedWorld {
 public:
  PinnedWorld() {
    const geo::LocalProjection rough(kOrigin);
    const geo::LatLng sw = rough.Unproject({-6000.0, -6000.0});
    const geo::LatLng ne = rough.Unproject({6000.0, 6000.0});
    geo::GeoBoundingBox box;
    box.Extend(sw);
    box.Extend(ne);
    projection_ = geo::LocalProjection(box.Center());
    world_.AddTraceForUser("anchor", {{sw, -1000000000}, {ne, 1000000000}});
  }

  [[nodiscard]] geo::LatLng At(geo::Point2 p) const {
    return projection_.Unproject(p);
  }
  [[nodiscard]] geo::Point2 Plane(geo::LatLng p) const {
    return projection_.Project(p);
  }

  /// One single-fix trace for a fresh user.
  void Fix(geo::LatLng p, util::Timestamp t) {
    world_.AddTraceForUser(Label("f", next_user_++), {{p, t}});
  }

  /// The largest longitude east of `west` (same latitude) whose plane x
  /// still satisfies `inside`, which must hold at `west` and be monotone.
  template <typename Pred>
  [[nodiscard]] double LastLngWhere(geo::LatLng west, double east_lng,
                                    Pred inside) const {
    double lo = west.lng;
    double hi = east_lng;
    for (int i = 0; i < 200 && std::nextafter(lo, hi) < hi; ++i) {
      const double mid = lo + (hi - lo) / 2.0;
      if (mid <= lo || mid >= hi) break;
      (inside(Plane({west.lat, mid}).x) ? lo : hi) = mid;
    }
    while (inside(Plane({west.lat, std::nextafter(lo, hi)}).x)) {
      lo = std::nextafter(lo, hi);
    }
    return lo;
  }

  model::Dataset& world() { return world_; }

 private:
  geo::LocalProjection projection_{kOrigin};
  model::Dataset world_;
  std::uint64_t next_user_ = 0;
};

/// Boundary cases against the exact projection plane:
///   * a pair exactly r apart (r is chosen as that pair's x distance, and
///     both fixes share a latitude so dy is exactly 0), and pairs one
///     longitude step inside and outside r;
///   * pairs exactly w apart in time and one second beyond;
///   * sites where a coincident pair founds a zone and a second pair lands
///     its midpoint within rounding of r from that centre, with the second
///     pair's probe event swept across the skip radius r(1 - 1e-6) - reach
///     (reach near r/2);
///   * fixes straddling cell boundaries by one longitude step;
///   * coincident fixes of three users, and of one user on two traces.
struct Adversarial {
  model::Dataset world;
  MixZoneConfig config;
  /// Planned midpoints of the sweep pairs, near r from their site centre.
  std::vector<geo::Point2> sweep_midpoints;
};

Adversarial AdversarialWorld() {
  PinnedWorld pinned;
  std::vector<geo::Point2> sweep_midpoints;
  MixZoneConfig config;
  config.time_window_s = 300;

  // The exact-r pair decides r.
  const geo::LatLng a0 = pinned.At({-5000.0, -5000.0});
  const geo::LatLng b0{a0.lat, pinned.At({-4850.0, -5000.0}).lng};
  config.zone_radius_m = pinned.Plane(b0).x - pinned.Plane(a0).x;
  const double r = config.zone_radius_m;
  pinned.Fix(a0, 0);
  pinned.Fix(b0, 0);

  // One longitude step inside / outside r, at separate times.
  util::Timestamp slot = 10000;
  for (int i = 0; i < 6; ++i, slot += 10000) {
    const geo::LatLng a = pinned.At({-5000.0 + 300.0 * i, -4600.0});
    const double ax = pinned.Plane(a).x;
    const double last_inside = pinned.LastLngWhere(
        a, pinned.At({-5000.0 + 300.0 * i + 2.0 * r, -4600.0}).lng,
        [&](double x) { return (x - ax) * (x - ax) <= r * r; });
    pinned.Fix(a, slot);
    pinned.Fix({a.lat, last_inside}, slot);
    pinned.Fix(a, slot + 5000);
    pinned.Fix({a.lat, std::nextafter(last_inside, 180.0)}, slot + 5000);
  }

  // |dt| == w pairs (and w + 1), coincident in space.
  for (int i = 0; i < 4; ++i, slot += 10000) {
    const geo::LatLng p = pinned.At({-2000.0 + 300.0 * i, -4000.0});
    pinned.Fix(p, slot);
    pinned.Fix(p, slot + config.time_window_s + (i % 2));
  }

  // Midpoint-at-r and skip-radius sweep: one isolated site per offset.
  const double pair_d = r * (1.0 - 1e-7);
  const std::vector<double> offsets = {
      -3e-6, -1.5e-6, -1.05e-6, -1.0e-6, -9.6e-7, -9.5e-7, -9.4e-7,
      -5e-7, -1e-7,   0.0,      4e-8,    4.9e-8,  5e-8,    5.1e-8,
      6e-8,  1e-7,    1e-6,     1e-5};
  for (std::size_t k = 0; k < offsets.size(); ++k, slot += 10000) {
    const geo::Point2 site{-4500.0 + 700.0 * static_cast<double>(k % 12),
                           -2500.0 + 900.0 * static_cast<double>(k / 12)};
    const double angle = 0.37 * static_cast<double>(k);
    const geo::Point2 dir{std::cos(angle), std::sin(angle)};
    // The founding pair: two users at one point, so the centre is exact.
    const geo::LatLng c = pinned.At(site);
    pinned.Fix(c, slot);
    pinned.Fix(c, slot);
    const double s = r / 2.0 + r * offsets[k];
    const geo::Point2 a{site.x + s * dir.x, site.y + s * dir.y};
    const geo::Point2 b{a.x + pair_d * dir.x, a.y + pair_d * dir.y};
    pinned.Fix(pinned.At(a), slot + 5000);
    pinned.Fix(pinned.At(b), slot + 5000);
    sweep_midpoints.push_back(geo::Midpoint(a, b));
  }

  // Cell-boundary straddlers: fixes one longitude step either side of a
  // multiple of r, paired with partners just under r away.
  for (int i = 0; i < 4; ++i, slot += 10000) {
    const double k = std::floor(2000.0 / r) + 3.0 * i;
    const geo::LatLng west = pinned.At({k * r - r / 2.0, 3000.0});
    const double below = pinned.LastLngWhere(
        west, pinned.At({k * r + r / 2.0, 3000.0}).lng,
        [&](double x) { return CellOf(x, r) < static_cast<std::int64_t>(k); });
    const geo::LatLng left{west.lat, below};
    const geo::LatLng right{west.lat, std::nextafter(below, 180.0)};
    pinned.Fix(left, slot);
    pinned.Fix(right, slot);
    pinned.Fix(pinned.At({pinned.Plane(right).x + r * (1.0 - 1e-12), 3000.0}),
               slot);
    pinned.Fix(pinned.At({pinned.Plane(left).x - r * (1.0 - 1e-12), 3000.0}),
               slot);
  }

  // Coincident fixes of three users, and one user's two traces.
  const geo::LatLng hub = pinned.At({4000.0, 4000.0});
  for (int i = 0; i < 3; ++i) pinned.Fix(hub, slot);
  pinned.world().AddTraceForUser("twice", {{hub, slot + 1}, {hub, slot + 2}});
  pinned.world().AddTraceForUser("twice", {{hub, slot + 1}, {hub, slot + 2}});

  return {std::move(pinned.world()), config, std::move(sweep_midpoints)};
}

TEST(MixZoneOracle, AdversarialBoundaries) {
  const Adversarial adversarial = AdversarialWorld();
  ExpectMatchesOracle(adversarial.world, adversarial.config);
  // The sweep straddles the zone radius: some sweep midpoints found a zone
  // of their own, others fall inside their site's zone.
  const detail::ZoneDetection zones = Oracle(
      adversarial.config, model::DatasetView::Of(adversarial.world));
  std::size_t founded = 0;
  for (const geo::Point2 m : adversarial.sweep_midpoints) {
    founded += static_cast<std::size_t>(std::any_of(
        zones.centers.begin(), zones.centers.end(),
        [&](geo::Point2 c) { return geo::Distance(c, m) < 1e-3; }));
  }
  EXPECT_GT(founded, 0u);
  EXPECT_LT(founded, adversarial.sweep_midpoints.size());
}

TEST(MixZoneOracle, BoundaryRulesAreInclusive) {
  // The rules the adversarial world straddles, checked directly: a pair
  // exactly r apart and exactly w apart in time is an encounter.
  PinnedWorld pinned;
  const geo::LatLng a = pinned.At({100.0, 100.0});
  const geo::LatLng b{a.lat, pinned.At({250.0, 100.0}).lng};
  MixZoneConfig config;
  config.zone_radius_m = pinned.Plane(b).x - pinned.Plane(a).x;
  config.time_window_s = 60;
  pinned.Fix(a, 0);
  pinned.Fix(b, 60);
  const model::DatasetView view = model::DatasetView::Of(pinned.world());
  EXPECT_EQ(MixZone(config).CountEncounters(view), 1u);
  EXPECT_EQ(Oracle(config, view).encounters, 1u);
  config.time_window_s = 59;
  EXPECT_EQ(MixZone(config).CountEncounters(view), 0u);
}

// ---- Non-finite coordinates -------------------------------------------------

TEST(MixZoneOracle, NaNFixes) {
  // NaN fixes project to NaN: the detector keeps NaN distances (they are
  // not "farther than r"), so NaN fixes pair with each other, and their
  // NaN midpoints never join an existing zone.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::uint64_t seed = 200; seed < 204; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    model::Dataset world = RandomWorld(seed);
    util::Rng rng(seed);
    for (int i = 0; i < 12; ++i) {
      const util::Timestamp t = rng.UniformInt(0, 5400);
      const geo::LatLng p = i % 3 == 0   ? geo::LatLng{nan, 4.8357}
                            : i % 3 == 1 ? geo::LatLng{45.764, nan}
                                         : geo::LatLng{nan, nan};
      world.AddTraceForUser(Label("nan", static_cast<std::uint64_t>(i % 5)),
                            {{p, t}, {p, t + 30}});
    }
    ExpectMatchesOracle(world, MixZoneConfig{});
  }
}

TEST(MixZoneOracle, InfiniteCoordinates) {
  // Huge longitudes overflow the projection to +-inf; an infinite
  // longitude drags the plane's origin to infinity, so every fix projects
  // to a non-finite x.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double extreme : {1e308, inf}) {
    SCOPED_TRACE("extreme=" + std::to_string(extreme));
    const geo::LocalProjection projection(kOrigin);
    model::Dataset world;
    for (int u = 0; u < 6; ++u) {
      std::vector<model::Event> events;
      for (int i = 0; i < 10; ++i) {
        events.push_back({projection.Unproject({20.0 * i, 15.0 * u}),
                          static_cast<util::Timestamp>(60 * i)});
      }
      world.AddTraceForUser(Label("u", static_cast<std::uint64_t>(u)),
                            std::move(events));
    }
    world.AddTraceForUser("east",
                          {{{45.764, extreme}, 0}, {{45.764, extreme}, 60}});
    world.AddTraceForUser("west",
                          {{{45.764, -extreme}, 0}, {{45.765, extreme}, 30}});
    ExpectMatchesOracle(world, MixZoneConfig{});
  }
}

}  // namespace
}  // namespace mobipriv::mech
