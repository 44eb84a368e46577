#include "mechanisms/mixzone.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "geo/projection.h"
#include "model/columnar_file.h"
#include "synth/population.h"
#include "util/thread_pool.h"

namespace mobipriv::mech {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

/// Two users crossing at the planar origin at the same time: A travels
/// west->east, B south->north, both passing (0,0) at t = 500.
model::Dataset CrossingPair() {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  const auto a = dataset.InternUser("A");
  const auto b = dataset.InternUser("B");
  model::Trace ta;
  ta.set_user(a);
  model::Trace tb;
  tb.set_user(b);
  for (int i = 0; i <= 100; ++i) {
    const double s = -1000.0 + 20.0 * i;  // -1000 .. 1000 m
    const auto t = static_cast<util::Timestamp>(i * 10);  // 0 .. 1000 s
    ta.Append({projection.Unproject({s, 0.0}), t});
    tb.Append({projection.Unproject({0.0, s}), t});
  }
  dataset.AddTrace(std::move(ta));
  dataset.AddTrace(std::move(tb));
  return dataset;
}

/// Same paths but 6 hours apart: spatial crossing, no temporal meeting.
model::Dataset DisjointTimesPair() {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  const auto a = dataset.InternUser("A");
  const auto b = dataset.InternUser("B");
  model::Trace ta;
  ta.set_user(a);
  model::Trace tb;
  tb.set_user(b);
  for (int i = 0; i <= 100; ++i) {
    const double s = -1000.0 + 20.0 * i;
    ta.Append({projection.Unproject({s, 0.0}),
               static_cast<util::Timestamp>(i * 10)});
    tb.Append({projection.Unproject({0.0, s}),
               static_cast<util::Timestamp>(21600 + i * 10)});
  }
  dataset.AddTrace(std::move(ta));
  dataset.AddTrace(std::move(tb));
  return dataset;
}

TEST(MixZone, DetectsTheNaturalCrossing) {
  const MixZone mechanism;
  util::Rng rng(1);
  MixZoneReport report;
  (void)mechanism.ApplyWithReport(CrossingPair(), rng, report);
  EXPECT_GT(report.encounters, 0u);
  EXPECT_GE(report.zones.size(), 1u);
  EXPECT_GE(report.occurrences, 1u);
  // The zone sits at the crossing point (planar origin).
  EXPECT_LT(report.zones.front().center.Norm(), 200.0);
}

TEST(MixZone, NoMeetingNoZone) {
  const MixZone mechanism;
  util::Rng rng(1);
  MixZoneReport report;
  const model::Dataset out =
      mechanism.ApplyWithReport(DisjointTimesPair(), rng, report);
  EXPECT_EQ(report.occurrences, 0u);
  EXPECT_EQ(report.swaps_applied, 0u);
  EXPECT_EQ(report.suppressed_events, 0u);
  EXPECT_EQ(out.EventCount(), DisjointTimesPair().EventCount());
}

TEST(MixZone, SuppressesInZonePoints) {
  const MixZone mechanism;  // radius 150 m
  util::Rng rng(1);
  MixZoneReport report;
  const model::Dataset out =
      mechanism.ApplyWithReport(CrossingPair(), rng, report);
  EXPECT_GT(report.suppressed_events, 0u);
  EXPECT_EQ(out.EventCount() + report.suppressed_events,
            report.total_events);
  // No published event inside any zone disc during its episode.
  const geo::LocalProjection projection(kOrigin);
  for (const auto& zone : report.zones) {
    for (const auto& trace : out.traces()) {
      for (const auto& event : trace) {
        const double d =
            geo::Distance(projection.Project(event.position), zone.center);
        EXPECT_GT(d, zone.radius_m - 1.0);
      }
    }
  }
}

TEST(MixZone, SuppressionOffKeepsEverything) {
  MixZoneConfig config;
  config.suppress_zone_points = false;
  const MixZone mechanism(config);
  util::Rng rng(1);
  MixZoneReport report;
  const model::Dataset out =
      mechanism.ApplyWithReport(CrossingPair(), rng, report);
  EXPECT_EQ(report.suppressed_events, 0u);
  EXPECT_EQ(out.EventCount(), report.total_events);
}

TEST(MixZone, SwapExchangesSuffixes) {
  // Find a seed where the permutation is a real swap, then verify the
  // suffixes actually moved: A's published identity ends where B's input
  // trace ends.
  const model::Dataset input = CrossingPair();
  const geo::LocalProjection projection(kOrigin);
  bool verified_swap = false;
  for (std::uint64_t seed = 0; seed < 32 && !verified_swap; ++seed) {
    const MixZone mechanism;
    util::Rng rng(seed);
    MixZoneReport report;
    const model::Dataset out =
        mechanism.ApplyWithReport(input, rng, report);
    if (report.swaps_applied == 0) continue;
    verified_swap = true;
    // After the swap, identity A's trace must end at B's destination
    // (north end: y ~ +1000) instead of A's own (east end: x ~ +1000).
    const auto a = out.FindUser("A");
    ASSERT_TRUE(a.has_value());
    bool found_a_trace = false;
    for (const auto& trace : out.traces()) {
      if (trace.user() != *a || trace.empty()) continue;
      // Examine the trace containing post-crossing times.
      if (trace.back().time < 600) continue;
      found_a_trace = true;
      const geo::Point2 end = projection.Project(trace.back().position);
      EXPECT_GT(end.y, 500.0) << "A's suffix should be B's path";
      EXPECT_LT(std::abs(end.x), 200.0);
    }
    EXPECT_TRUE(found_a_trace);
  }
  EXPECT_TRUE(verified_swap) << "no swap drawn in 32 seeds (p ~ 2^-32)";
}

TEST(MixZone, IdentityPermutationLeavesTracesIntact) {
  // With exactly 2 participants a uniform permutation is identity half the
  // time; find such a seed and check the output equals input minus the
  // suppressed points.
  const model::Dataset input = CrossingPair();
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const MixZone mechanism;
    util::Rng rng(seed);
    MixZoneReport report;
    const model::Dataset out = mechanism.ApplyWithReport(input, rng, report);
    if (report.swaps_applied != 0) continue;
    const geo::LocalProjection projection(kOrigin);
    const auto a = out.FindUser("A");
    ASSERT_TRUE(a.has_value());
    for (const auto& trace : out.traces()) {
      if (trace.user() != *a || trace.back().time < 600) continue;
      const geo::Point2 end = projection.Project(trace.back().position);
      EXPECT_GT(end.x, 500.0) << "A keeps its own (eastbound) suffix";
    }
    return;
  }
  FAIL() << "no identity permutation drawn in 32 seeds";
}

TEST(MixZone, ReportAccounting) {
  const MixZone mechanism;
  util::Rng rng(3);
  MixZoneReport report;
  (void)mechanism.ApplyWithReport(CrossingPair(), rng, report);
  EXPECT_EQ(report.total_events, CrossingPair().EventCount());
  EXPECT_EQ(report.anonymity_set_sizes.size(), report.occurrences);
  EXPECT_GE(report.SuppressionRatio(), 0.0);
  EXPECT_LE(report.SuppressionRatio(), 1.0);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(MixZone, MinUsersThresholdRespected) {
  MixZoneConfig config;
  config.min_users = 3;  // two crossing users are not enough
  const MixZone mechanism(config);
  util::Rng rng(1);
  MixZoneReport report;
  (void)mechanism.ApplyWithReport(CrossingPair(), rng, report);
  EXPECT_EQ(report.occurrences, 0u);
  EXPECT_EQ(report.swaps_applied, 0u);
}

TEST(MixZone, EmptyDataset) {
  const MixZone mechanism;
  util::Rng rng(1);
  MixZoneReport report;
  const model::Dataset out =
      mechanism.ApplyWithReport(model::Dataset{}, rng, report);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(report.occurrences, 0u);
}

TEST(MixZone, SingleUserNeverMixes) {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  const auto u = dataset.InternUser("solo");
  model::Trace trace;
  trace.set_user(u);
  for (int i = 0; i <= 100; ++i) {
    trace.Append({projection.Unproject({20.0 * i, 0.0}),
                  static_cast<util::Timestamp>(i * 10)});
  }
  dataset.AddTrace(std::move(trace));
  const MixZone mechanism;
  util::Rng rng(1);
  MixZoneReport report;
  const model::Dataset out = mechanism.ApplyWithReport(dataset, rng, report);
  EXPECT_EQ(report.encounters, 0u);
  EXPECT_EQ(out.EventCount(), dataset.EventCount());
}

TEST(MixZone, NameEncodesConfig) {
  MixZoneConfig config;
  config.zone_radius_m = 99.0;
  config.time_window_s = 42;
  EXPECT_EQ(MixZone(config).Name(), "mixzone[r=99m,w=42s]");
  config.min_users = 3;
  EXPECT_EQ(MixZone(config).Name(), "mixzone[r=99m,w=42s,min_users=3]");
  config.suppress_zone_points = false;
  EXPECT_EQ(MixZone(config).Name(),
            "mixzone[r=99m,w=42s,min_users=3,suppress=0]");
}

// ---- Golden pins -----------------------------------------------------------
// Fixed reference values for two worlds, recorded before the detection scan
// was rewritten around time-ordered cell slices and streamed clustering.
// Everything observable is pinned: the published bytes, the report, the
// zone centres and the RNG position afterwards (a changed number of
// shuffles shows up in the next draw even when the bytes happen to agree).

/// ~200 agents over one synthetic day: thousands of encounters, hundreds
/// of zones, many occurrences.
model::Dataset GoldenSynthWorld() {
  synth::PopulationConfig config;
  config.agents = 200;
  config.days = 1;
  config.seed = 1306;
  return synth::SyntheticWorld(config).dataset();
}

/// Two users at exactly the same places and times: every fix pairs with
/// its twin, and the whole walk is one continuous encounter.
model::Dataset PerfectTwins() {
  model::Dataset dataset;
  std::vector<model::Event> events;
  for (int i = 0; i < 30; ++i) {
    events.push_back({{45.764 + 0.0002 * i, 4.8357},
                      static_cast<util::Timestamp>(i * 30)});
  }
  dataset.AddTraceForUser("a", events);
  dataset.AddTraceForUser("b", std::move(events));
  return dataset;
}

/// FNV-1a digest of the `.mpc` image of a store.
std::uint64_t ColumnarDigest(const model::EventStore& store) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "mobipriv_mixzone_golden.mpc";
  model::WriteColumnar(store, path.string());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return model::Fnv1a64(bytes.data(), bytes.size());
}

/// FNV-1a digest of the report's zone centres, coordinates bitwise.
std::uint64_t CentersDigest(const MixZoneReport& report) {
  std::vector<double> coords;
  for (const MixZoneInfo& zone : report.zones) {
    coords.push_back(zone.center.x);
    coords.push_back(zone.center.y);
  }
  return model::Fnv1a64(coords.data(), coords.size() * sizeof(double));
}

struct Golden {
  std::uint64_t output_digest;
  std::string report;
  std::size_t encounters;
  std::uint64_t centers_digest;
  std::uint64_t next_draw;
};

void ExpectGolden(const model::Dataset& world, const MixZoneConfig& config,
                  const Golden& golden) {
  const model::DatasetView view = model::DatasetView::Of(world);
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const util::ScopedParallelism parallelism(threads);
    const MixZone mechanism(config);
    util::Rng rng(20150629);
    MixZoneReport report;
    const model::EventStore out =
        mechanism.ApplyToStoreWithReport(view, rng, report);
    EXPECT_EQ(ColumnarDigest(out), golden.output_digest);
    EXPECT_EQ(report.ToString(), golden.report);
    EXPECT_EQ(report.encounters, golden.encounters);
    EXPECT_EQ(CentersDigest(report), golden.centers_digest);
    EXPECT_EQ(rng.NextU64(), golden.next_draw);
    EXPECT_EQ(mechanism.CountEncounters(view), golden.encounters);
  }
}

TEST(MixZoneGolden, SynthWorld) {
  ExpectGolden(GoldenSynthWorld(), MixZoneConfig{},
               Golden{14107537261168625936ULL,
                      "zones=740 occurrences=2622 encounters=622384 "
                      "swaps=1791 suppressed=48921/67189 (72.81%)",
                      622384, 12428258393102063126ULL,
                      2702140740029849059ULL});
}

TEST(MixZoneGolden, SynthWorldTightConfig) {
  MixZoneConfig config;
  config.zone_radius_m = 60.0;
  config.time_window_s = 90;
  config.min_users = 3;
  ExpectGolden(GoldenSynthWorld(), config,
               Golden{14266511514431070002ULL,
                      "zones=126 occurrences=219 encounters=87449 "
                      "swaps=201 suppressed=24155/67189 (35.95%)",
                      87449, 4728373736751933470ULL,
                      3500217744971267175ULL});
}

TEST(MixZoneGolden, PerfectTwins) {
  ExpectGolden(PerfectTwins(), MixZoneConfig{},
               Golden{3145821910295850537ULL,
                      "zones=5 occurrences=5 encounters=348 swaps=1 "
                      "suppressed=60/60 (100.00%)",
                      348, 8464289930534613045ULL,
                      17672425031783704571ULL});
}

}  // namespace
}  // namespace mobipriv::mech
