#include "metrics/range_queries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/evaluator.h"
#include "geo/projection.h"
#include "util/rng.h"

namespace mobipriv::metrics {
namespace {

constexpr geo::LatLng kOrigin{45.7640, 4.8357};

model::Dataset SampleDataset() {
  const geo::LocalProjection projection(kOrigin);
  model::Dataset dataset;
  std::vector<model::Event> events;
  for (int i = 0; i < 100; ++i) {
    events.push_back({projection.Unproject({i * 100.0, 0.0}),
                      static_cast<util::Timestamp>(i * 60)});
  }
  dataset.AddTraceForUser("u", std::move(events));
  return dataset;
}

TEST(CountEvents, SpatialAndTemporalBounds) {
  const auto dataset = SampleDataset();
  RangeQuery everything;
  everything.box = dataset.BoundingBox();
  everything.from = 0;
  everything.to = 100000;
  EXPECT_EQ(CountEvents(dataset, everything), 100u);

  RangeQuery first_half_time = everything;
  first_half_time.to = 49 * 60;
  EXPECT_EQ(CountEvents(dataset, first_half_time), 50u);

  RangeQuery nowhere;
  nowhere.box = geo::GeoBoundingBox({0.0, 0.0}, {1.0, 1.0});
  nowhere.from = 0;
  nowhere.to = 100000;
  EXPECT_EQ(CountEvents(dataset, nowhere), 0u);
}

TEST(SampleQueries, RespectsConfigAndExtent) {
  const auto dataset = SampleDataset();
  RangeQueryConfig config;
  config.query_count = 50;
  util::Rng rng(3);
  const auto queries = SampleQueries(dataset, config, rng);
  ASSERT_EQ(queries.size(), 50u);
  const auto bbox = dataset.BoundingBox();
  for (const auto& query : queries) {
    EXPECT_GE(query.box.SouthWest().lat, bbox.SouthWest().lat - 1e-9);
    EXPECT_LE(query.box.NorthEast().lat, bbox.NorthEast().lat + 1e-9);
    EXPECT_LT(query.from, query.to);
    EXPECT_GE(query.to - query.from, config.min_duration_s);
    EXPECT_LE(query.to - query.from, config.max_duration_s);
  }
}

TEST(SampleQueries, EmptyDatasetYieldsNoQueries) {
  RangeQueryConfig config;
  util::Rng rng(1);
  EXPECT_TRUE(SampleQueries(model::Dataset{}, config, rng).empty());
}

TEST(MeasureRangeQueryError, IdenticalDatasetsZeroError) {
  const auto dataset = SampleDataset();
  util::Rng rng(5);
  const auto queries = SampleQueries(dataset, RangeQueryConfig{}, rng);
  const auto report = MeasureRangeQueryError(dataset, dataset, queries);
  EXPECT_EQ(report.queries, queries.size());
  EXPECT_DOUBLE_EQ(report.relative_error.max, 0.0);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(MeasureRangeQueryError, EmptyPublicationMaxError) {
  const auto dataset = SampleDataset();
  util::Rng rng(5);
  auto queries = SampleQueries(dataset, RangeQueryConfig{}, rng);
  const auto report =
      MeasureRangeQueryError(dataset, model::Dataset{}, queries);
  // Every query hitting data has relative error 1.
  EXPECT_GT(report.relative_error.mean, 0.0);
  EXPECT_LE(report.relative_error.max, 1.0);
}

TEST(MeasureRangeQueryError, CountsEmptyOriginalQueries) {
  const auto dataset = SampleDataset();
  RangeQuery nowhere;
  nowhere.box = geo::GeoBoundingBox({0.0, 0.0}, {1.0, 1.0});
  nowhere.from = 0;
  nowhere.to = 10;
  const auto report =
      MeasureRangeQueryError(dataset, dataset, {nowhere});
  EXPECT_EQ(report.empty_on_original, 1u);
  EXPECT_DOUBLE_EQ(report.relative_error.max, 0.0);
}

TEST(MeasureRangeQueryError, DetectsCountInflation) {
  const auto original = SampleDataset();
  // Published: every event duplicated.
  model::Dataset doubled;
  for (const auto& trace : original.traces()) {
    std::vector<model::Event> events(trace.begin(), trace.end());
    events.insert(events.end(), trace.begin(), trace.end());
    doubled.AddTraceForUser("u", std::move(events));
  }
  RangeQuery everything;
  everything.box = original.BoundingBox();
  everything.from = 0;
  everything.to = 100000;
  const auto report =
      MeasureRangeQueryError(original, doubled, {everything});
  EXPECT_DOUBLE_EQ(report.relative_error.max, 1.0);  // 2x counts -> error 1
}

// ---- The range-count kernel against the plain scan ---------------------

/// Column storage for hand-built traces; views alias it.
struct Columns {
  std::vector<double> lat;
  std::vector<double> lng;
  std::vector<util::Timestamp> time;

  [[nodiscard]] model::TraceView View(model::UserId user = 0) const {
    return model::TraceView(
        user,
        model::StridedSpan<double>(lat.data(), lat.size(), sizeof(double)),
        model::StridedSpan<double>(lng.data(), lng.size(), sizeof(double)),
        model::StridedSpan<util::Timestamp>(time.data(), time.size(),
                                            sizeof(util::Timestamp)));
  }
};

// Coordinates and times come from small grids that query edges are drawn
// from too, so fixes land exactly on box edges and on `from`/`to`.
constexpr double kLat0 = 45.0;
constexpr double kLng0 = 4.0;
constexpr double kStep = 0.001;
constexpr int kGrid = 8;
constexpr util::Timestamp kTimes = 40;

double Coordinate(util::Rng& rng, double origin, bool hostile) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (hostile ? rng.UniformInt(0, 19) : 3) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return inf;
    case 2:
      return -inf;
    default:
      return origin + kStep * static_cast<double>(rng.UniformInt(0, kGrid));
  }
}

/// A random trace: sorted, sorted with runs of duplicate times, or in
/// random (unsorted) order. `hostile` adds NaN and +-inf coordinates and
/// traces parked far outside every query.
Columns RandomTrace(util::Rng& rng, bool hostile) {
  Columns trace;
  const auto n = static_cast<std::size_t>(rng.UniformInt(0, 24));
  const std::int64_t kind = rng.UniformInt(0, hostile ? 3 : 2);
  for (std::size_t i = 0; i < n; ++i) {
    trace.lat.push_back(kind == 3 ? 10.0 : Coordinate(rng, kLat0, hostile));
    trace.lng.push_back(kind == 3 ? 10.0 : Coordinate(rng, kLng0, hostile));
    trace.time.push_back(kind == 1 ? rng.UniformInt(0, 4) * 10
                                   : rng.UniformInt(0, kTimes));
  }
  if (kind != 2) std::sort(trace.time.begin(), trace.time.end());
  return trace;
}

RangeQuery RandomQuery(util::Rng& rng) {
  const auto edge = [&](double origin, std::int64_t lo) {
    return origin + kStep * static_cast<double>(rng.UniformInt(lo, kGrid));
  };
  const double lat0 = edge(kLat0, -1);
  const double lng0 = edge(kLng0, -1);
  RangeQuery query;
  query.box = geo::GeoBoundingBox(
      {lat0, lng0},
      {std::max(lat0, edge(kLat0, 0)), std::max(lng0, edge(kLng0, 0))});
  query.from = rng.UniformInt(-5, kTimes);
  // Mostly ordered windows; some inverted ones that contain nothing.
  query.to = query.from + rng.UniformInt(-3, kTimes / 2);
  return query;
}

TEST(AccumulateRangeCounts, MatchesPerQueryCountEvents) {
  util::Rng rng(20261018);
  std::vector<RangeQuery> queries;
  for (int q = 0; q < 60; ++q) queries.push_back(RandomQuery(rng));
  // Edge cases: the whole plane, a default (empty) box, a degenerate
  // point box, and windows that are a single instant.
  const double inf = std::numeric_limits<double>::infinity();
  queries.push_back({geo::GeoBoundingBox({-inf, -inf}, {inf, inf}),
                     std::numeric_limits<util::Timestamp>::min(),
                     std::numeric_limits<util::Timestamp>::max()});
  queries.push_back({geo::GeoBoundingBox(), 0, kTimes});
  queries.push_back({geo::GeoBoundingBox({kLat0, kLng0}, {kLat0, kLng0}),
                     0, kTimes});
  queries.push_back({geo::GeoBoundingBox({kLat0, kLng0},
                                         {kLat0 + 1.0, kLng0 + 1.0}),
                     20, 20});

  std::size_t nonzero = 0;
  for (int t = 0; t < 400; ++t) {
    const Columns trace = RandomTrace(rng, /*hostile=*/true);
    const model::TraceView view = trace.View();
    // The kernel adds to what is already there.
    std::vector<std::size_t> counts(queries.size(), 7);
    AccumulateRangeCounts(view, queries, counts);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::size_t expected = CountEvents(view, queries[q]);
      ASSERT_EQ(counts[q], 7 + expected) << "trace " << t << " query " << q;
      nonzero += expected > 0;
    }
  }
  // The workload must exercise the counting branch, not only the skips.
  EXPECT_GT(nonzero, 500u);
}

TEST(AccumulateRangeCounts, HandPickedEdges) {
  // Sorted with duplicates; fixes exactly at from/to and on box edges.
  Columns trace;
  trace.lat = {45.0, 45.0, 45.5, 46.0, 46.0, 46.5};
  trace.lng = {4.0, 4.0, 4.5, 5.0, 5.0, 5.5};
  trace.time = {10, 10, 20, 30, 30, 40};
  RangeQuery query{geo::GeoBoundingBox({45.0, 4.0}, {46.0, 5.0}), 10, 30};
  std::vector<std::size_t> counts(1, 0);
  AccumulateRangeCounts(trace.View(), {&query, 1}, counts);
  EXPECT_EQ(counts[0], 5u);

  // The same fixes with the times reversed take the unsorted scan.
  std::reverse(trace.time.begin(), trace.time.end());
  counts[0] = 0;
  AccumulateRangeCounts(trace.View(), {&query, 1}, counts);
  EXPECT_EQ(counts[0], CountEvents(trace.View(), query));

  // An empty trace adds nothing.
  counts[0] = 0;
  AccumulateRangeCounts(Columns{}.View(), {&query, 1}, counts);
  EXPECT_EQ(counts[0], 0u);
}

TEST(MeasureRangeQueryError, AllNanTraceDoesNotWidenTheWorkload) {
  // A dataset box stretched by an all-NaN trace would sample queries
  // spanning the globe; the finite trace's box bounds them instead.
  model::Dataset dataset = SampleDataset();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  dataset.AddTraceForUser("v", {{{nan, nan}, 0}});
  const geo::GeoBoundingBox bbox = dataset.BoundingBox();
  EXPECT_LT(bbox.NorthEast().lat - bbox.SouthWest().lat, 1.0);
  util::Rng rng(9);
  for (const RangeQuery& query :
       SampleQueries(dataset, RangeQueryConfig{}, rng)) {
    EXPECT_GE(query.box.SouthWest().lat, bbox.SouthWest().lat);
    EXPECT_LE(query.box.NorthEast().lng, bbox.NorthEast().lng);
  }
}

// ---- The shard fold against the whole-view evaluator -------------------

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(RangeQueryFold, FoldOverShardsEqualsEvaluate) {
  util::Rng rng(77);
  std::vector<Columns> original;
  std::vector<Columns> published;
  for (int t = 0; t < 60; ++t) {
    Columns trace = RandomTrace(rng, /*hostile=*/false);
    if (trace.time.empty()) trace = Columns{{kLat0}, {kLng0}, {5}};
    Columns noisy = trace;
    for (double& lat : noisy.lat) lat += kStep * rng.Uniform(-1.0, 1.0);
    if (t % 7 == 3) noisy = Columns{};  // suppressed by the mechanism
    if (t % 5 == 1) std::reverse(noisy.time.begin(), noisy.time.end());
    original.push_back(std::move(trace));
    published.push_back(std::move(noisy));
  }
  std::vector<model::TraceView> orig_views;
  std::vector<model::TraceView> pub_views;
  std::vector<model::TraceView> pub_kept;  // the whole view drops suppressed
  for (std::size_t t = 0; t < original.size(); ++t) {
    orig_views.push_back(original[t].View(static_cast<model::UserId>(t)));
    pub_views.push_back(published[t].View(static_cast<model::UserId>(t)));
    if (!published[t].time.empty()) pub_kept.push_back(pub_views.back());
  }
  const model::DatasetView whole_original(orig_views, orig_views.size(), {});
  const model::DatasetView whole_published(pub_kept, orig_views.size(), {});

  const auto evaluator = core::CreateEvaluator("range_queries[n=40]");
  constexpr std::uint64_t kSeed = 31;
  const core::EvalInput input{
      whole_original, whole_published,
      geo::LocalProjection(whole_original.BoundingBox().Center()), kSeed};
  const std::vector<core::MetricValue> expected = evaluator->Evaluate(input);

  core::ShardSlice base;
  base.user_count = orig_views.size();
  base.original_bbox = whole_original.BoundingBox();
  base.published_bbox = whole_published.BoundingBox();
  base.original_t_min = std::numeric_limits<util::Timestamp>::max();
  base.original_t_max = std::numeric_limits<util::Timestamp>::min();
  for (const model::TraceView& trace : orig_views) {
    base.original_t_min = std::min(base.original_t_min, trace.time(0));
    base.original_t_max =
        std::max(base.original_t_max, trace.time(trace.size() - 1));
  }
  std::vector<std::size_t> canonical(orig_views.size());
  for (std::size_t t = 0; t < canonical.size(); ++t) canonical[t] = t;

  // Uneven contiguous shards; both feeding forms must give Evaluate's
  // bits: one fold per cell (AccumulateShard), and a shared original
  // fold adopted by a published-only fold.
  const std::vector<std::size_t> cuts = {0, 7, 8, 31, 60};
  auto whole = evaluator->MakeTraceFold(kSeed);
  auto shared_original = evaluator->MakeTraceFold(kSeed);
  auto published_only = evaluator->MakeTraceFold(kSeed);
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    core::ShardSlice slice = base;
    const std::size_t begin = cuts[k];
    const std::size_t count = cuts[k + 1] - begin;
    slice.original = std::span(orig_views).subspan(begin, count);
    slice.published = std::span(pub_views).subspan(begin, count);
    slice.canonical_index = std::span(canonical).subspan(begin, count);
    whole->AccumulateShard(slice);
    shared_original->AccumulateOriginal(slice);
    published_only->AccumulatePublished(slice);
  }
  published_only->AdoptOriginal(*shared_original);
  for (auto* fold : {whole.get(), published_only.get()}) {
    const std::vector<core::MetricValue> got = fold->Finalize();
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t m = 0; m < got.size(); ++m) {
      EXPECT_EQ(got[m].metric, expected[m].metric);
      EXPECT_EQ(Bits(got[m].value), Bits(expected[m].value))
          << got[m].metric << ": " << got[m].value << " vs "
          << expected[m].value;
    }
  }
  // Not a vacuous comparison: the workload sees real errors.
  EXPECT_GT(expected[2].value, 0.0);
}

}  // namespace
}  // namespace mobipriv::metrics
