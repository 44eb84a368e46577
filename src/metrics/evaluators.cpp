#include "metrics/evaluators.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "geo/projection.h"
#include "metrics/spatial_distortion.h"
#include "metrics/trajectory_stats.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace mobipriv::metrics {
namespace {

// Stream salt separating the range-query workload from every other
// consumer of the grid cell's seed.
constexpr std::uint64_t kRangeQuerySalt = 0x5251554552590001ULL;

std::vector<core::MetricValue> RangeErrorMetrics(
    const RangeQueryReport& report) {
  return {{"range_err_median", report.relative_error.median},
          {"range_err_p95", report.relative_error.p95},
          {"range_err_mean", report.relative_error.mean}};
}

/// The bounding box both coverage and heatmap rasterize in: the union of
/// the two datasets' boxes, as CoverageJaccard and HeatmapSimilarity
/// build it.
geo::GeoBoundingBox UnionBox(const geo::GeoBoundingBox& original,
                             const model::DatasetView& published) {
  geo::GeoBoundingBox bbox = original;
  bbox.Extend(published.BoundingBox());
  return bbox;
}

/// True when a side rasterized in the frame centred on `prepared` is the
/// one the union frame would build: a non-empty box whose centre has the
/// same bits as `centre` (NaN centres included, which == would reject).
bool SameFrame(const geo::GeoBoundingBox& prepared, geo::LatLng centre) {
  if (prepared.IsEmpty()) return false;
  const geo::LatLng own = prepared.Center();
  return std::bit_cast<std::uint64_t>(own.lat) ==
             std::bit_cast<std::uint64_t>(centre.lat) &&
         std::bit_cast<std::uint64_t>(own.lng) ==
             std::bit_cast<std::uint64_t>(centre.lng);
}

/// coverage and heatmap keep the original's box, and its raster in the
/// frame centred on that box. The raster is built by the first Compare
/// whose union box has that centre, never by PrepareOriginal: a cell whose
/// published fixes leave the box rasterizes in another frame, so an eager
/// raster would be wasted there and would make Evaluate do the original's
/// rasterization twice. The once_flag makes the fill safe from concurrent
/// Compare calls; the raster never changes after it.
struct CoverageState final : core::OriginalState {
  geo::GeoBoundingBox bbox;
  mutable std::once_flag once;
  mutable CellSet cells;
};

struct HeatmapState final : core::OriginalState {
  geo::GeoBoundingBox bbox;
  mutable std::once_flag once;
  mutable std::optional<Heatmap> heatmap;
};

struct RangeQueryState final : core::OriginalState {
  std::vector<RangeQuery> queries;
  std::vector<std::size_t> counts;
};

struct TrajectoryStatsState final : core::OriginalState {
  std::vector<double> sorted_trips;
  std::vector<double> gyration;
};

/// Shard-streamed trajectory_stats. Trip lengths are per-trace, so each
/// lands in its canonical slot and Finalize replays the whole-view trace
/// order; gyration is per-user and every user's traces share a home shard,
/// so each radius computes whole from one slice. The projection frames
/// come from the engine-folded full-dataset bounding boxes — identical to
/// the ones CompareTrajectoryStats builds. The two halves keep disjoint
/// state: original trips and radii vs published ones.
class TrajectoryStatsFold final : public core::TraceFold {
 public:
  void AccumulateOriginal(const core::ShardSlice& slice) override {
    if (!frame_original_) {
      frame_original_.emplace(slice.original_bbox.Center());
      gyration_original_.assign(slice.user_count, 0.0);
    }
    for (std::size_t i = 0; i < slice.original.size(); ++i) {
      const std::size_t slot = slice.canonical_index[i];
      if (slot >= trip_original_.size()) trip_original_.resize(slot + 1, 0.0);
      trip_original_[slot] = slice.original[i].LengthMeters();
    }
    AccumulateGyration(slice.original, *frame_original_, /*skip_empty=*/false,
                       gyration_original_);
  }

  void AccumulatePublished(const core::ShardSlice& slice) override {
    if (!frame_published_) {
      frame_published_.emplace(slice.published_bbox.Center());
      gyration_published_.assign(slice.user_count, 0.0);
    }
    for (std::size_t i = 0; i < slice.published.size(); ++i) {
      const std::size_t slot = slice.canonical_index[i];
      if (slot >= trip_published_.size()) {
        trip_published_.resize(slot + 1, 0.0);
        published_alive_.resize(slot + 1, 0);
      }
      if (!slice.published[i].empty()) {
        trip_published_[slot] = slice.published[i].LengthMeters();
        published_alive_[slot] = 1;
      }
    }
    AccumulateGyration(slice.published, *frame_published_,
                       /*skip_empty=*/true, gyration_published_);
  }

  void AdoptOriginal(const core::TraceFold& source) override {
    const auto& other = dynamic_cast<const TrajectoryStatsFold&>(source);
    frame_original_ = other.frame_original_;
    trip_original_ = other.trip_original_;
    gyration_original_ = other.gyration_original_;
  }

  std::vector<core::MetricValue> Finalize() override {
    // Compacting the canonical slots reproduces TripLengths on each whole
    // view, suppression drops and the >= 0 filter included.
    std::vector<double> trips_orig;
    trips_orig.reserve(trip_original_.size());
    for (const double length : trip_original_) {
      if (length >= 0.0) trips_orig.push_back(length);
    }
    std::vector<double> trips_pub;
    trips_pub.reserve(trip_published_.size());
    for (std::size_t t = 0; t < trip_published_.size(); ++t) {
      if (published_alive_[t] && trip_published_[t] >= 0.0) {
        trips_pub.push_back(trip_published_[t]);
      }
    }
    const double emd = EarthMoversDistance(trips_orig, trips_pub);
    const util::Summary pub_summary = util::Summary::Of(trips_pub);

    return {{"trip_len_emd_m", emd},
            {"gyration_rel_err",
             GyrationRelativeError(gyration_original_, gyration_published_)},
            {"trip_len_pub_mean_m", pub_summary.mean}};
  }

 private:
  static void AccumulateGyration(std::span<const model::TraceView> traces,
                                 const geo::LocalProjection& frame,
                                 bool skip_empty, std::vector<double>& radii) {
    // Bucket the slice's traces by user in slice order (== canonical order
    // restricted to this shard), exactly the sequence AllRadiiOfGyration's
    // per-user buckets visit.
    std::unordered_map<model::UserId, std::size_t> slot;
    std::vector<model::UserId> owner;
    std::vector<std::vector<model::TraceView>> buckets;
    for (const model::TraceView& trace : traces) {
      if (skip_empty && trace.empty()) continue;
      const auto [it, inserted] = slot.try_emplace(trace.user(), buckets.size());
      if (inserted) {
        owner.push_back(trace.user());
        buckets.emplace_back();
      }
      buckets[it->second].push_back(trace);
    }
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (owner[b] < radii.size()) {
        radii[owner[b]] = RadiusOfGyrationOfTraces(buckets[b], frame);
      }
    }
  }

  std::optional<geo::LocalProjection> frame_original_;
  std::optional<geo::LocalProjection> frame_published_;
  /// Canonical-slot trip lengths; `published_alive_` marks non-suppressed
  /// outputs (the whole-view published dataset keeps exactly those).
  std::vector<double> trip_original_;
  std::vector<double> trip_published_;
  std::vector<unsigned char> published_alive_;
  std::vector<double> gyration_original_;
  std::vector<double> gyration_published_;
};

/// Shard-streamed range_queries. The workload samples once per fold,
/// from the engine-folded full-dataset extents — the identical draw
/// sequence SampleQueries makes — and per-query event counts are
/// integers, so summing them shard by shard is exact. Each half counts
/// its side through the AccumulateRangeCounts kernel.
class RangeQueryFold final : public core::TraceFold {
 public:
  RangeQueryFold(const RangeQueryConfig& config, std::uint64_t seed)
      : config_(config), seed_(seed) {}

  void AccumulateOriginal(const core::ShardSlice& slice) override {
    Sample(slice);
    for (const model::TraceView& trace : slice.original) {
      AccumulateRangeCounts(trace, queries_, count_original_);
    }
  }

  void AccumulatePublished(const core::ShardSlice& slice) override {
    Sample(slice);
    // Suppressed outputs are empty views and count zero events — the
    // same zero the whole-view path gets from dropping them.
    for (const model::TraceView& trace : slice.published) {
      AccumulateRangeCounts(trace, queries_, count_published_);
    }
  }

  void AdoptOriginal(const core::TraceFold& source) override {
    const auto& other = dynamic_cast<const RangeQueryFold&>(source);
    sampled_ = other.sampled_;
    queries_ = other.queries_;
    count_original_ = other.count_original_;
    count_published_.resize(queries_.size(), 0);
  }

  std::vector<core::MetricValue> Finalize() override {
    return RangeErrorMetrics(
        RangeQueryErrorOf(count_original_, count_published_));
  }

 private:
  void Sample(const core::ShardSlice& slice) {
    if (sampled_) return;
    sampled_ = true;
    util::Rng rng(util::DeriveStreamSeed(seed_, kRangeQuerySalt, 0));
    queries_ = SampleQueriesFromExtent(slice.original_bbox,
                                       slice.original_t_min,
                                       slice.original_t_max, config_, rng);
    count_original_.assign(queries_.size(), 0);
    count_published_.assign(queries_.size(), 0);
  }

  RangeQueryConfig config_;
  std::uint64_t seed_;
  bool sampled_ = false;
  std::vector<RangeQuery> queries_;
  std::vector<std::size_t> count_original_;
  std::vector<std::size_t> count_published_;
};

}  // namespace

std::string SpatialDistortionEvaluator::Name() const {
  return "spatial_distortion";
}

std::vector<core::MetricValue> SpatialDistortionEvaluator::Compare(
    const core::EvalInput& input, const core::OriginalState* /*state*/) const {
  const DistortionSummary summary =
      MeasureDistortion(input.original, input.published);
  return {{"path_mean_m", summary.path_m.mean},
          {"path_p95_m", summary.path_m.p95},
          {"sync_mean_m", summary.synchronized_m.mean},
          {"sync_p95_m", summary.synchronized_m.p95},
          {"compared_traces", static_cast<double>(summary.compared_traces)}};
}

CoverageEvaluator::CoverageEvaluator(CoverageConfig config)
    : config_(config) {}

std::string CoverageEvaluator::Name() const {
  return "coverage[cell=" + util::FormatDouble(config_.cell_size_m, 0) + "m]";
}

std::shared_ptr<const core::OriginalState> CoverageEvaluator::PrepareOriginal(
    const model::DatasetView& original, const geo::LocalProjection& /*frame*/,
    std::uint64_t /*seed*/) const {
  auto state = std::make_shared<CoverageState>();
  state->bbox = original.BoundingBox();
  return state;
}

std::vector<core::MetricValue> CoverageEvaluator::Compare(
    const core::EvalInput& input, const core::OriginalState* state) const {
  // CoverageJaccard, with the original's cells shared through the state
  // when they are rasterized in the original box's own frame.
  const auto& prepared = core::StateAs<CoverageState>(state);
  const geo::GeoBoundingBox bbox = UnionBox(prepared.bbox, input.published);
  if (bbox.IsEmpty()) return {{"coverage_jaccard", 1.0}};
  const geo::LocalProjection projection(bbox.Center());
  const CellSet published = VisitedCells(input.published, projection, config_);
  if (!SameFrame(prepared.bbox, bbox.Center())) {
    return {{"coverage_jaccard",
             CellJaccard(VisitedCells(input.original, projection, config_),
                         published)}};
  }
  std::call_once(prepared.once, [&] {
    prepared.cells = VisitedCells(input.original, projection, config_);
  });
  return {{"coverage_jaccard", CellJaccard(prepared.cells, published)}};
}

HeatmapEvaluator::HeatmapEvaluator(HeatmapConfig config) : config_(config) {}

std::string HeatmapEvaluator::Name() const {
  return "heatmap[cell=" + util::FormatDouble(config_.cell_size_m, 0) + "m]";
}

std::shared_ptr<const core::OriginalState> HeatmapEvaluator::PrepareOriginal(
    const model::DatasetView& original, const geo::LocalProjection& /*frame*/,
    std::uint64_t /*seed*/) const {
  auto state = std::make_shared<HeatmapState>();
  state->bbox = original.BoundingBox();
  return state;
}

std::vector<core::MetricValue> HeatmapEvaluator::Compare(
    const core::EvalInput& input, const core::OriginalState* state) const {
  // HeatmapSimilarity, with the original's heatmap shared through the
  // state when it is rasterized in the original box's own frame.
  const auto& prepared = core::StateAs<HeatmapState>(state);
  const geo::GeoBoundingBox bbox = UnionBox(prepared.bbox, input.published);
  if (bbox.IsEmpty()) return {{"heatmap_cosine", 1.0}};
  const geo::LocalProjection projection(bbox.Center());
  const Heatmap published(input.published, projection, config_);
  if (!SameFrame(prepared.bbox, bbox.Center())) {
    return {{"heatmap_cosine",
             Heatmap::Cosine(Heatmap(input.original, projection, config_),
                             published)}};
  }
  std::call_once(prepared.once, [&] {
    prepared.heatmap.emplace(input.original, projection, config_);
  });
  return {{"heatmap_cosine", Heatmap::Cosine(*prepared.heatmap, published)}};
}

RangeQueryEvaluator::RangeQueryEvaluator(RangeQueryConfig config)
    : config_(config) {}

std::string RangeQueryEvaluator::Name() const {
  return "range_queries[n=" + std::to_string(config_.query_count) + "]";
}

std::shared_ptr<const core::OriginalState>
RangeQueryEvaluator::PrepareOriginal(const model::DatasetView& original,
                                     const geo::LocalProjection& /*frame*/,
                                     std::uint64_t seed) const {
  auto state = std::make_shared<RangeQueryState>();
  util::Rng rng(util::DeriveStreamSeed(seed, kRangeQuerySalt, 0));
  state->queries = SampleQueries(original, config_, rng);
  state->counts = RangeCounts(original, state->queries);
  return state;
}

std::vector<core::MetricValue> RangeQueryEvaluator::Compare(
    const core::EvalInput& input, const core::OriginalState* state) const {
  const auto& prepared = core::StateAs<RangeQueryState>(state);
  return RangeErrorMetrics(RangeQueryErrorOf(
      prepared.counts, RangeCounts(input.published, prepared.queries)));
}

std::unique_ptr<core::TraceFold> RangeQueryEvaluator::MakeTraceFold(
    std::uint64_t seed) const {
  return std::make_unique<RangeQueryFold>(config_, seed);
}

std::string TrajectoryStatsEvaluator::Name() const {
  return "trajectory_stats";
}

std::shared_ptr<const core::OriginalState>
TrajectoryStatsEvaluator::PrepareOriginal(
    const model::DatasetView& original, const geo::LocalProjection& /*frame*/,
    std::uint64_t /*seed*/) const {
  auto state = std::make_shared<TrajectoryStatsState>();
  state->sorted_trips = TripLengths(original);
  std::sort(state->sorted_trips.begin(), state->sorted_trips.end());
  state->gyration = AllRadiiOfGyration(original);
  return state;
}

std::vector<core::MetricValue> TrajectoryStatsEvaluator::Compare(
    const core::EvalInput& input, const core::OriginalState* state) const {
  // The three numbers CompareTrajectoryStats reports, its original side
  // taken from the state.
  const auto& prepared = core::StateAs<TrajectoryStatsState>(state);
  std::vector<double> trips_pub = TripLengths(input.published);
  const util::Summary pub_summary = util::Summary::Of(trips_pub);
  std::sort(trips_pub.begin(), trips_pub.end());
  return {{"trip_len_emd_m",
           EarthMoversDistanceSorted(prepared.sorted_trips, trips_pub)},
          {"gyration_rel_err",
           GyrationRelativeError(prepared.gyration,
                                 AllRadiiOfGyration(input.published))},
          {"trip_len_pub_mean_m", pub_summary.mean}};
}

std::unique_ptr<core::TraceFold> TrajectoryStatsEvaluator::MakeTraceFold(
    std::uint64_t /*seed*/) const {
  return std::make_unique<TrajectoryStatsFold>();
}

KDeltaEvaluator::KDeltaEvaluator(KDeltaConfig config) : config_(config) {}

std::string KDeltaEvaluator::Name() const {
  // Injective on the config (the engine dedupes evaluators by name).
  const KDeltaConfig defaults;
  std::string name =
      "kdelta[delta=" + util::FormatDouble(config_.delta_m, 0) + "m";
  if (config_.grid_step_s != defaults.grid_step_s) {
    name += ",grid=" + std::to_string(config_.grid_step_s) + "s";
  }
  if (config_.tolerance != defaults.tolerance) {
    name += ",tolerance=" + util::FormatDouble(config_.tolerance, 3);
  }
  return name + "]";
}

std::vector<core::MetricValue> KDeltaEvaluator::Compare(
    const core::EvalInput& input, const core::OriginalState* /*state*/) const {
  const KDeltaReport report =
      MeasureKDeltaAnonymity(input.published, config_);
  return {{"kdelta_mean_k", report.k_distribution.mean},
          {"kdelta_frac_k2", report.FractionWithK(2)},
          {"kdelta_frac_k4", report.FractionWithK(4)}};
}

}  // namespace mobipriv::metrics
