// Utility-metric implementations of the scenario engine's Evaluator
// interface (core/evaluator.h). Each wraps an existing view-based metric
// kernel; all are registered with core::CreateEvaluator under the base
// name in their Name().
#pragma once

#include "core/evaluator.h"
#include "metrics/coverage.h"
#include "metrics/heatmap.h"
#include "metrics/kdelta.h"
#include "metrics/range_queries.h"

namespace mobipriv::metrics {

/// "spatial_distortion": path/synchronized error of published vs original
/// traces (metres) — the paper's headline utility metric.
class SpatialDistortionEvaluator final : public core::Evaluator {
 public:
  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] std::vector<core::MetricValue> Compare(
      const core::EvalInput& input,
      const core::OriginalState* state) const override;
};

/// "coverage[cell=...m]": Jaccard similarity of visited grid cells.
class CoverageEvaluator final : public core::Evaluator {
 public:
  explicit CoverageEvaluator(CoverageConfig config = {});
  [[nodiscard]] std::string Name() const override;
  /// Keeps the original's bounding box, and its visited cells in the frame
  /// centred on that box once a Compare has built them. Compare shares
  /// them whenever the union box has the same centre, bit for bit, and
  /// rasterizes the original afresh otherwise.
  [[nodiscard]] std::shared_ptr<const core::OriginalState> PrepareOriginal(
      const model::DatasetView& original, const geo::LocalProjection& frame,
      std::uint64_t seed) const override;
  [[nodiscard]] std::vector<core::MetricValue> Compare(
      const core::EvalInput& input,
      const core::OriginalState* state) const override;

 private:
  CoverageConfig config_;
};

/// "heatmap[cell=...m]": cosine similarity of event-density rasters.
class HeatmapEvaluator final : public core::Evaluator {
 public:
  explicit HeatmapEvaluator(HeatmapConfig config = {});
  [[nodiscard]] std::string Name() const override;
  /// Keeps the original's bounding box and its heatmap in the frame centred
  /// on that box, built and shared exactly like CoverageEvaluator's cells.
  [[nodiscard]] std::shared_ptr<const core::OriginalState> PrepareOriginal(
      const model::DatasetView& original, const geo::LocalProjection& frame,
      std::uint64_t seed) const override;
  [[nodiscard]] std::vector<core::MetricValue> Compare(
      const core::EvalInput& input,
      const core::OriginalState* state) const override;

 private:
  HeatmapConfig config_;
};

/// "range_queries[n=...]": relative-error distribution of a random
/// spatio-temporal counting workload sampled (deterministically from the
/// grid cell's seed) on the original dataset.
class RangeQueryEvaluator final : public core::Evaluator {
 public:
  explicit RangeQueryEvaluator(RangeQueryConfig config = {});
  [[nodiscard]] std::string Name() const override;
  /// Keeps the sampled workload and its per-query original counts.
  [[nodiscard]] std::shared_ptr<const core::OriginalState> PrepareOriginal(
      const model::DatasetView& original, const geo::LocalProjection& frame,
      std::uint64_t seed) const override;
  [[nodiscard]] std::vector<core::MetricValue> Compare(
      const core::EvalInput& input,
      const core::OriginalState* state) const override;
  /// Foldable: the workload samples from the folded full-dataset extents
  /// (SampleQueriesFromExtent) and per-query counts are exact integer sums
  /// over shards.
  [[nodiscard]] std::unique_ptr<core::TraceFold> MakeTraceFold(
      std::uint64_t seed) const override;

 private:
  RangeQueryConfig config_;
};

/// "trajectory_stats": trip-length EMD and radius-of-gyration error.
class TrajectoryStatsEvaluator final : public core::Evaluator {
 public:
  [[nodiscard]] std::string Name() const override;
  /// Keeps the original's sorted trip lengths and per-user gyration radii.
  [[nodiscard]] std::shared_ptr<const core::OriginalState> PrepareOriginal(
      const model::DatasetView& original, const geo::LocalProjection& frame,
      std::uint64_t seed) const override;
  [[nodiscard]] std::vector<core::MetricValue> Compare(
      const core::EvalInput& input,
      const core::OriginalState* state) const override;
  /// Foldable: trip lengths land in canonical slots and each user's
  /// gyration computes whole inside their home shard.
  [[nodiscard]] std::unique_ptr<core::TraceFold> MakeTraceFold(
      std::uint64_t seed) const override;
};

/// "kdelta[delta=...m]": measured (k, delta)-anonymity of the published
/// dataset (single-dataset privacy metric; the original is ignored).
class KDeltaEvaluator final : public core::Evaluator {
 public:
  explicit KDeltaEvaluator(KDeltaConfig config = {});
  [[nodiscard]] std::string Name() const override;
  [[nodiscard]] std::vector<core::MetricValue> Compare(
      const core::EvalInput& input,
      const core::OriginalState* state) const override;

 private:
  KDeltaConfig config_;
};

}  // namespace mobipriv::metrics
