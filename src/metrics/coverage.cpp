#include "metrics/coverage.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "geo/projection.h"
#include "util/parallel_reduce.h"

namespace mobipriv::metrics {
namespace {

std::uint64_t CellKey(geo::Point2 p, double cell) {
  const auto cx = static_cast<std::int64_t>(std::floor(p.x / cell));
  const auto cy = static_cast<std::int64_t>(std::floor(p.y / cell));
  // Interleave-free packing: 32 bits per axis is ample for city scales.
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
}

}  // namespace

CellSet VisitedCells(const model::DatasetView& dataset,
                     const geo::LocalProjection& projection,
                     const CoverageConfig& config) {
  const double cell = config.cell_size_m;
  return util::ParallelReduce<CellSet>(
      dataset.TraceCount(), /*grain=*/16,
      [&](std::size_t begin, std::size_t end) {
        CellSet cells;
        for (std::size_t t = begin; t < end; ++t) {
          const model::TraceView& trace = dataset.trace(t);
          for (std::size_t i = 0; i < trace.size(); ++i) {
            cells.insert(CellKey(projection.Project(trace.position(i)), cell));
          }
        }
        return cells;
      },
      [](CellSet& acc, CellSet&& partial) {
        acc.insert(partial.begin(), partial.end());
      });
}

double CellJaccard(const CellSet& a, const CellSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::size_t intersection = 0;
  for (const auto key : a) {
    if (b.contains(key)) ++intersection;
  }
  const std::size_t union_size = a.size() + b.size() - intersection;
  return union_size == 0 ? 1.0
                         : static_cast<double>(intersection) /
                               static_cast<double>(union_size);
}

double CoverageJaccard(const model::DatasetView& a,
                       const model::DatasetView& b,
                       const CoverageConfig& config) {
  geo::GeoBoundingBox bbox = a.BoundingBox();
  bbox.Extend(b.BoundingBox());
  if (bbox.IsEmpty()) return 1.0;  // both empty: identical footprints
  const geo::LocalProjection projection(bbox.Center());
  return CellJaccard(VisitedCells(a, projection, config),
                     VisitedCells(b, projection, config));
}

double CoverageJaccard(const model::Dataset& a, const model::Dataset& b,
                       const CoverageConfig& config) {
  return CoverageJaccard(model::DatasetView::Of(a), model::DatasetView::Of(b),
                         config);
}

std::size_t CellFootprint(const model::DatasetView& dataset,
                          const CoverageConfig& config) {
  const geo::GeoBoundingBox bbox = dataset.BoundingBox();
  if (bbox.IsEmpty()) return 0;
  const geo::LocalProjection projection(bbox.Center());
  return VisitedCells(dataset, projection, config).size();
}

std::size_t CellFootprint(const model::Dataset& dataset,
                          const CoverageConfig& config) {
  return CellFootprint(model::DatasetView::Of(dataset), config);
}

}  // namespace mobipriv::metrics
