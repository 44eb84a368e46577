// Area-coverage similarity: do analysts see the same *places* in the
// published data? Both datasets are rasterized onto a common grid; the
// metric is the Jaccard similarity of the visited-cell sets. Robust to
// swapping (identity-free) and to time distortion — it isolates pure
// geographic utility.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "geo/projection.h"
#include "model/dataset.h"
#include "model/views.h"

namespace mobipriv::metrics {

struct CoverageConfig {
  double cell_size_m = 200.0;
};

/// Jaccard similarity in [0, 1] of visited grid cells (1 = identical
/// footprints). Both datasets are projected on the union bounding box.
/// Rasterization fans out per trace on the thread pool; cell sets are
/// order-free, so the result is exact at any worker count. The view form
/// is the implementation; the Dataset form adapts zero-copy.
[[nodiscard]] double CoverageJaccard(const model::DatasetView& a,
                                     const model::DatasetView& b,
                                     const CoverageConfig& config = {});
[[nodiscard]] double CoverageJaccard(const model::Dataset& a,
                                     const model::Dataset& b,
                                     const CoverageConfig& config = {});

/// Packed grid-cell keys of visited cells.
using CellSet = std::unordered_set<std::uint64_t>;

/// Cells of `projection`'s plane visited by a dataset's fixes: one side
/// of CoverageJaccard. Rasterization fans out per trace on the thread
/// pool; set union is order-free, so the set is exact at any worker count.
[[nodiscard]] CellSet VisitedCells(const model::DatasetView& dataset,
                                   const geo::LocalProjection& projection,
                                   const CoverageConfig& config = {});

/// Jaccard similarity of two visited-cell sets rasterized in one frame
/// (1 when both are empty).
[[nodiscard]] double CellJaccard(const CellSet& a, const CellSet& b);

/// Number of distinct cells visited by a dataset (its footprint size).
[[nodiscard]] std::size_t CellFootprint(const model::DatasetView& dataset,
                                        const CoverageConfig& config = {});
[[nodiscard]] std::size_t CellFootprint(const model::Dataset& dataset,
                                        const CoverageConfig& config = {});

}  // namespace mobipriv::metrics
