// Spatio-temporal range-query distortion: the analyst-facing utility metric
// of E7. A workload of random queries "how many fixes fall in rectangle R
// during [t0, t1]?" is evaluated on the original and the published dataset;
// the metric is the distribution of relative errors. This is the standard
// utility benchmark of the trajectory-anonymization literature (including
// the Wait4Me paper the baseline reimplements).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "geo/bounding_box.h"
#include "model/dataset.h"
#include "model/views.h"
#include "util/rng.h"
#include "util/statistics.h"

namespace mobipriv::metrics {

struct RangeQuery {
  geo::GeoBoundingBox box;
  util::Timestamp from = 0;
  util::Timestamp to = 0;
};

struct RangeQueryConfig {
  std::size_t query_count = 200;
  /// Query rectangle edge, as a fraction of the dataset bounding box edge.
  double min_size_fraction = 0.05;
  double max_size_fraction = 0.25;
  /// Query duration, seconds.
  util::Timestamp min_duration_s = 1800;
  util::Timestamp max_duration_s = 4 * 3600;
};

/// Number of events inside the query (closed bounds), by a plain scan:
/// the reference AccumulateRangeCounts is tested against. The view form
/// is the implementation; the Dataset form adapts zero-copy. The
/// TraceView form counts one trace (sum over traces == the dataset
/// count).
[[nodiscard]] std::size_t CountEvents(const model::DatasetView& dataset,
                                      const RangeQuery& query);
[[nodiscard]] std::size_t CountEvents(const model::Dataset& dataset,
                                      const RangeQuery& query);
[[nodiscard]] std::size_t CountEvents(const model::TraceView& trace,
                                      const RangeQuery& query);

/// The range-count kernel: adds `trace`'s count inside each query to
/// `counts[q]` (closed bounds, exactly CountEvents(trace, queries[q])).
/// One pass records the trace's lat/lng box, time span and whether its
/// times are non-decreasing; a query missing the box or the span costs
/// two compares, and on a sorted trace only the fixes binary-searched
/// into [from, to] are box-tested. Unsorted times (hostile `.mpc` input
/// is not validated on load) fall back to a linear scan per query.
/// Counts are integers, so summing them in any order is exact.
void AccumulateRangeCounts(const model::TraceView& trace,
                           std::span<const RangeQuery> queries,
                           std::span<std::size_t> counts);

/// Samples a query workload covering the dataset's extent and time span.
[[nodiscard]] std::vector<RangeQuery> SampleQueries(
    const model::DatasetView& dataset, const RangeQueryConfig& config,
    util::Rng& rng);
[[nodiscard]] std::vector<RangeQuery> SampleQueries(
    const model::Dataset& dataset, const RangeQueryConfig& config,
    util::Rng& rng);

/// Workload sampling from precomputed extents — the exact draw sequence
/// SampleQueries makes once it knows the bounding box and time span, so a
/// caller that folded those extents out-of-core (the shard-streamed
/// engine) samples the identical workload without a resident dataset.
/// Empty when `bbox` is empty or t_min > t_max (no events).
[[nodiscard]] std::vector<RangeQuery> SampleQueriesFromExtent(
    const geo::GeoBoundingBox& bbox, util::Timestamp t_min,
    util::Timestamp t_max, const RangeQueryConfig& config, util::Rng& rng);

struct RangeQueryReport {
  util::Summary relative_error;  ///< |orig - pub| / max(orig, 1), per query
  std::size_t queries = 0;
  std::size_t empty_on_original = 0;  ///< queries with no original events

  [[nodiscard]] std::string ToString() const;
};

/// Per-query event counts of a dataset (closed bounds). Traces fan out on
/// the thread pool through AccumulateRangeCounts; the counts are integer
/// sums, so they are exact at any worker count.
[[nodiscard]] std::vector<std::size_t> RangeCounts(
    const model::DatasetView& dataset, std::span<const RangeQuery> queries);

/// The error distribution of one workload from its per-query counts on the
/// original and the published dataset (parallel vectors).
[[nodiscard]] RangeQueryReport RangeQueryErrorOf(
    std::span<const std::size_t> original_counts,
    std::span<const std::size_t> published_counts);

/// Runs the workload on both datasets and reports the error distribution:
/// RangeQueryErrorOf over each side's RangeCounts, byte-identical at any
/// worker count. The view form is the implementation; the Dataset form
/// adapts zero-copy.
[[nodiscard]] RangeQueryReport MeasureRangeQueryError(
    const model::DatasetView& original, const model::DatasetView& published,
    const std::vector<RangeQuery>& queries);
[[nodiscard]] RangeQueryReport MeasureRangeQueryError(
    const model::Dataset& original, const model::Dataset& published,
    const std::vector<RangeQuery>& queries);

}  // namespace mobipriv::metrics
