#include "metrics/range_queries.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>
#include <sstream>

#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace mobipriv::metrics {

std::size_t CountEvents(const model::DatasetView& dataset,
                        const RangeQuery& query) {
  std::size_t count = 0;
  for (const auto& trace : dataset.traces()) {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const util::Timestamp time = trace.time(i);
      if (time < query.from || time > query.to) continue;
      if (query.box.Contains(trace.position(i))) ++count;
    }
  }
  return count;
}

std::size_t CountEvents(const model::Dataset& dataset,
                        const RangeQuery& query) {
  return CountEvents(model::DatasetView::Of(dataset), query);
}

std::size_t CountEvents(const model::TraceView& trace,
                        const RangeQuery& query) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const util::Timestamp time = trace.time(i);
    if (time < query.from || time > query.to) continue;
    if (query.box.Contains(trace.position(i))) ++count;
  }
  return count;
}

void AccumulateRangeCounts(const model::TraceView& trace,
                           std::span<const RangeQuery> queries,
                           std::span<std::size_t> counts) {
  assert(counts.size() == queries.size());
  const std::size_t n = trace.size();
  if (n == 0) return;
  geo::GeoBoundingBox box;
  util::Timestamp t_min = trace.time(0);
  util::Timestamp t_max = t_min;
  bool sorted = true;
  for (std::size_t i = 0; i < n; ++i) {
    const util::Timestamp time = trace.time(i);
    // While the prefix is sorted its running maximum is the previous fix.
    sorted = sorted && time >= t_max;
    t_min = std::min(t_min, time);
    t_max = std::max(t_max, time);
    box.Extend(trace.position(i));
  }
  // First index whose time fails `before` (times non-decreasing).
  const auto partition_point = [&](auto before) {
    std::size_t lo = 0;
    std::size_t hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (before(trace.time(mid))) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const RangeQuery& query = queries[q];
    // A fix Contains accepts has no NaN coordinate, so it lies in `box`;
    // missing the box or the time span therefore means a zero count.
    if (query.to < t_min || query.from > t_max) continue;
    if (!box.Intersects(query.box)) continue;
    if (!sorted) {
      counts[q] += CountEvents(trace, query);
      continue;
    }
    const std::size_t begin = partition_point(
        [&](util::Timestamp time) { return time < query.from; });
    const std::size_t end = partition_point(
        [&](util::Timestamp time) { return time <= query.to; });
    std::size_t count = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (query.box.Contains(trace.position(i))) ++count;
    }
    counts[q] += count;
  }
}

std::vector<RangeQuery> SampleQueries(const model::DatasetView& dataset,
                                      const RangeQueryConfig& config,
                                      util::Rng& rng) {
  const geo::GeoBoundingBox bbox = dataset.BoundingBox();

  // Dataset time span.
  util::Timestamp t_min = std::numeric_limits<util::Timestamp>::max();
  util::Timestamp t_max = std::numeric_limits<util::Timestamp>::min();
  for (const auto& trace : dataset.traces()) {
    if (trace.empty()) continue;
    t_min = std::min(t_min, trace.time(0));
    t_max = std::max(t_max, trace.time(trace.size() - 1));
  }
  return SampleQueriesFromExtent(bbox, t_min, t_max, config, rng);
}

std::vector<RangeQuery> SampleQueriesFromExtent(
    const geo::GeoBoundingBox& bbox, util::Timestamp t_min,
    util::Timestamp t_max, const RangeQueryConfig& config, util::Rng& rng) {
  std::vector<RangeQuery> queries;
  if (bbox.IsEmpty()) return queries;
  if (t_min > t_max) return queries;

  const double lat_span = bbox.NorthEast().lat - bbox.SouthWest().lat;
  const double lng_span = bbox.NorthEast().lng - bbox.SouthWest().lng;
  queries.reserve(config.query_count);
  for (std::size_t q = 0; q < config.query_count; ++q) {
    const double f =
        rng.Uniform(config.min_size_fraction, config.max_size_fraction);
    const double dlat = lat_span * f;
    const double dlng = lng_span * f;
    const double lat0 =
        rng.Uniform(bbox.SouthWest().lat, bbox.NorthEast().lat - dlat);
    const double lng0 =
        rng.Uniform(bbox.SouthWest().lng, bbox.NorthEast().lng - dlng);
    RangeQuery query;
    query.box = geo::GeoBoundingBox({lat0, lng0}, {lat0 + dlat, lng0 + dlng});
    const auto duration = static_cast<util::Timestamp>(
        rng.Uniform(static_cast<double>(config.min_duration_s),
                    static_cast<double>(config.max_duration_s)));
    const auto span = t_max - t_min;
    const auto start =
        t_min + static_cast<util::Timestamp>(
                    rng.Uniform(0.0, static_cast<double>(
                                         std::max<util::Timestamp>(
                                             1, span - duration))));
    query.from = start;
    query.to = start + duration;
    queries.push_back(query);
  }
  return queries;
}

std::vector<RangeQuery> SampleQueries(const model::Dataset& dataset,
                                      const RangeQueryConfig& config,
                                      util::Rng& rng) {
  return SampleQueries(model::DatasetView::Of(dataset), config, rng);
}

std::string RangeQueryReport::ToString() const {
  std::ostringstream os;
  os << "queries=" << queries << " empty_on_original=" << empty_on_original
     << " rel_error: " << relative_error.ToString();
  return os.str();
}

std::vector<std::size_t> RangeCounts(const model::DatasetView& dataset,
                                     std::span<const RangeQuery> queries) {
  // Traces fan out into chunk-local counts merged under a lock; integer
  // sums are order-free.
  std::vector<std::size_t> counts(queries.size(), 0);
  std::mutex mutex;
  util::ParallelFor(dataset.TraceCount(), [&](std::size_t begin,
                                              std::size_t end) {
    std::vector<std::size_t> local(queries.size(), 0);
    for (std::size_t t = begin; t < end; ++t) {
      AccumulateRangeCounts(dataset.trace(t), queries, local);
    }
    const std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t q = 0; q < queries.size(); ++q) counts[q] += local[q];
  });
  return counts;
}

RangeQueryReport RangeQueryErrorOf(
    std::span<const std::size_t> original_counts,
    std::span<const std::size_t> published_counts) {
  assert(original_counts.size() == published_counts.size());
  RangeQueryReport report;
  report.queries = original_counts.size();
  std::vector<double> errors(original_counts.size());
  for (std::size_t q = 0; q < original_counts.size(); ++q) {
    if (original_counts[q] == 0) ++report.empty_on_original;
    const double denom =
        std::max<double>(1.0, static_cast<double>(original_counts[q]));
    errors[q] = std::abs(static_cast<double>(original_counts[q]) -
                         static_cast<double>(published_counts[q])) /
                denom;
  }
  report.relative_error = util::Summary::Of(errors);
  return report;
}

RangeQueryReport MeasureRangeQueryError(
    const model::DatasetView& original, const model::DatasetView& published,
    const std::vector<RangeQuery>& queries) {
  return RangeQueryErrorOf(RangeCounts(original, queries),
                           RangeCounts(published, queries));
}

RangeQueryReport MeasureRangeQueryError(
    const model::Dataset& original, const model::Dataset& published,
    const std::vector<RangeQuery>& queries) {
  return MeasureRangeQueryError(model::DatasetView::Of(original),
                                model::DatasetView::Of(published), queries);
}

}  // namespace mobipriv::metrics
