// The uniform evaluation interface of the scenario engine: one Evaluator
// scores one aspect (a utility metric or a privacy attack) of an
// (original, published) dataset pair, consuming non-owning DatasetViews so
// mmap-opened `.mpc` files and shard slices feed it without materializing
// an AoS dataset first.
//
// metrics/evaluators.h and attacks/evaluators.h implement this interface
// over the existing metric/attack kernels; the registry below turns spec
// strings ("coverage[cell=200m]", "reident", ...) into instances, exactly
// like mechanisms/registry.h does for mechanisms — a scenario grid is
// mechanism spec strings x evaluator spec strings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "geo/bounding_box.h"
#include "geo/projection.h"
#include "model/views.h"
#include "util/spec.h"

namespace mobipriv::core {

/// One grid cell's evaluation input. The views alias storage owned by the
/// engine (an mmap, an event store or an AoS dataset) and must outlive the
/// Evaluate or Compare call; `frame` is the shared planar projection centred on the
/// original dataset, so attack geometry agrees across evaluators.
struct EvalInput {
  model::DatasetView original;
  model::DatasetView published;
  geo::LocalProjection frame;
  /// Scenario seed of this grid cell — evaluators with sampled workloads
  /// (range queries) derive their streams from it, so one seed pins the
  /// whole report.
  std::uint64_t seed = 0;
};

/// One scored number under a stable metric name ("coverage_jaccard").
struct MetricValue {
  std::string metric;
  double value = 0.0;
};

/// One resident shard of a shard-streamed evaluation (see TraceFold).
/// The spans alias the currently mapped shard plus the per-shard mechanism
/// output buffer; they are valid only for the duration of one
/// Accumulate call. Trace order within a shard is canonical-order
/// restricted: shard-local index ascending == original dataset order
/// filtered to this shard's traces, and every trace of one user lives in
/// the same shard — so per-user passes (radius of gyration) see exactly
/// the trace sequence the whole-view path sees.
struct ShardSlice {
  /// Original traces of this shard, user ids rewritten to GLOBAL dense ids.
  std::span<const model::TraceView> original;
  /// Original dataset-order index of each trace (parallel to `original`).
  std::span<const std::size_t> canonical_index;
  /// Published traces, parallel to `original`. A size()==0 view means the
  /// mechanism suppressed the trace (whole-view assembly drops it).
  std::span<const model::TraceView> published;
  /// Global user count (names table size) of the full dataset.
  std::size_t user_count = 0;
  /// Extents of the FULL datasets, folded by the engine's pre-pass before
  /// any fold runs: exactly what DatasetView::BoundingBox() over the whole
  /// data would return, and the min first-fix / max last-fix timestamp
  /// over non-empty original traces (t_min > t_max when there are none).
  geo::GeoBoundingBox original_bbox;
  geo::GeoBoundingBox published_bbox;
  util::Timestamp original_t_min = 0;
  util::Timestamp original_t_max = 0;
};

/// Streaming accumulator for one (mechanism output, evaluator, seed) grid
/// cell, split into an original half and a published half.
///
/// - AccumulateOriginal reads only `original`, `canonical_index`,
///   `user_count` and the original extents of a slice; AccumulatePublished
///   reads only `published`, `canonical_index`, `user_count` and the
///   extents. Each half is fed once per shard in ascending shard order.
/// - The original half depends on (evaluator, seed) alone, never on the
///   grid row. The shard-streamed engine therefore folds it once per
///   (evaluator, seed) into one fold, feeds every row's fold only the
///   published half, and has each row's fold AdoptOriginal that one
///   before Finalize. AdoptOriginal takes a fold of the same evaluator
///   and seed that has seen the same shards.
/// - AccumulateShard feeds both halves of one slice to this fold: the
///   one-fold-per-cell form callers outside the engine use.
///
/// Contract: Finalize must return metrics bit-identical to Evaluate()
/// over the whole views, whichever of the two feeding forms produced the
/// state — folds replicate their evaluator's arithmetic, not approximate
/// it, and a half never reads state the other half writes. Folds are
/// single-threaded objects.
class TraceFold {
 public:
  virtual ~TraceFold() = default;
  virtual void AccumulateOriginal(const ShardSlice& slice) = 0;
  virtual void AccumulatePublished(const ShardSlice& slice) = 0;
  /// Replaces this fold's original-side state with a copy of `source`'s.
  virtual void AdoptOriginal(const TraceFold& source) = 0;
  [[nodiscard]] virtual std::vector<MetricValue> Finalize() = 0;

  void AccumulateShard(const ShardSlice& slice) {
    AccumulateOriginal(slice);
    AccumulatePublished(slice);
  }
};

/// What one evaluator computed from the original dataset alone for one
/// seed (see Evaluator::PrepareOriginal). Concrete evaluators derive their
/// own state type.
class OriginalState {
 public:
  virtual ~OriginalState() = default;
};

/// `state` as the concrete type `State` the preparing evaluator returned.
/// Throws std::invalid_argument when `state` is null or another
/// evaluator's.
template <typename State>
[[nodiscard]] const State& StateAs(const OriginalState* state) {
  const auto* typed = dynamic_cast<const State*>(state);
  if (typed == nullptr) {
    throw std::invalid_argument("original state of another evaluator");
  }
  return *typed;
}

/// Scores one aspect of an (original, published) pair in two halves, the
/// way TraceFold splits a streamed evaluation:
///
/// - PrepareOriginal(original, frame, seed) does the original-only work
///   (reference POIs, query workload and its original counts, trip
///   lengths, ...). It may read only its three arguments and the
///   evaluator's own configuration, so its result depends on (evaluator,
///   seed) alone and serves every grid row scored against that original.
///   The returned state is immutable and shared: the engine hands one
///   instance to many concurrent Compare calls. (A state may fill a cache
///   on its first use in Compare, under its own once-only synchronisation,
///   when the cached value is what every caller would compute.) The
///   default returns nullptr (no original-side work).
/// - Compare(input, state) does the rest of the cell's work. `state` is
///   what this evaluator's PrepareOriginal returned for input.original,
///   input.frame and input.seed (possibly nullptr).
/// - Evaluate(input) is Compare(input, PrepareOriginal(...)) in one call:
///   the form callers scoring a single pair use.
///
/// Contract: Compare with a reused state returns metrics bit-identical to
/// Evaluate, for any published set. Both halves are const, stateless and
/// deterministic at any thread count (the engine calls one instance from
/// many DAG workers concurrently).
///
/// A downstream evaluator overrides Name and Compare; it overrides
/// PrepareOriginal too when part of its work reads only the original, and
/// registers a factory with RegisterEvaluator.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Stable identifier, round-trippable through CreateEvaluator.
  [[nodiscard]] virtual std::string Name() const = 0;

  [[nodiscard]] virtual std::shared_ptr<const OriginalState> PrepareOriginal(
      const model::DatasetView& original, const geo::LocalProjection& frame,
      std::uint64_t seed) const;

  [[nodiscard]] virtual std::vector<MetricValue> Compare(
      const EvalInput& input, const OriginalState* state) const = 0;

  /// Scores the pair in one call (both halves, nothing shared).
  [[nodiscard]] std::vector<MetricValue> Evaluate(
      const EvalInput& input) const;

  /// Streaming counterpart of Evaluate for the shard-by-shard engine
  /// path. `seed` is the grid cell's scenario seed (what EvalInput::seed
  /// would carry). Returning nullptr (the default) declares the evaluator
  /// non-foldable: any grid row using it falls back to the whole-view
  /// path. Implementations must satisfy the TraceFold bit-identity
  /// contract.
  [[nodiscard]] virtual std::unique_ptr<TraceFold> MakeTraceFold(
      std::uint64_t seed) const {
    (void)seed;
    return nullptr;
  }
};

using EvaluatorFactory =
    std::function<std::unique_ptr<Evaluator>(const util::Spec&)>;

/// Registers (or replaces) the factory for `base`. The library's
/// evaluators are pre-registered; downstream metrics/attacks hook in here
/// and then participate in scenario grids like any built-in.
void RegisterEvaluator(std::string base, EvaluatorFactory factory);

/// Instantiates an evaluator from its spec string. Throws util::SpecError
/// on malformed specs, unknown bases or unknown parameters.
[[nodiscard]] std::unique_ptr<Evaluator> CreateEvaluator(
    std::string_view spec);

/// Registered base names, sorted.
[[nodiscard]] std::vector<std::string> RegisteredEvaluatorBases();

}  // namespace mobipriv::core
