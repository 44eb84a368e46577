// Common interface of all publication mechanisms (the paper's solution and
// every baseline). A mechanism maps a raw dataset to a sanitized dataset;
// randomness is supplied by the caller so runs are reproducible.
//
// One entry point, two adapters:
//   * ApplyToStore(DatasetView) — the single virtual: any storage layout in
//                               (AoS, EventStore, mmap'd .mpc), columnar
//                               EventStore out. The scenario engine runs
//                               it directly;
//   * ApplyView(DatasetView)  — ApplyToStore(view).ToDataset();
//   * Apply(Dataset)          — ApplyView(DatasetView::Of(dataset)).
// The adapters are non-virtual, so for the same input and seed every entry
// point yields the same bytes and advances `rng` identically by
// construction.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/dataset.h"
#include "model/event_store.h"
#include "model/views.h"
#include "util/rng.h"

namespace mobipriv::mech {

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Stable identifier used in benchmark tables ("speed_smoothing",
  /// "geo_ind[eps=0.01]", ...).
  [[nodiscard]] virtual std::string Name() const = 0;

  /// Produces the sanitized dataset as an EventStore (contiguous
  /// lat/lng/time columns + trace table), the layout the scenario engine
  /// memoizes, fans out to evaluators zero-copy, and spills to `.mpc`.
  /// Implementations must not mutate the input and must leave `rng` in a
  /// valid (advanced) state.
  [[nodiscard]] virtual model::EventStore ApplyToStore(
      const model::DatasetView& input, util::Rng& rng) const = 0;

  /// AoS-out adapter: ApplyToStore(input).ToDataset().
  [[nodiscard]] model::Dataset ApplyView(const model::DatasetView& input,
                                         util::Rng& rng) const;

  /// AoS-in, AoS-out adapter: ApplyView(DatasetView::Of(input)).
  [[nodiscard]] model::Dataset Apply(const model::Dataset& input,
                                     util::Rng& rng) const;
};

/// Helper base for mechanisms that transform each trace independently.
class PerTraceMechanism : public Mechanism {
 public:
  /// Two-pass ParallelFor (transform each trace into a per-block column
  /// buffer recording output sizes, prefix-sum the offsets, bulk-copy
  /// every block into its pre-sized slot). Zero per-trace vector<Event>
  /// allocations, and names carried through without re-interning.
  [[nodiscard]] model::EventStore ApplyToStore(const model::DatasetView& input,
                                               util::Rng& rng) const final;

  /// One trace of the batch determinism scheme, exposed for out-of-core
  /// executors: transforms `trace` with the stream Rng that ApplyToStore
  /// would use for dataset-order index `index` under master draw `master`
  /// (DeriveStreamSeed(master, user, index)), appending the output fixes
  /// to `out`. A shard-streamed engine that maps one shard at a time and
  /// feeds each trace its ORIGINAL dataset index therefore reproduces the
  /// whole-view ApplyToStore output bit for bit, without the input ever
  /// being resident at once.
  void ApplyToIndexedTrace(const model::TraceView& trace, std::uint64_t master,
                           std::uint64_t index, model::TraceBuffer& out) const {
    util::Rng trace_rng(util::DeriveStreamSeed(
        master, static_cast<std::uint64_t>(trace.user()), index));
    ApplyToTraceColumns(trace, out, trace_rng);
  }

 protected:
  /// Per-trace kernel: transforms `trace` and APPENDS the output fixes to
  /// `out` (which may already hold earlier traces' output — kernels must
  /// only append, never clear). Appending nothing suppresses the trace.
  virtual void ApplyToTraceColumns(const model::TraceView& trace,
                                   model::TraceBuffer& out,
                                   util::Rng& rng) const = 0;
};

}  // namespace mobipriv::mech
