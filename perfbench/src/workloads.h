// The benchmark's workloads. Each one builds its inputs from a seed with
// the library's own generators, computes a reference output with an
// independent configuration, runs the user-facing operation it is named
// for (tracing off) and checks every output against the reference and
// against a guard proving the intended execution path ran. A traced replay
// re-runs the same work through each layer's public functions inside
// spans and must reproduce the untraced output exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.h"
#include "trace.h"

namespace perfbench {

/// Outcome of one timed run (untraced) or one traced replay.
struct RunOutcome {
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  double cpu_s = 0.0;
  /// Input events x (mechanism row, seed) pairs run.
  double events = 0.0;
  /// Why the run failed (digest mismatch, violated path guard, non-ok
  /// report row); empty when it passed every gate.
  std::vector<std::string> failures;
  /// Public program counters of the run (EngineStats, MixZoneReport).
  Metrics counters;
  /// What the run produced: the published `.mpc` bytes, or the
  /// full-precision report rows (RowsText) of a grid.
  std::string output;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

struct WorkloadOptions {
  /// Private working directory (created and owned by the workload).
  std::string dir;
  /// The `mobipriv_worker` executable for worker_grid.
  std::string worker_binary;
  /// World size override (0 = the workload's documented size). Only the
  /// benchmark's self-test shrinks worlds.
  std::size_t agents = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from `seed` into the working directory: one more
  /// world per call (see SelectInput). Returns the seconds spent
  /// generating the world (synth::GenerateShardedWorld).
  virtual double Setup(std::uint64_t seed) = 0;

  /// Computes the reference outputs with the independent configuration:
  /// threads=1, the whole-view DAG, no cache, no worker processes.
  virtual void ComputeReference() = 0;

  /// Selects the world the following runs (Run or Replay) read: world
  /// `index` modulo the number built. A run's time and memory depend on
  /// the city a seed draws (by 20% and more between worlds of one size),
  /// so runs rotate over the worlds and an invocation describes several
  /// cities rather than one.
  void SelectInput(std::size_t index) noexcept {
    if (worlds_ > 0) current_ = index % worlds_;
  }

  /// Untimed clean-up before each run (Run or Replay): removes the
  /// previous run's outputs.
  virtual void Prepare() {}

  /// One timed run with tracing off, checked against the reference and the
  /// workload's path guard.
  [[nodiscard]] virtual RunOutcome Run() = 0;

  /// One traced replay of Run()'s work through the layers' public
  /// functions. Adds the per-layer metrics it measures to `layer`.
  [[nodiscard]] virtual RunOutcome Replay(Tracer& tracer, Metrics& layer) = 0;

  /// Probes measured after the replay, outside its spans (they would
  /// otherwise inflate the replay's wall time): mixzone.detect_ms.
  /// `untraced` is the untraced run just made.
  virtual void Probe(const RunOutcome& untraced, Tracer& tracer,
                     Metrics& layer) {
    (void)untraced;
    (void)tracer;
    (void)layer;
  }

  /// Whether runs spawn worker processes (their memory counts into
  /// peak_rss_mb).
  [[nodiscard]] virtual bool SpawnsWorkers() const { return false; }

  /// Reference outputs, in the order Run() checks them (per input, for
  /// workloads with several). Exposed so the self-test can corrupt one
  /// byte.
  [[nodiscard]] std::vector<std::string>& reference() noexcept {
    return reference_;
  }

 protected:
  explicit Workload(std::string dir) : dir_(std::move(dir)) {}

  /// Registers one more world (Setup) and returns its index. World 0 comes
  /// from the seed itself, world k > 0 from a seed derived from it
  /// (WorldSeed).
  std::size_t AddWorld() noexcept { return worlds_++; }
  [[nodiscard]] std::size_t worlds() const noexcept { return worlds_; }
  /// The world runs read.
  [[nodiscard]] std::size_t current() const noexcept { return current_; }

  /// Records a failure in `outcome` unless `output` equals reference
  /// `index` byte for byte (compared by digest).
  void CheckOutput(std::size_t index, const std::string& what,
                   const std::string& output, RunOutcome& outcome) const;

  /// The working directory: inputs and run outputs.
  std::string dir_;
  std::vector<std::string> reference_;

 private:
  std::size_t worlds_ = 0;
  std::size_t current_ = 0;
};

/// Creates workload `name`; throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<Workload> MakeWorkload(
    const std::string& name, const WorkloadOptions& options);

}  // namespace perfbench
