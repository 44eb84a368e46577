// Fault-tolerant multi-process shard execution: the supervisor side of
// the engine's worker placement.
//
// The engine runs an eligible grid over a shard directory with one
// streamed executor (core/engine.cpp). Its stages have two placements:
// in process, the engine runs core::ApplyStageToShard itself; with
// workers, this layer runs that same routine in `mobipriv_worker`
// processes, so one bad allocation, stuck mechanism or OOM kill loses a
// retry, not the run. The supervisor partitions the shards into up to
// `workers` contiguous subsets (PartitionShards), one process each,
// speaking the pipe protocol of core/worker_protocol.h. Per (stage,
// subset) request a worker publishes one `.mpc` result per shard through
// the atomic write path, so a missing or torn result is just another
// retryable failure.
//
// Robustness model (all bounds deterministic, all error strings
// machine-independent so degraded reports stay byte-identical):
//   * liveness   — workers heartbeat on the pipe while applying; a
//                  silent worker past `heartbeat_timeout_ms` is killed;
//   * deadlines  — `request_timeout_ms` (wired from the engine's
//                  node_timeout_ms) bounds each request wall-clock,
//                  reusing the watchdog's error text on expiry;
//   * retry      — crash / nonzero exit / timeout / heartbeat loss /
//                  torn result -> kill, exponential backoff
//                  (backoff_base_ms * 2^attempt), respawn, retry, at
//                  most `max_attempts` attempts per (stage, subset);
//   * degrade    — retry exhaustion (or a worker-reported permanent
//                  failure, forwarded verbatim) fails ONLY that stage's
//                  rows; the rest of the grid completes normally.
//
// Determinism: ApplyStageToShard's output is partition-independent and
// `.mpc` round-trips doubles bitwise, so the merged Report is
// byte-identical to the in-process run at ANY worker count, retry
// history included.
//
// Fault points (util/fault.h): workers inherit the supervisor's
// environment, so MOBIPRIV_FAULTS specs arm inside every worker —
// `worker.apply=kill:9@1,key:gaussian#0` SIGKILLs exactly one worker
// mid-stage, deterministically. `supervisor.result.validate` tears the
// supervisor-side result check instead.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/scenario.h"

namespace mobipriv::core {

struct ShardExecOptions {
  /// Worker executable path. Required (the engine resolves it via
  /// DefaultWorkerBinary() or ScenarioSpec::worker_binary).
  std::string worker_binary;
  /// Desired worker process count (clamped to the shard count; >= 1).
  std::size_t workers = 1;
  /// Per-request wall-clock deadline, ms (0 = none). Expiry kills the
  /// worker and counts a retry attempt with the watchdog's error text.
  double request_timeout_ms = 0.0;
  /// Kill a busy worker whose last heartbeat is older than this, ms.
  double heartbeat_timeout_ms = 10000.0;
  /// Attempts per (stage, subset) before the stage degrades to failed.
  int max_attempts = 3;
  /// Backoff before retry k (1-based) is backoff_base_ms * 2^(k-1).
  double backoff_base_ms = 10.0;
};

/// Supervision counters, surfaced through EngineStats.
struct ShardExecStats {
  std::size_t workers_spawned = 0;  ///< processes forked (incl. respawns)
  std::size_t worker_restarts = 0;  ///< spawns beyond a subset's first
  std::size_t worker_failures = 0;  ///< (stage, subset) permanent failures
};

/// One mechanism stage to distribute: the spec to instantiate, the
/// prefix name that keys its RNG stream (and fault keys), the grid seed,
/// and the result-file stem (wp::StageShardPath(out_dir, stem, shard)).
struct ShardStageTask {
  std::string spec_text;
  std::string prefix_name;
  std::string stem;
  std::uint64_t seed = 0;
};

/// Per-stage result: ok when every subset published valid results for
/// every shard; otherwise the (deterministic) error of the
/// lowest-indexed failing subset.
struct ShardStageOutcome {
  bool ok = true;
  std::string error;
};

/// Path of the `mobipriv_worker` binary expected next to the current
/// executable; empty when it is absent, not executable, or the platform
/// has no /proc/self/exe-style self lookup. Empty => the engine falls
/// back to in-process execution.
[[nodiscard]] std::string DefaultWorkerBinary();

/// Creates and returns a fresh scratch directory for worker result
/// handoff (under the system temp dir, unique per process + call).
/// Throws model::IoError when it cannot be created.
[[nodiscard]] std::string MakeScratchDir();

/// Splits [0, shard_count) into min(workers, shard_count) contiguous
/// subsets with sizes differing by at most one (earlier subsets take the
/// remainder). Deterministic; never returns an empty subset.
[[nodiscard]] std::vector<std::vector<std::size_t>> PartitionShards(
    std::size_t shard_count, std::size_t workers);

/// Runs every task over every shard of `plan` across supervised worker
/// processes; result files land in `out_dir`. Returns one outcome per
/// task (same order). Never throws for worker-side problems — those
/// degrade into the outcomes; throws only for supervisor-side
/// programming errors (empty worker_binary, no shards). SIGPIPE is
/// ignored for the call's duration (saved and restored).
[[nodiscard]] std::vector<ShardStageOutcome> RunShardStagesMultiProcess(
    const ShardStreamPlan& plan, const std::vector<ShardStageTask>& tasks,
    const std::string& out_dir, const ShardExecOptions& options,
    ShardExecStats* stats);

}  // namespace mobipriv::core
