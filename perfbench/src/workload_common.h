// Helpers shared by the workload implementations.
#pragma once

#include <cstdint>
#include <string>

#include "core/engine.h"
#include "measure.h"
#include "trace.h"
#include "synth/streaming_world.h"

namespace perfbench {

/// Layer names used for spans and self-time metrics (the library's
/// modules, see README.md).
namespace layer {
inline constexpr const char* kBench = "bench";
inline constexpr const char* kModel = "model";
inline constexpr const char* kMechanisms = "mechanisms";
inline constexpr const char* kEngine = "core.engine";
inline constexpr const char* kCache = "core.output_cache";
inline constexpr const char* kShardExec = "core.shard_exec";
inline constexpr const char* kEvaluators = "evaluators";
}  // namespace layer

/// Threads of every in-process run (ScenarioSpec::threads, and
/// util::ScopedParallelism around direct mechanism calls); worker_grid's
/// supervisor uses it too. One thread: on a shared virtual machine the
/// host takes time from the guest's vCPUs in bursts, and a run whose
/// threads wait for each other is slowed by whichever vCPU lost the most,
/// so its wall time follows the host's load rather than the program. At 4
/// threads, repeated invocations of publish_paper on one seed ranged
/// over 37% of their median; at 1 thread, over 8-19%.
inline constexpr std::size_t kThreads = 1;

/// Generates a 1-day world of `agents` agents from `seed` into shard
/// directory `dir` (8 shards) with synth::GenerateShardedWorld, replacing
/// any previous contents. Returns the generation statistics.
mobipriv::synth::StreamingWorldStats GenerateWorld(std::size_t agents,
                                                   std::uint64_t seed,
                                                   const std::string& dir);

/// Seed of world `k` of a workload that builds several: `seed` itself for
/// the first, a stream derived from it for the others.
[[nodiscard]] std::uint64_t WorldSeed(std::uint64_t seed, std::size_t k);

/// EngineStats as per-layer counters (engine.*, cache.*, workers.*),
/// added to the values already in `counters` so multi-pass workloads sum.
void AddEngineCounters(const mobipriv::core::EngineStats& stats,
                       Metrics& counters);

// Span names. A span's total time per run is reported as a per-layer
// metric (see AddSpanTotals).

/// Span of a per-trace kernel: "kernel.<spec text, sanitized>".
[[nodiscard]] std::string KernelSpan(const std::string& spec_text);

/// Span of a whole-view mechanism stage: "speed", "mixzone", or
/// KernelSpan for the other stages.
[[nodiscard]] std::string StageSpan(const std::string& spec_text);

/// Span of an evaluator call: "<prefix>.<base name>" ("eval" for
/// Evaluator::Evaluate, "fold" for TraceFold calls).
[[nodiscard]] std::string EvaluatorSpan(const std::string& prefix,
                                        const std::string& spec_text);

/// Adds the total time of run `run`'s spans per span name, in ms, under
/// the metric "<name>.ms" for kernel.*, eval.*, fold.* and undotted names
/// ("speed.ms", "kernel.cloaking.ms") and "<name>_ms" for the other
/// dotted names ("model.bind_ms", "cache.store_ms").
void AddSpanTotals(const Tracer& tracer, int run, Metrics& layer);

/// Deletes and re-creates `dir`.
void ResetDirectory(const std::string& dir);

}  // namespace perfbench
