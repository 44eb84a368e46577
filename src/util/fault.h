// Fault injection: named failure points threaded through the persistence
// and engine layers, so the failure model is testable instead of implied.
//
// Every risky operation the system wants to be honest about (file opens,
// writes, renames, cache loads, mechanism node execution) evaluates a
// *named injection point* before proceeding:
//
//   if (MOBIPRIV_FAULT_POINT(fault::points::kColumnarWriteOpen)) {
//     throw IoError("injected fault ...");
//   }
//
// Points are inert by default: the macro compiles to one relaxed atomic
// load and a never-taken branch (nothing is looked up, no lock is
// touched), so shipping the points in release builds is free — the
// bench-regression gate in CI pins that. A point becomes active when a
// test (or operator) arms it:
//
//   * programmatically — fault::Arm("columnar.write.short", config) /
//     fault::Disarm / fault::DisarmAll (tests);
//   * by environment — MOBIPRIV_FAULTS="point=spec;point=spec" parsed at
//     process start (CLI smoke tests, chaos runs). Spec grammar:
//       once        trip exactly once, then pass
//       times:N     trip the first N evaluations
//       p:P[@SEED]  trip each evaluation with probability P (seeded,
//                   deterministic draw sequence; default seed 1)
//       short:N     short I/O: the operation transfers at most N bytes,
//                   then fails (torn-write / truncated-read simulation)
//       delay:MS    sleep MS milliseconds, then pass (watchdog testing)
//       kill:SIG@N  raise signal number SIG on the Nth matching
//                   evaluation (N optional, default 1) — the crash lever
//                   of the worker-supervision test matrix
//     Any spec may append `,key:K` to set the key filter from the
//     environment (e.g. "worker.apply=kill:9@1,key:gaussian#0"). Commas
//     inside "[...]" are part of K, so any mechanism name is a key. A
//     malformed value makes the process print one `error:` line and exit
//     with status 2 before main runs.
//
// A Config may carry a `key_filter`: the point then only trips for
// evaluations whose key matches (e.g. fail exactly the "gaussian[...]"
// mechanism node of an engine grid, deterministically at any thread
// count). A filter ending in '*' matches any key with that prefix
// ("gaussian#*" trips every retry attempt of one worker request).
//
// The canonical list of points lives below in `fault::points` — one named
// constant per injection site. docs/ROBUSTNESS.md documents each point in
// a table that scripts/check_format_docs.sh lints against this header, so
// the table cannot rot.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>

namespace mobipriv::util::fault {

/// What an armed point does when an evaluation trips it.
enum class Mode {
  kFailTimes,        ///< fail the first `times` evaluations, then pass
  kFailProbability,  ///< fail with probability `probability` (seeded draw)
  kShortIo,          ///< cap the operation at `bytes` bytes, then fail
  kDelay,            ///< sleep `delay_ms`, then pass (never fails)
  kKill,             ///< raise(`kill_signal`) on matching evaluation #`times`
};

struct Config {
  Mode mode = Mode::kFailTimes;
  /// kFailTimes / kShortIo: trip budget. kKill: the 1-based ordinal of
  /// the matching evaluation that raises the signal (evaluations before
  /// and after it pass untouched).
  std::uint64_t times = 1;
  double probability = 0.0;    ///< kFailProbability
  std::uint64_t seed = 1;      ///< kFailProbability draw stream
  std::size_t bytes = 0;       ///< kShortIo: max bytes transferred
  std::uint64_t delay_ms = 0;  ///< kDelay
  int kill_signal = 9;         ///< kKill: signal number to raise (SIGKILL)
  /// When non-empty, only evaluations whose key matches this trip (other
  /// keys pass untouched). Keys are site-defined: the engine passes the
  /// canonical mechanism/evaluator name, shard opens pass the file name,
  /// worker-side points pass "<prefix>#<attempt>". A filter ending in
  /// '*' matches any key starting with the part before the '*'.
  std::string key_filter;
};

/// What the evaluating site must do. `io_cap` is the byte budget for the
/// operation (SIZE_MAX = unlimited); `fail` means the operation must
/// raise its domain error (after honoring `io_cap`, which is how a short
/// write tears a file realistically: prefix lands, then the error).
struct Decision {
  bool fail = false;
  std::size_t io_cap = std::numeric_limits<std::size_t>::max();
};

namespace detail {
// Number of currently armed points. The ONLY thing the disabled fast
// path reads.
extern std::atomic<int> g_armed_points;
}  // namespace detail

/// True when any point is armed. One relaxed load — the entire cost of
/// fault injection in a normal run.
[[nodiscard]] inline bool Enabled() noexcept {
  return detail::g_armed_points.load(std::memory_order_relaxed) != 0;
}

/// Arms `point` with `config` (replacing any previous arming).
void Arm(std::string_view point, const Config& config);
/// Disarms `point` (no-op when not armed).
void Disarm(std::string_view point);
/// Disarms everything (test teardown).
void DisarmAll();
/// Parses a MOBIPRIV_FAULTS-style string ("point=spec;point=spec", see
/// the header comment for the spec grammar) and arms every entry.
/// Returns the number of points armed; throws std::invalid_argument on a
/// malformed spec. Called automatically at process start with the
/// MOBIPRIV_FAULTS environment variable.
std::size_t ArmFromSpec(std::string_view spec);

/// Evaluates one injection point. Cheap no-op when nothing is armed;
/// sites should gate on Enabled() first (the macros below do).
[[nodiscard]] Decision Evaluate(std::string_view point,
                                std::string_view key = {}) noexcept;

/// Times `point` has tripped (fired a failure / short-io / delay) since
/// arming. 0 when not armed.
[[nodiscard]] std::uint64_t TripCount(std::string_view point) noexcept;

namespace points {

// Columnar `.mpc` persistence (model/columnar_file.cpp, via the atomic
// commit helper in model/atomic_file.cpp).
inline constexpr std::string_view kColumnarWriteOpen = "columnar.write.open";
inline constexpr std::string_view kColumnarWriteShort = "columnar.write.short";
inline constexpr std::string_view kColumnarWriteCommit = "columnar.write.commit";
inline constexpr std::string_view kColumnarReadOpen = "columnar.read.open";
inline constexpr std::string_view kColumnarReadShort = "columnar.read.short";
inline constexpr std::string_view kColumnarMapOpen = "columnar.map.open";

// Shard directory persistence (model/sharded_dataset.cpp).
inline constexpr std::string_view kManifestWriteOpen = "manifest.write.open";
inline constexpr std::string_view kManifestWriteShort = "manifest.write.short";
inline constexpr std::string_view kManifestWriteCommit = "manifest.write.commit";
inline constexpr std::string_view kManifestReadOpen = "manifest.read.open";
inline constexpr std::string_view kShardOpenRead = "shard.open.read";

// Engine mechanism-output cache (core/engine.cpp).
inline constexpr std::string_view kCacheReadLoad = "cache.read.load";
inline constexpr std::string_view kCacheWriteSpill = "cache.write.spill";

// CSV ingestion (model/io.cpp).
inline constexpr std::string_view kCsvReadOpen = "csv.read.open";
inline constexpr std::string_view kCsvReadShort = "csv.read.short";

// Scenario engine node execution (core/engine.cpp). Keyed by the node's
// canonical mechanism / evaluator name.
inline constexpr std::string_view kEngineMechanismRun = "engine.mechanism.run";
inline constexpr std::string_view kEngineEvaluatorRun = "engine.evaluator.run";

// Multi-process shard execution (core/shard_exec.cpp supervisor and the
// mobipriv_worker binary). The worker-side points are evaluated inside
// the worker PROCESS — arm them via MOBIPRIV_FAULTS, which the
// supervisor's environment passes through to every worker it spawns.
// Keys are "<stage prefix name>#<attempt>" (worker side, one evaluation
// per owned shard / per result write) and the stage prefix name
// (supervisor-side validation).
inline constexpr std::string_view kWorkerApply = "worker.apply";
inline constexpr std::string_view kWorkerResultWrite = "worker.result.write";
inline constexpr std::string_view kSupervisorResultValidate =
    "supervisor.result.validate";

}  // namespace points

/// Every registered injection point (the constants above). The
/// fault-matrix test drives each of these; the docs lint compares the
/// list against the table in docs/ROBUSTNESS.md.
[[nodiscard]] std::span<const std::string_view> AllPoints() noexcept;

}  // namespace mobipriv::util::fault

/// Evaluates `point` and yields true when the site must fail. Zero-cost
/// when nothing is armed (one relaxed load, branch not taken).
#define MOBIPRIV_FAULT_POINT(point)             \
  (::mobipriv::util::fault::Enabled() &&        \
   ::mobipriv::util::fault::Evaluate(point).fail)

/// Keyed form: the point only trips when the armed config's key_filter
/// matches `key` (or is empty).
#define MOBIPRIV_FAULT_POINT_KEYED(point, key)  \
  (::mobipriv::util::fault::Enabled() &&        \
   ::mobipriv::util::fault::Evaluate(point, key).fail)
