// Measurement primitives of the benchmark: wall and CPU clocks, per-run
// peak resident memory (own process plus worker processes), medians, and
// the digests that gate every timed output against its reference.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"

namespace perfbench {

/// Named numbers a run reports (end-to-end or per-layer).
using Metrics = std::map<std::string, double>;

/// Seconds on the steady clock since an arbitrary origin.
[[nodiscard]] double NowSeconds();

/// CPU seconds (user + system) of this process plus every child it has
/// waited for — worker processes included once they have exited.
[[nodiscard]] double CpuSeconds();

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
[[nodiscard]] double Median(std::vector<double> values);

/// Peak resident memory of one run, without carry-over from earlier runs.
///
/// Start() returns freed heap to the kernel (malloc_trim), then resets the
/// kernel's high-water mark by writing "5" to /proc/self/clear_refs, so
/// VmHWM afterwards tracks this run only. With `track_children`, a sampler
/// thread polls the VmHWM of every child process (the engine's worker
/// processes) every 2 ms; StopMb() adds each child's largest sample to the
/// process's own peak. A fresh exec'd worker starts with its own
/// high-water mark, so nothing carries over between runs there either.
class PeakRssMeter {
 public:
  PeakRssMeter() = default;
  ~PeakRssMeter();
  PeakRssMeter(const PeakRssMeter&) = delete;
  PeakRssMeter& operator=(const PeakRssMeter&) = delete;

  void Start(bool track_children);
  /// Ends the run; own peak plus children's peaks, in MB (10^6 bytes).
  [[nodiscard]] double StopMb();

 private:
  void SampleChildren();

  std::thread sampler_;
  std::mutex mutex_;
  bool stop_ = false;                        // guarded by mutex_
  std::map<int, std::uint64_t> child_peak_;  // guarded by mutex_
};

/// Pins the calling thread to one of the CPUs it may run on, chosen by
/// `index` modulo their count, and restores the original mask on
/// destruction. A serial run's speed depends on which CPU the scheduler
/// leaves its thread on (on shared or virtualized hosts the CPUs differ by
/// 10% and more, and a thread tends to stay put for a whole process);
/// rotating the timed thread across every CPU makes a run's median cover
/// all of them instead of whichever one it happened to land on.
class CpuPin {
 public:
  explicit CpuPin(std::size_t index);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// VmHWM of process `pid` ("self" for this process) in bytes; 0 when
/// unreadable.
[[nodiscard]] std::uint64_t ReadVmHwmBytes(const std::string& pid);

/// Whole file as bytes. Throws std::runtime_error when unreadable.
[[nodiscard]] std::string ReadFileBytes(const std::string& path);

/// FNV-1a 64 of `bytes`.
[[nodiscard]] std::uint64_t Digest(const std::string& bytes);

/// Full-precision rendering of report rows (one tab-separated line per
/// row, values printed with 17 significant digits). The traced replays
/// rebuild their rows from layer calls and must render identically to the
/// untraced engine report — the proof that they measured the same work.
[[nodiscard]] std::string RowsText(
    const std::vector<mobipriv::core::ReportRow>& rows);

/// Size of every regular file under `dir`, in bytes.
[[nodiscard]] std::uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench
