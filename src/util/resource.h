// Process resource introspection for benchmarks and CLIs. Peak RSS is the
// out-of-core evidence: a streaming run over a multi-gigabyte world must
// report a peak far below the dataset size, and the throughput benches
// publish this number next to rows/sec so regressions in residency are as
// visible as regressions in speed.
#pragma once

#include <cstdint>

namespace mobipriv::util {

/// Peak resident set size of the current process in bytes: VmHWM from
/// /proc/self/status where available (resettable, see ResetPeakRss),
/// otherwise getrusage(RUSAGE_SELF)'s lifetime ru_maxrss. Returns 0 on
/// platforms with neither.
[[nodiscard]] std::uint64_t PeakRssBytes() noexcept;

/// Starts a new peak-RSS measurement window: returns freed heap to the
/// kernel (malloc_trim) and resets the kernel's high-water mark to the
/// current RSS (writes "5" to /proc/self/clear_refs), so PeakRssBytes()
/// afterwards reports the peak of what runs next, not of the whole
/// process lifetime. Returns false when the reset is unsupported (not
/// Linux, or /proc/self/clear_refs not writable); PeakRssBytes() is then
/// still the lifetime peak.
bool ResetPeakRss() noexcept;

}  // namespace mobipriv::util
