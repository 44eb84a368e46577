#include "util/resource.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace mobipriv::util {
namespace {

/// VmHWM of this process in bytes; 0 when /proc/self/status is missing or
/// has no VmHWM line.
std::uint64_t ReadVmHwmBytes() noexcept {
#if defined(__linux__)
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  std::uint64_t bytes = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      bytes = std::strtoull(line + 6, nullptr, 10) * 1024u;  // reported in kB
      break;
    }
  }
  std::fclose(status);
  return bytes;
#else
  return 0;
#endif
}

}  // namespace

std::uint64_t PeakRssBytes() noexcept {
  if (const std::uint64_t hwm = ReadVmHwmBytes(); hwm > 0) return hwm;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  // Linux (and the BSDs) report kibibytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
#else
  return 0;
#endif
}

bool ResetPeakRss() noexcept {
#if defined(__linux__)
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::FILE* clear_refs = std::fopen("/proc/self/clear_refs", "w");
  if (clear_refs == nullptr) return false;
  const bool written = std::fputs("5", clear_refs) >= 0;
  return std::fclose(clear_refs) == 0 && written;
#else
  return false;
#endif
}

}  // namespace mobipriv::util
