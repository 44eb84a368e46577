// Peak-RSS introspection: ResetPeakRss must start a fresh measurement
// window, so a bench row's peak_rss_mb reports that row's residency
// instead of the process-lifetime high-water mark.
#include <sys/mman.h>

#include <cstddef>
#include <cstring>

#include <gtest/gtest.h>

#include "util/resource.h"

namespace mobipriv {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

TEST(Resource, PeakRssIsPositive) {
  EXPECT_GT(util::PeakRssBytes(), 0u);
}

TEST(Resource, ResetForgetsAnEarlierPeak) {
  // Touch 256 MiB so the high-water mark provably covers it, then unmap.
  constexpr std::size_t kBytes = 256 * kMiB;
  void* block = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(block, MAP_FAILED);
  std::memset(block, 1, kBytes);
  ASSERT_EQ(munmap(block, kBytes), 0);
  EXPECT_GE(util::PeakRssBytes(), kBytes);

  if (!util::ResetPeakRss()) {
    GTEST_SKIP() << "peak-RSS reset unsupported on this host";
  }
  EXPECT_LT(util::PeakRssBytes(), 128 * kMiB);
}

}  // namespace
}  // namespace mobipriv
