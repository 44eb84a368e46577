// The benchmark's own checks:
//   * a timed run whose reference differs by one byte is reported failed;
//   * peak memory carries nothing over from one run to the next (a 400 MB
//     run followed by a small run reads under 50 MB on the second);
//   * span self time and coverage are computed as documented.
// Usage: perfbench_selftest [WORK_DIR]   (exit code 0 = all checks pass)
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "measure.h"
#include "trace.h"
#include "workloads.h"

namespace {

int failures = 0;

void Check(bool condition, const std::string& what) {
  std::cout << (condition ? "PASS " : "FAIL ") << what << "\n";
  if (!condition) ++failures;
}

void CheckRssReset() {
  perfbench::PeakRssMeter meter;
  meter.Start(false);
  {
    std::vector<char> big(400'000'000);
    std::memset(big.data(), 1, big.size());
  }
  const double first = meter.StopMb();
  meter.Start(false);
  {
    std::vector<char> small(1'000'000);
    std::memset(small.data(), 1, small.size());
  }
  const double second = meter.StopMb();
  Check(first >= 400.0, "400 MB run reads >= 400 MB (read " +
                            std::to_string(first) + ")");
  Check(second < 50.0, "small run after it reads < 50 MB (read " +
                           std::to_string(second) + ")");
}

void CheckReferenceGate(const std::string& name, const std::string& dir) {
  perfbench::WorkloadOptions options;
  options.dir = dir + "/" + name;
  options.agents = 300;
  options.worker_binary = PERFBENCH_WORKER_BINARY;
  std::filesystem::create_directories(options.dir);
  const auto workload = perfbench::MakeWorkload(name, options);
  (void)workload->Setup(7);
  workload->ComputeReference();
  workload->Prepare();
  const perfbench::RunOutcome clean = workload->Run();
  Check(clean.ok(), name + ": run matching its reference passes");

  std::string& reference = workload->reference().front();
  reference[reference.size() / 2] ^= 0x01;
  workload->Prepare();
  const perfbench::RunOutcome corrupted = workload->Run();
  Check(!corrupted.ok() &&
            corrupted.failures.front().find("digest") != std::string::npos,
        name + ": reference differing by one byte is reported as a failure");
}

void CheckSpanArithmetic() {
  perfbench::Tracer tracer;
  const auto sleep_ms = [](int ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  const int root = tracer.Begin("replay", "bench");
  {
    const perfbench::ScopedSpan outer(&tracer, "engine.pass", "core.engine");
    sleep_ms(20);
    const perfbench::ScopedSpan inner(&tracer, "cache.load",
                                      "core.output_cache");
    sleep_ms(30);
  }
  sleep_ms(10);
  tracer.End(root);
  const auto self = tracer.SelfMsByLayer(root);
  const double engine = self.at("core.engine");
  const double cache = self.at("core.output_cache");
  Check(engine >= 19.0 && engine < 30.0,
        "parent self time excludes its child (" + std::to_string(engine) +
            " ms)");
  Check(cache >= 29.0, "child self time is its span (" +
                           std::to_string(cache) + " ms)");
  const double coverage = tracer.Coverage(root);
  Check(coverage > 0.7 && coverage < 0.9,
        "coverage counts direct children only (" + std::to_string(coverage) +
            ")");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = (argc > 1 ? std::string(argv[1]) : ".bench_work") +
                          "/selftest-" + std::to_string(getpid());
  try {
    CheckRssReset();
    CheckSpanArithmetic();
    CheckReferenceGate("publish_paper", dir);
    CheckReferenceGate("worker_grid", dir);
  } catch (const std::exception& e) {
    Check(false, std::string("threw: ") + e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::cout << (failures == 0 ? "all checks passed" : "checks failed") << "\n";
  return failures == 0 ? 0 : 1;
}
