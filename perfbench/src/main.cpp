// The repository benchmark: one workload per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--out-dir DIR] [--worker-binary PATH]
//
// Builds the workload's inputs from the seed (several times: setup_s is the
// median), computes its reference output, then measures for S seconds.
// --trace 0 times untraced runs and reports the end-to-end metrics;
// --trace 1 alternates untraced runs with traced replays and reports the
// per-layer metrics, writing the spans as Chrome trace-event JSON to
// DIR/<workload>-seed<N>.trace.json. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Normally started
// through run.py, which builds this program first.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "measure.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workload_common.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
/// Measured runs per invocation at least, whatever --seconds says.
constexpr std::size_t kMinMeasured = 3;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"events_per_s", "events/s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"model.bind_ms", "ms"},
    {"model.csv_mb_per_s", "MB/s"},
    {"model.write_ms", "ms"},
    {"speed.ms", "ms"},
    {"speed.events_out", "count"},
    {"mixzone.ms", "ms"},
    {"mixzone.detect_ms", "ms"},
    {"mixzone.encounters", "count"},
    {"mixzone.zones", "count"},
    {"mixzone.occurrences", "count"},
    {"mixzone.suppressed_events", "count"},
    {"mixzone.pairs_per_event", "ratio"},
    {"kernel.geo_ind_eps0.1.ms", "ms"},
    {"kernel.cloaking.ms", "ms"},
    {"kernel.gaussian.ms", "ms"},
    {"kernel.downsampling_dt120.ms", "ms"},
    {"engine.run_ms", "ms"},
    {"engine.mechanism_nodes", "count"},
    {"engine.stage_reuses", "count"},
    {"engine.streamed_shards", "count"},
    {"engine.failed_nodes", "count"},
    {"engine.skipped_nodes", "count"},
    {"run.cpu_s", "s"},
    {"run.parallelism", "ratio"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.evictions", "count"},
    {"cache.read_retries", "count"},
    {"cache.store_ms", "ms"},
    {"cache.load_ms", "ms"},
    {"cache.bytes", "bytes"},
    {"cache.cold_pass_s", "s"},
    {"cache.warm_pass_s", "s"},
    {"workers.spawned", "count"},
    {"workers.restarts", "count"},
    {"workers.failures", "count"},
    {"workers.stage_ms", "ms"},
    {"workers.handoff_bytes", "bytes"},
    {"workers.merge_fold_ms", "ms"},
    {"eval.coverage.ms", "ms"},
    {"eval.trajectory_stats.ms", "ms"},
    {"eval.certification.ms", "ms"},
    {"eval.poi_attack.ms", "ms"},
    {"fold.trajectory_stats.ms", "ms"},
    {"fold.range_queries.ms", "ms"},
    {"synth.generate_s", "s"},
    {"self.model.ms", "ms"},
    {"self.mechanisms.ms", "ms"},
    {"self.core.engine.ms", "ms"},
    {"self.core.output_cache.ms", "ms"},
    {"self.core.shard_exec.ms", "ms"},
    {"self.evaluators.ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_s", "s"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".bench_work";
  std::string out_dir = ".bench_out";
  std::string worker_binary = PERFBENCH_WORKER_BINARY;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0.0;
      } else if (key == "--trace") {
        args.trace = value == "1";
        have_trace = value == "0" || value == "1";
      } else if (key == "--work-dir") {
        args.work_dir = value;
      } else if (key == "--out-dir") {
        args.out_dir = value;
      } else if (key == "--worker-binary") {
        args.worker_binary = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

/// Removes the invocation's working directory on every exit path.
struct WorkDir {
  std::string path;
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void Count(const std::string& what, const RunOutcome& outcome) {
    ++attempted;
    if (outcome.ok()) return;
    ++failed;
    for (const std::string& failure : outcome.failures) {
      std::cerr << "perfbench: " << what << " failed: " << failure << "\n";
    }
  }
};

/// One untraced run, timed around the call: wall and CPU clocks, peak
/// memory with its high-water mark reset first. The calling thread runs on
/// CPU `index` (see CpuPin), except when the run spawns worker processes,
/// which would inherit the pin.
RunOutcome TimedRun(Workload& workload, std::size_t index) {
  std::optional<CpuPin> pin;
  if (!workload.SpawnsWorkers()) pin.emplace(index);
  workload.Prepare();
  PeakRssMeter meter;
  meter.Start(workload.SpawnsWorkers());
  const double cpu_start = CpuSeconds();
  const double start = NowSeconds();
  RunOutcome outcome;
  try {
    outcome = workload.Run();
  } catch (const std::exception& e) {
    outcome.failures.push_back(std::string("threw: ") + e.what());
  }
  outcome.wall_s = NowSeconds() - start;
  outcome.cpu_s = CpuSeconds() - cpu_start;
  outcome.peak_rss_mb = meter.StopMb();
  return outcome;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Prints the human-readable table, then the result line.
template <std::size_t N>
void Report(const Args& args, const Tally& tally, const Metrics& values,
            const MetricSpec (&specs)[N]) {
  const double fail_ratio =
      static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  std::printf("# %s seed=%llu trace=%d runs=%zu\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              tally.attempted);
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted) +
          ", \"failed\": " + std::to_string(tally.failed) +
          ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(specs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::printf("%-28s %16.6f %s\n", specs[i].name, value, specs[i].unit);
    json += (i == 0 ? "\"" : ", \"") + std::string(specs[i].name) +
            "\": {\"value\": " + JsonNumber(value) + ", \"unit\": \"" +
            specs[i].unit + "\"}";
  }
  std::printf("%-28s %16.6f %s\n", "fail_ratio", fail_ratio, "ratio");
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--out-dir DIR] "
                 "[--worker-binary PATH]\n";
    return 2;
  }
  WorkDir work{args.work_dir + "/" + args.workload + "-" +
               std::to_string(getpid())};
  ResetDirectory(work.path);
  WorkloadOptions options;
  options.dir = work.path;
  options.worker_binary = args.worker_binary;
  const std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, options);

  // Start the library's thread pool now: its threads inherit the
  // affinity of the thread that creates them, which must not be a pinned
  // one (CpuPin below).
  (void)mobipriv::util::ThreadPool::Global();

  std::vector<double> setup_s;
  std::vector<double> generate_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const CpuPin pin(static_cast<std::size_t>(i));
    const double start = NowSeconds();
    generate_s.push_back(workload->Setup(args.seed));
    setup_s.push_back(NowSeconds() - start);
  }
  workload->ComputeReference();

  Tally tally;
  // The first run of a process is slower than later ones (cold page
  // cache, first-touch allocation, thread start): it is checked and
  // counted but not measured.
  std::size_t index = 0;  // CPU rotation (see CpuPin)
  tally.Count("warm-up run", TimedRun(*workload, index++));
  const double end = NowSeconds() + args.seconds;

  if (!args.trace) {
    std::vector<double> wall, rate, rss;
    while (wall.size() < kMinMeasured ||
           NowSeconds() + Median(wall) <= end) {
      workload->SelectInput(index);
      const RunOutcome outcome = TimedRun(*workload, index++);
      tally.Count("run", outcome);
      std::fprintf(stderr,
                   "perfbench: run %zu: wall %.4f s, cpu %.4f s, "
                   "peak %.1f MB\n",
                   wall.size() + 1, outcome.wall_s, outcome.cpu_s,
                   outcome.peak_rss_mb);
      wall.push_back(outcome.wall_s);
      rate.push_back(outcome.events / outcome.wall_s);
      rss.push_back(outcome.peak_rss_mb);
    }
    const Metrics values = {{"wall_s", Median(wall)},
                            {"events_per_s", Median(rate)},
                            {"peak_rss_mb", Median(rss)},
                            {"setup_s", Median(setup_s)}};
    Report(args, tally, values, kEndToEnd);
    return 0;
  }

  // Traced runs all read the first input, so their counts repeat exactly
  // from invocation to invocation whatever number of runs fits.
  workload->SelectInput(0);
  Tracer tracer;
  std::map<std::string, std::vector<double>> samples;
  for (int run = 0;; ++run) {
    const double start = NowSeconds();
    tracer.SetRun(run);
    const RunOutcome untraced = TimedRun(*workload, index);
    tally.Count("run", untraced);

    Metrics layer = untraced.counters;
    std::optional<CpuPin> pin;
    if (!workload->SpawnsWorkers()) pin.emplace(index);
    ++index;
    workload->Prepare();
    const int root = tracer.Begin("replay", layer::kBench);
    const double replay_start = NowSeconds();
    RunOutcome replay;
    try {
      replay = workload->Replay(tracer, layer);
    } catch (const std::exception& e) {
      replay.failures.push_back(std::string("threw: ") + e.what());
    }
    const double traced_wall_s = NowSeconds() - replay_start;
    tracer.End(root);
    if (replay.ok() && Digest(replay.output) != Digest(untraced.output)) {
      replay.failures.push_back("output differs from the untraced run");
    }
    tally.Count("traced replay", replay);
    workload->Probe(untraced, tracer, layer);
    pin.reset();

    layer["trace.coverage"] = tracer.Coverage(root);
    layer["trace.overhead_s"] = traced_wall_s - untraced.wall_s;
    for (const auto& [name, ms] : tracer.SelfMsByLayer(root)) {
      if (name != layer::kBench) layer["self." + name + ".ms"] = ms;
    }
    layer["run.cpu_s"] = untraced.cpu_s;
    layer["run.parallelism"] = untraced.cpu_s / untraced.wall_s;
    layer["synth.generate_s"] = Median(generate_s);
    for (const auto& [name, value] : layer) samples[name].push_back(value);
    if (NowSeconds() + (NowSeconds() - start) > end) break;
  }
  Metrics values;
  for (const auto& [name, series] : samples) values[name] = Median(series);
  std::filesystem::create_directories(args.out_dir);
  tracer.WriteChromeJson(args.out_dir + "/" + args.workload + "-seed" +
                         std::to_string(args.seed) + ".trace.json");
  Report(args, tally, values, kPerLayer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its start-up value. Left dynamic, it
  // rises after the first large free, so later runs of this process would
  // serve big buffers from fragmented arenas that a fresh process (what a
  // user runs) never sees; pinned, every run starts from the same
  // allocator behaviour and its peak memory does not drift.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
