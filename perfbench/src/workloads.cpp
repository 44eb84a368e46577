#include "workloads.h"

#include <filesystem>
#include <stdexcept>

#include "util/rng.h"
#include "workload_common.h"

namespace perfbench {

std::unique_ptr<Workload> MakePublishPaper(const WorkloadOptions& options);
std::unique_ptr<Workload> MakeWorkerGrid(const WorkloadOptions& options);
std::unique_ptr<Workload> MakeSweepCached(const WorkloadOptions& options);

void Workload::CheckOutput(std::size_t index, const std::string& what,
                           const std::string& output,
                           RunOutcome& outcome) const {
  if (index >= reference_.size()) {
    outcome.failures.push_back(what + ": no reference computed");
  } else if (Digest(output) != Digest(reference_[index])) {
    outcome.failures.push_back(what + ": output digest differs from the "
                                      "reference");
  }
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadOptions& options) {
  if (name == "publish_paper") return MakePublishPaper(options);
  if (name == "worker_grid") return MakeWorkerGrid(options);
  if (name == "sweep_cached") return MakeSweepCached(options);
  throw std::invalid_argument("unknown workload: " + name);
}

mobipriv::synth::StreamingWorldStats GenerateWorld(std::size_t agents,
                                                   std::uint64_t seed,
                                                   const std::string& dir) {
  std::filesystem::remove_all(dir);
  mobipriv::synth::StreamingWorldConfig config;
  config.population.agents = agents;
  config.population.days = 1;
  config.population.seed = seed;
  config.shard_count = 8;
  return mobipriv::synth::GenerateShardedWorld(config, dir);
}

std::uint64_t WorldSeed(std::uint64_t seed, std::size_t k) {
  return k == 0 ? seed : mobipriv::util::DeriveStreamSeed(seed, k, 0);
}

void AddEngineCounters(const mobipriv::core::EngineStats& stats,
                       Metrics& counters) {
  const auto add = [&](const char* name, double value) {
    counters[name] += value;
  };
  add("engine.run_ms", stats.run_ms);
  add("engine.mechanism_nodes", static_cast<double>(stats.mechanism_nodes));
  add("engine.stage_reuses", static_cast<double>(stats.stage_reuses));
  add("engine.streamed_shards", static_cast<double>(stats.streamed_shards));
  add("engine.failed_nodes", static_cast<double>(stats.failed_nodes));
  add("engine.skipped_nodes", static_cast<double>(stats.skipped_nodes));
  add("cache.hits", static_cast<double>(stats.cache_hits));
  add("cache.misses", static_cast<double>(stats.cache_misses));
  add("cache.evictions", static_cast<double>(stats.cache_evictions));
  add("cache.read_retries", static_cast<double>(stats.cache_read_retries));
  add("workers.spawned", static_cast<double>(stats.workers_spawned));
  add("workers.restarts", static_cast<double>(stats.worker_restarts));
  add("workers.failures", static_cast<double>(stats.worker_failures));
}

namespace {

/// "geo_ind[eps=0.01]" -> "geo_ind_eps0.01": metric names allow only
/// letters, digits, '_', '.' and '-'.
std::string Sanitize(const std::string& spec_text) {
  std::string name;
  for (const char c : spec_text) {
    if (c == '[' || c == ',') {
      name += '_';
    } else if (c != ']' && c != '=') {
      name += c;
    }
  }
  return name;
}

}  // namespace

std::string KernelSpan(const std::string& spec_text) {
  return "kernel." + Sanitize(spec_text);
}

std::string StageSpan(const std::string& spec_text) {
  const std::string base = spec_text.substr(0, spec_text.find('['));
  if (base == "speed_smoothing") return "speed";
  if (base == "mixzone") return "mixzone";
  return KernelSpan(spec_text);
}

std::string EvaluatorSpan(const std::string& prefix,
                          const std::string& spec_text) {
  return prefix + "." + spec_text.substr(0, spec_text.find('['));
}

void AddSpanTotals(const Tracer& tracer, int run, Metrics& layer) {
  Metrics totals;
  for (const Span& span : tracer.spans()) {
    if (span.run != run || span.layer == layer::kBench) continue;
    const std::string& name = span.name;
    const bool per_item = name.find('.') == std::string::npos ||
                          name.rfind("kernel.", 0) == 0 ||
                          name.rfind("eval.", 0) == 0 ||
                          name.rfind("fold.", 0) == 0;
    totals[name + (per_item ? ".ms" : "_ms")] += span.DurationMs();
  }
  for (const auto& [metric, ms] : totals) layer[metric] = ms;
}

void ResetDirectory(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

}  // namespace perfbench
