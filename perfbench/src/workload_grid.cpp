// worker_grid: a single-stage per-trace grid over a shard directory, run
// by the engine's out-of-core executor across supervised worker processes.
#include <algorithm>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "core/evaluator.h"
#include "core/scenario.h"
#include "core/shard_exec.h"
#include "core/worker_protocol.h"
#include "mechanisms/registry.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "model/sharded_dataset.h"
#include "util/spec.h"
#include "util/thread_pool.h"
#include "workload_common.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = mobipriv::core;
namespace geo = mobipriv::geo;
namespace mech = mobipriv::mech;
namespace model = mobipriv::model;
namespace util = mobipriv::util;

constexpr std::size_t kAgents = 2500;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kShards = 8;
constexpr std::uint64_t kSeed = 1;

const std::vector<std::string>& Mechanisms() {
  static const std::vector<std::string> specs = {
      "speed_smoothing", "geo_ind[eps=0.01]", "geo_ind[eps=0.1]",
      "cloaking",        "gaussian",          "downsampling"};
  return specs;
}

const std::vector<std::string>& Evaluators() {
  static const std::vector<std::string> specs = {"trajectory_stats",
                                                 "range_queries[n=32]"};
  return specs;
}

/// Full-dataset extents every fold slice carries.
struct Extents {
  geo::GeoBoundingBox original_bbox;
  std::vector<geo::GeoBoundingBox> published_bbox;
  util::Timestamp t_min = std::numeric_limits<util::Timestamp>::max();
  util::Timestamp t_max = std::numeric_limits<util::Timestamp>::min();

  void AddOriginal(const model::TraceView& trace) {
    original_bbox.Extend(trace.BoundingBox());
    if (!trace.empty()) {
      t_min = std::min(t_min, trace.time(0));
      t_max = std::max(t_max, trace.time(trace.size() - 1));
    }
  }
};

/// The grid's canonical names and evaluator instances, as the engine
/// compiles them, plus one fold per (mechanism, evaluator) cell.
class GridReplay {
 public:
  GridReplay() {
    for (const std::string& text : Mechanisms()) {
      mechanisms_.push_back(mech::CreateMechanism(text));
    }
    for (const std::string& text : Evaluators()) {
      evaluators_.push_back(core::CreateEvaluator(text));
    }
    for (std::size_t m = 0; m < mechanisms_.size(); ++m) {
      for (const auto& evaluator : evaluators_) {
        folds_.push_back(evaluator->MakeTraceFold(kSeed));
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return mechanisms_.size(); }
  [[nodiscard]] std::string Name(std::size_t m) const {
    return mechanisms_[m]->Name();
  }

  /// Feeds one shard's slice of mechanism `m` to its cells' folds.
  void Accumulate(Tracer* tracer, std::size_t m, core::ShardSlice slice) {
    for (std::size_t e = 0; e < evaluators_.size(); ++e) {
      const ScopedSpan span(tracer, EvaluatorSpan("fold", Evaluators()[e]),
                            layer::kEvaluators);
      folds_[m * evaluators_.size() + e]->AccumulateShard(slice);
    }
  }

  /// Finalizes every fold into report rows, in the engine's row order.
  [[nodiscard]] std::vector<core::ReportRow> Finalize(Tracer* tracer) {
    std::vector<core::ReportRow> rows;
    for (std::size_t m = 0; m < mechanisms_.size(); ++m) {
      for (std::size_t e = 0; e < evaluators_.size(); ++e) {
        std::vector<core::MetricValue> values;
        {
          const ScopedSpan span(tracer,
                                EvaluatorSpan("fold", Evaluators()[e]),
                                layer::kEvaluators);
          values = folds_[m * evaluators_.size() + e]->Finalize();
        }
        for (const core::MetricValue& value : values) {
          rows.push_back({Name(m), kSeed, evaluators_[e]->Name(),
                          value.metric, value.value, core::RowStatus::kOk,
                          {}});
        }
      }
    }
    return rows;
  }

 private:
  std::vector<std::unique_ptr<mech::Mechanism>> mechanisms_;
  std::vector<std::unique_ptr<core::Evaluator>> evaluators_;
  std::vector<std::unique_ptr<core::TraceFold>> folds_;
};

/// Shard `s`'s original traces, re-labelled into the global user space.
std::vector<model::TraceView> OriginalViews(
    const core::ShardStreamPlan& plan, std::size_t s,
    const model::MappedColumnar& mapped) {
  const std::vector<model::UserId>& l2g = plan.local_to_global[s];
  std::vector<model::TraceView> views(mapped.TraceCount());
  for (std::size_t i = 0; i < views.size(); ++i) {
    views[i] = mapped.View(i).WithUser(l2g[mapped.TraceUser(i)]);
  }
  return views;
}

model::MappedColumnar Map(Tracer* tracer, const std::string& path) {
  const ScopedSpan span(tracer, "model.map", layer::kModel);
  return model::MapColumnar(path);
}

core::ShardSlice MakeSlice(const core::ShardStreamPlan& plan, std::size_t s,
                           const std::vector<model::TraceView>& original,
                           const std::vector<model::TraceView>& published,
                           const Extents& extents, std::size_t m) {
  core::ShardSlice slice;
  slice.original = original;
  slice.canonical_index = plan.origin[s];
  slice.published = published;
  slice.user_count = plan.global_names.size();
  slice.original_bbox = extents.original_bbox;
  slice.published_bbox = extents.published_bbox[m];
  slice.original_t_min = extents.t_min;
  slice.original_t_max = extents.t_max;
  return slice;
}

class WorkerGrid final : public Workload {
 public:
  explicit WorkerGrid(const WorkloadOptions& options)
      : Workload(options.dir),
        worker_binary_(options.worker_binary),
        agents_(options.agents ? options.agents : kAgents) {}

  double Setup(std::uint64_t seed) override {
    const std::size_t k = AddWorld();
    const double start = NowSeconds();
    const auto stats = GenerateWorld(agents_, WorldSeed(seed, k), WorldDir(k));
    input_events_.push_back(static_cast<double>(stats.events));
    return NowSeconds() - start;
  }

  void ComputeReference() override {
    // Independent configuration: the whole-view DAG over a materialized
    // copy of the world, one thread, no cache, no workers.
    reference_.clear();
    for (std::size_t k = 0; k < worlds(); ++k) {
      SelectInput(k);
      model::Dataset dataset;
      {
        const core::BoundSource source = core::BoundSource::Bind(
            core::DatasetSourceSpec::ShardDir(WorldDir()));
        dataset = source.view().Materialize();
      }
      core::ScenarioSpec spec = Spec();
      spec.source = core::DatasetSourceSpec::Borrowed(dataset);
      spec.threads = 1;
      spec.workers = 0;
      reference_.push_back(core::RunScenario(std::move(spec)).ToCsv());
    }
    SelectInput(0);
  }

  RunOutcome Run() override {
    RunOutcome outcome;
    outcome.events = input_events_[current()] *
                     static_cast<double>(Mechanisms().size());
    core::ScenarioEngine engine(Spec());
    const core::Report report = engine.Run();
    const core::EngineStats& stats = engine.stats();
    CheckOutput(current(), "report", report.ToCsv(), outcome);
    if (!report.AllOk()) outcome.failures.push_back("report has non-ok rows");
    if (stats.streamed_shards != kShards) {
      outcome.failures.push_back("path guard: streamed_shards=" +
                                 std::to_string(stats.streamed_shards));
    }
    if (stats.workers_spawned != kWorkers) {
      outcome.failures.push_back("path guard: workers_spawned=" +
                                 std::to_string(stats.workers_spawned));
    }
    AddEngineCounters(stats, outcome.counters);
    outcome.output = RowsText(report.rows());
    return outcome;
  }

  RunOutcome Replay(Tracer& tracer, Metrics& layer) override {
    const util::ScopedParallelism threads(kThreads);
    RunOutcome outcome;
    core::ShardStreamPlan plan;
    {
      const ScopedSpan span(&tracer, "model.bind", layer::kModel);
      plan = core::ProbeShardStream(WorldDir()).value();
    }
    GridReplay grid;
    outcome.output = RowsText(ReplayWorkers(tracer, plan, grid, layer));
    AddSpanTotals(tracer, tracer.run(), layer);
    return outcome;
  }

  [[nodiscard]] bool SpawnsWorkers() const override { return true; }

 private:
  std::string WorldDir(std::size_t k) const {
    return dir_ + "/world" + std::to_string(k);
  }
  std::string WorldDir() const { return WorldDir(current()); }
  std::string HandoffDir() const { return dir_ + "/handoff"; }

  core::ScenarioSpec Spec() const {
    core::ScenarioSpec spec;
    spec.source = core::DatasetSourceSpec::ShardDir(WorldDir());
    spec.mechanisms = Mechanisms();
    spec.evaluators = Evaluators();
    spec.seeds = {kSeed};
    spec.threads = kThreads;
    spec.workers = kWorkers;
    spec.worker_binary = worker_binary_;
    return spec;
  }

  /// The supervised worker path: RunShardStagesMultiProcess applies every
  /// stage in worker processes, then the supervisor merges their `.mpc`
  /// results into the folds in ascending shard order.
  std::vector<core::ReportRow> ReplayWorkers(Tracer& tracer,
                                             const core::ShardStreamPlan& plan,
                                             GridReplay& grid,
                                             Metrics& layer) {
    const std::size_t n = grid.size();
    ResetDirectory(HandoffDir());
    const auto stem = [](std::size_t m) {
      return "stage-" + std::to_string(m);
    };
    std::vector<core::ShardStageTask> tasks(n);
    for (std::size_t m = 0; m < n; ++m) {
      tasks[m].spec_text =
          util::SpecChain::Parse(Mechanisms()[m]).stages().front().ToString();
      tasks[m].prefix_name = grid.Name(m);
      tasks[m].stem = stem(m);
      tasks[m].seed = kSeed;
    }
    core::ShardExecOptions options;
    options.worker_binary = worker_binary_;
    options.workers = kWorkers;
    core::ShardExecStats stats;
    std::vector<core::ShardStageOutcome> outcomes;
    {
      const ScopedSpan span(&tracer, "workers.stage", layer::kShardExec);
      outcomes = core::RunShardStagesMultiProcess(plan, tasks, HandoffDir(),
                                                  options, &stats);
    }
    for (const core::ShardStageOutcome& outcome : outcomes) {
      if (!outcome.ok) {
        throw std::runtime_error("worker stage: " + outcome.error);
      }
    }
    layer["workers.handoff_bytes"] =
        static_cast<double>(DirectoryBytes(HandoffDir()));

    const ScopedSpan merge(&tracer, "workers.merge_fold", layer::kEngine);
    Extents extents;
    extents.published_bbox.resize(n);
    for (std::size_t s = 0; s < plan.shard_count; ++s) {
      const model::MappedColumnar mapped =
          Map(&tracer, model::ShardDataPath(plan.dir, s));
      for (std::size_t i = 0; i < mapped.TraceCount(); ++i) {
        extents.AddOriginal(mapped.View(i));
      }
      for (std::size_t m = 0; m < n; ++m) {
        const model::MappedColumnar result =
            Map(&tracer, core::wp::StageShardPath(HandoffDir(), stem(m), s));
        for (std::size_t i = 0; i < result.TraceCount(); ++i) {
          const model::TraceView trace = result.View(i);
          for (std::size_t f = 0; f < trace.size(); ++f) {
            extents.published_bbox[m].Extend(trace.position(f));
          }
        }
      }
    }
    for (std::size_t s = 0; s < plan.shard_count; ++s) {
      const model::MappedColumnar mapped =
          Map(&tracer, model::ShardDataPath(plan.dir, s));
      const std::vector<model::TraceView> original =
          OriginalViews(plan, s, mapped);
      for (std::size_t m = 0; m < n; ++m) {
        const model::MappedColumnar result =
            Map(&tracer, core::wp::StageShardPath(HandoffDir(), stem(m), s));
        std::vector<model::TraceView> published(original.size());
        for (std::size_t i = 0; i < original.size(); ++i) {
          published[i] = result.View(i).WithUser(original[i].user());
        }
        grid.Accumulate(&tracer, m,
                        MakeSlice(plan, s, original, published, extents, m));
      }
    }
    std::vector<core::ReportRow> rows = grid.Finalize(&tracer);
    layer["workers.spawned"] = static_cast<double>(stats.workers_spawned);
    layer["workers.restarts"] = static_cast<double>(stats.worker_restarts);
    layer["workers.failures"] = static_cast<double>(stats.worker_failures);
    return rows;
  }

  std::string worker_binary_;
  std::size_t agents_;
  std::vector<double> input_events_;  // per world
};

}  // namespace

std::unique_ptr<Workload> MakeWorkerGrid(const WorkloadOptions& options) {
  return std::make_unique<WorkerGrid>(options);
}

}  // namespace perfbench
