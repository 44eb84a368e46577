// sweep_cached: a researcher's privacy-utility sweep and its re-run. A
// cold pass fills an empty `.mpc` output cache; a warm pass with one extra
// row reuses every cached stage output and computes only the new one.
#include <filesystem>
#include <map>
#include <optional>

#include "attacks/poi_extraction.h"
#include "core/evaluator.h"
#include "core/output_cache.h"
#include "core/scenario.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/registry.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "util/rng.h"
#include "util/spec.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"
#include "workload_common.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = mobipriv::core;
namespace mech = mobipriv::mech;
namespace model = mobipriv::model;
namespace util = mobipriv::util;

constexpr std::size_t kAgents = 1000;

const std::vector<std::string>& ColdRows() {
  static const std::vector<std::string> rows = {
      "speed_smoothing|mixzone",
      "speed_smoothing|mixzone|downsampling[dt=120]",
      "speed_smoothing|mixzone|cloaking",
      "speed_smoothing|mixzone|gaussian"};
  return rows;
}

constexpr const char* kExtraRow = "speed_smoothing|mixzone|geo_ind[eps=0.1]";

const std::vector<std::string>& Evaluators() {
  static const std::vector<std::string> specs = {
      "coverage", "trajectory_stats", "certification", "poi_attack"};
  return specs;
}

const std::vector<std::uint64_t>& Seeds() {
  static const std::vector<std::uint64_t> seeds = {1, 2};
  return seeds;
}

std::vector<std::string> WarmRows() {
  std::vector<std::string> rows = ColdRows();
  rows.push_back(kExtraRow);
  return rows;
}

/// The engine's chain compilation: one stage node per distinct (prefix
/// canonical name, seed), parents before children, plus each row's
/// terminal node per seed.
struct StagePlan {
  std::string prefix_name;
  std::string spec_text;
  std::size_t parent = static_cast<std::size_t>(-1);
  std::size_t seed_index = 0;
  std::unique_ptr<mech::Mechanism> instance;
};
struct RowPlan {
  std::string name;
  std::vector<std::size_t> terminal;
};

void Compile(const std::vector<std::string>& texts,
             std::vector<StagePlan>& stages, std::vector<RowPlan>& rows) {
  std::map<std::pair<std::string, std::size_t>, std::size_t> node_index;
  for (const std::string& text : texts) {
    std::vector<std::string> stage_texts;
    std::vector<std::string> stage_names;
    const util::SpecChain chain = util::SpecChain::Parse(text);
    for (const util::Spec& stage : chain.stages()) {
      stage_texts.push_back(stage.ToString());
      stage_names.push_back(mech::CreateMechanism(stage_texts.back())->Name());
    }
    RowPlan row;
    row.name = util::Join(stage_names, "|");
    for (std::size_t seed = 0; seed < Seeds().size(); ++seed) {
      std::size_t parent = static_cast<std::size_t>(-1);
      std::string prefix;
      for (std::size_t k = 0; k < stage_names.size(); ++k) {
        prefix += (k > 0 ? "|" : "") + stage_names[k];
        auto it = node_index.find({prefix, seed});
        if (it == node_index.end()) {
          stages.push_back({prefix, stage_texts[k], parent, seed,
                            mech::CreateMechanism(stage_texts[k])});
          it = node_index.emplace(std::make_pair(prefix, seed),
                                  stages.size() - 1)
                   .first;
        }
        parent = it->second;
      }
      row.terminal.push_back(parent);
    }
    rows.push_back(std::move(row));
  }
}

class SweepCached final : public Workload {
 public:
  explicit SweepCached(const WorkloadOptions& options)
      : Workload(options.dir),
        agents_(options.agents ? options.agents : kAgents) {}

  double Setup(std::uint64_t seed) override {
    const std::size_t k = AddWorld();
    const std::string world = dir_ + "/world";
    const double start = NowSeconds();
    const auto stats = GenerateWorld(agents_, WorldSeed(seed, k), world);
    const double generate_s = NowSeconds() - start;
    {
      const core::BoundSource source =
          core::BoundSource::Bind(core::DatasetSourceSpec::ShardDir(world));
      model::SaveDataset(source.view().Materialize(), WorldPath(k));
    }
    std::filesystem::remove_all(world);
    world_events_.push_back(static_cast<double>(stats.events));
    return generate_s;
  }

  void ComputeReference() override {
    // Independent configuration: the warm grid on one thread without a
    // cache. Rows come out in first-appearance order, so the cold report is
    // the warm report's header plus the rows that precede the extra row's.
    reference_.clear();
    for (std::size_t k = 0; k < worlds(); ++k) {
      SelectInput(k);
      core::ScenarioSpec spec = Spec(WarmRows());
      spec.threads = 1;
      spec.mechanism_cache_dir.clear();
      const core::Report report = core::RunScenario(std::move(spec));
      const std::string extra = ChainName(kExtraRow);
      std::size_t cold_rows = 0;
      for (const core::ReportRow& row : report.rows()) {
        cold_rows += row.mechanism != extra ? 1 : 0;
      }
      const std::string warm = report.ToCsv();
      std::size_t end = 0;
      for (std::size_t line = 0; line <= cold_rows; ++line) {
        end = warm.find('\n', end) + 1;
      }
      reference_.push_back(warm.substr(0, end));
      reference_.push_back(warm);
    }
    SelectInput(0);
  }

  void Prepare() override { ResetDirectory(CacheDir()); }

  RunOutcome Run() override {
    RunOutcome outcome;
    outcome.events =
        world_events_[current()] *
        static_cast<double>((ColdRows().size() + WarmRows().size()) *
                            Seeds().size());
    const double start = NowSeconds();
    core::ScenarioEngine cold(Spec(ColdRows()));
    const core::Report cold_report = cold.Run();
    const double cold_end = NowSeconds();
    core::ScenarioEngine warm(Spec(WarmRows()));
    const core::Report warm_report = warm.Run();
    outcome.counters["cache.cold_pass_s"] = cold_end - start;
    outcome.counters["cache.warm_pass_s"] = NowSeconds() - cold_end;

    CheckOutput(2 * current(), "cold report", cold_report.ToCsv(), outcome);
    CheckOutput(2 * current() + 1, "warm report", warm_report.ToCsv(),
                outcome);
    if (!cold_report.AllOk() || !warm_report.AllOk()) {
      outcome.failures.push_back("report has non-ok rows");
    }
    const core::EngineStats& c = cold.stats();
    const core::EngineStats& w = warm.stats();
    if (c.cache_hits != 0 || c.cache_misses == 0 ||
        w.cache_hits != c.cache_misses) {
      outcome.failures.push_back(
          "path guard: cold hits=" + std::to_string(c.cache_hits) +
          " misses=" + std::to_string(c.cache_misses) +
          ", warm hits=" + std::to_string(w.cache_hits));
    }
    AddEngineCounters(c, outcome.counters);
    AddEngineCounters(w, outcome.counters);
    outcome.output =
        RowsText(cold_report.rows()) + RowsText(warm_report.rows());
    return outcome;
  }

  RunOutcome Replay(Tracer& tracer, Metrics& layer) override {
    const util::ScopedParallelism threads(kThreads);
    RunOutcome outcome;
    Metrics mixzone;
    double speed_events = 0.0;
    outcome.output = ReplayPass(tracer, ColdRows(), mixzone, speed_events) +
                     ReplayPass(tracer, WarmRows(), mixzone, speed_events);
    AddSpanTotals(tracer, tracer.run(), layer);
    for (const auto& [name, value] : mixzone) layer[name] = value;
    layer["mixzone.pairs_per_event"] =
        mixzone["mixzone.input_events"] > 0
            ? mixzone["mixzone.encounters"] / mixzone["mixzone.input_events"]
            : 0.0;
    layer["speed.events_out"] = speed_events;
    layer["cache.bytes"] = static_cast<double>(DirectoryBytes(CacheDir()));
    return outcome;
  }

 private:
  std::string WorldPath(std::size_t k) const {
    return dir_ + "/world" + std::to_string(k) + ".mpc";
  }
  std::string WorldPath() const { return WorldPath(current()); }
  std::string CacheDir() const { return dir_ + "/cache"; }

  static std::string ChainName(const std::string& text) {
    std::vector<std::string> names;
    const util::SpecChain chain = util::SpecChain::Parse(text);
    for (const util::Spec& stage : chain.stages()) {
      names.push_back(mech::CreateMechanism(stage.ToString())->Name());
    }
    return util::Join(names, "|");
  }

  core::ScenarioSpec Spec(const std::vector<std::string>& rows) const {
    core::ScenarioSpec spec;
    spec.source = core::DatasetSourceSpec::ColumnarFile(WorldPath());
    spec.mechanisms = rows;
    spec.evaluators = Evaluators();
    spec.seeds = Seeds();
    spec.threads = kThreads;
    spec.mechanism_cache_dir = CacheDir();
    return spec;
  }

  /// One engine pass over the whole-view DAG with the output cache, node by
  /// node in the engine's topological order: every stage probes the cache
  /// under its prefix key, computes and spills on a miss; then every
  /// (row, seed, evaluator) cell is evaluated on the row's terminal output.
  /// Returns the pass's report rows (RowsText).
  std::string ReplayPass(Tracer& tracer, const std::vector<std::string>& texts,
                         Metrics& mixzone, double& speed_events) {
    const ScopedSpan pass(&tracer, "engine.pass", layer::kEngine);
    std::vector<StagePlan> stages;
    std::vector<RowPlan> rows;
    Compile(texts, stages, rows);
    std::vector<std::unique_ptr<core::Evaluator>> evaluators;
    for (const std::string& text : Evaluators()) {
      evaluators.push_back(core::CreateEvaluator(text));
    }

    std::optional<core::BoundSource> source;
    {
      const ScopedSpan span(&tracer, "model.bind", layer::kModel);
      source.emplace(core::BoundSource::Bind(
          core::DatasetSourceSpec::ColumnarFile(WorldPath())));
    }
    std::optional<mobipriv::geo::LocalProjection> frame;
    {
      const ScopedSpan span(&tracer, "engine.projection", layer::kEngine);
      frame.emplace(mobipriv::attacks::DatasetProjection(source->view()));
    }
    std::optional<core::OutputCache> cache;
    std::uint64_t fingerprint = 0;
    {
      const ScopedSpan span(&tracer, "cache.fingerprint", layer::kCache);
      cache.emplace(CacheDir());
      fingerprint = core::OutputCache::FingerprintView(source->view());
    }

    std::vector<model::EventStore> outputs(stages.size());
    std::vector<model::DatasetView> published(stages.size());
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const StagePlan& stage = stages[i];
      const std::uint64_t seed = Seeds()[stage.seed_index];
      util::Rng rng(util::DeriveStreamSeed(
          seed,
          model::Fnv1a64(stage.prefix_name.data(), stage.prefix_name.size()),
          0));
      const std::string key =
          core::OutputCache::KeyText(stage.prefix_name, fingerprint, seed);
      bool loaded = false;
      {
        const ScopedSpan span(&tracer, "cache.load", layer::kCache);
        loaded = cache->TryLoad(key, outputs[i]);
      }
      if (!loaded) {
        const model::DatasetView& input =
            stage.parent == static_cast<std::size_t>(-1)
                ? source->view()
                : published[stage.parent];
        {
          const ScopedSpan span(&tracer, StageSpan(stage.spec_text),
                                layer::kMechanisms);
          const auto* mix =
              dynamic_cast<const mech::MixZone*>(stage.instance.get());
          if (mix != nullptr) {
            mech::MixZoneReport report;
            outputs[i] = mix->ApplyToStoreWithReport(input, rng, report);
            mixzone["mixzone.encounters"] +=
                static_cast<double>(report.encounters);
            mixzone["mixzone.zones"] +=
                static_cast<double>(report.zones.size());
            mixzone["mixzone.occurrences"] +=
                static_cast<double>(report.occurrences);
            mixzone["mixzone.suppressed_events"] +=
                static_cast<double>(report.suppressed_events);
            mixzone["mixzone.input_events"] +=
                static_cast<double>(report.total_events);
          } else {
            outputs[i] = stage.instance->ApplyToStore(input, rng);
          }
        }
        if (stage.parent == static_cast<std::size_t>(-1)) {
          speed_events += static_cast<double>(outputs[i].View().EventCount());
        }
        const ScopedSpan span(&tracer, "cache.store", layer::kCache);
        cache->Store(key, outputs[i]);
      }
      published[i] = outputs[i].View();
    }

    std::vector<core::ReportRow> report;
    for (const RowPlan& row : rows) {
      for (std::size_t s = 0; s < Seeds().size(); ++s) {
        for (std::size_t e = 0; e < evaluators.size(); ++e) {
          std::vector<core::MetricValue> values;
          {
            const ScopedSpan span(&tracer,
                                  EvaluatorSpan("eval", Evaluators()[e]),
                                  layer::kEvaluators);
            values = evaluators[e]->Evaluate(
                {source->view(), published[row.terminal[s]], *frame,
                 Seeds()[s]});
          }
          for (const core::MetricValue& value : values) {
            report.push_back({row.name, Seeds()[s], evaluators[e]->Name(),
                              value.metric, value.value, core::RowStatus::kOk,
                              {}});
          }
        }
      }
    }
    return RowsText(report);
  }

  std::size_t agents_;
  std::vector<double> world_events_;  // input events per world
};

}  // namespace

std::unique_ptr<Workload> MakeSweepCached(const WorkloadOptions& options) {
  return std::make_unique<SweepCached>(options);
}

}  // namespace perfbench
