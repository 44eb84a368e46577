#include "core/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>
#include <string>

#include "core/evaluator.h"
#include "core/scenario.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "model/sharded_dataset.h"
#include "synth/population.h"
#include "util/spec.h"
#include "util/thread_pool.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;

/// Small shared world (built once; tests treat it as read-only).
const model::Dataset& World() {
  static const synth::SyntheticWorld* world = [] {
    synth::PopulationConfig config;
    config.agents = 20;
    config.days = 1;
    config.seed = 77;
    return new synth::SyntheticWorld(config);
  }();
  return world->dataset();
}

core::ScenarioSpec BaseSpec() {
  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::Borrowed(World());
  spec.mechanisms = {"identity", "cloaking", "geo_ind[eps=0.01]"};
  spec.evaluators = {"coverage", "spatial_distortion"};
  spec.seeds = {11};
  return spec;
}

TEST(ScenarioEngine, GridCoversEveryCell) {
  core::ScenarioEngine engine(BaseSpec());
  const core::Report report = engine.Run();

  // 3 mechanisms x 2 evaluators, every pair present, in canonical order.
  std::size_t coverage_rows = 0;
  for (const core::ReportRow& row : report.rows()) {
    EXPECT_EQ(row.seed, 11u);
    if (row.metric == "coverage_jaccard") ++coverage_rows;
  }
  EXPECT_EQ(coverage_rows, 3u);
  EXPECT_EQ(engine.stats().mechanism_nodes, 3u);
  EXPECT_EQ(engine.stats().evaluator_nodes, 6u);
  EXPECT_EQ(report.rows().front().mechanism, "identity");

  // Identity sanity: published == original.
  for (const core::ReportRow& row : report.rows()) {
    if (row.mechanism != "identity") continue;
    if (row.metric == "coverage_jaccard") EXPECT_DOUBLE_EQ(row.value, 1.0);
    if (row.metric == "path_mean_m") EXPECT_DOUBLE_EQ(row.value, 0.0);
  }
}

TEST(ScenarioEngine, MemoizesDuplicateMechanismSpecs) {
  core::ScenarioSpec spec = BaseSpec();
  // "cloaking" canonicalizes to "cloaking[cell=250m]": one shared node.
  spec.mechanisms = {"cloaking", "cloaking[cell=250m]", "identity"};
  core::ScenarioEngine engine(spec);
  const core::Report report = engine.Run();
  EXPECT_EQ(engine.stats().mechanism_nodes, 2u);
  EXPECT_EQ(engine.stats().grid_cells, 6u);
  std::size_t cloaking_rows = 0;
  for (const core::ReportRow& row : report.rows()) {
    if (row.mechanism == "cloaking[cell=250m]" &&
        row.metric == "coverage_jaccard") {
      ++cloaking_rows;
    }
  }
  EXPECT_EQ(cloaking_rows, 1u);  // deduped, not duplicated
}

TEST(ScenarioEngine, ReportByteIdenticalAcrossThreadCounts) {
  core::ScenarioSpec spec = BaseSpec();
  spec.evaluators = {"coverage", "spatial_distortion", "range_queries[n=40]",
                     "poi_attack"};
  spec.seeds = {3, 9};

  spec.threads = 1;
  const std::string serial = core::RunScenario(spec).ToCsv();
  spec.threads = 4;
  const std::string parallel = core::RunScenario(spec).ToCsv();
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("range_err_median"), std::string::npos);
}

TEST(ScenarioEngine, ReportByteIdenticalAcrossSourceShardings) {
  const fs::path dir = fs::temp_directory_path() / "mobipriv_engine_src";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // The same dataset served four ways: borrowed, one .mpc, 1-shard dir,
  // 8-shard dir.
  const std::string mpc = (dir / "world.mpc").string();
  model::WriteColumnar(model::EventStore::FromDataset(World()), mpc);
  model::ShardedDataset::Partition(World(), 1)
      .SaveShards((dir / "s1").string());
  model::ShardedDataset::Partition(World(), 8)
      .SaveShards((dir / "s8").string());

  core::ScenarioSpec spec = BaseSpec();
  spec.evaluators = {"coverage", "trajectory_stats"};

  const std::string borrowed = core::RunScenario(spec).ToCsv();
  spec.source = core::DatasetSourceSpec::ColumnarFile(mpc);
  const std::string columnar = core::RunScenario(spec).ToCsv();
  spec.source = core::DatasetSourceSpec::ShardDir((dir / "s1").string());
  const std::string one_shard = core::RunScenario(spec).ToCsv();
  spec.source = core::DatasetSourceSpec::ShardDir((dir / "s8").string());
  const std::string eight_shards = core::RunScenario(spec).ToCsv();

  EXPECT_EQ(borrowed, columnar);
  EXPECT_EQ(borrowed, one_shard);
  EXPECT_EQ(borrowed, eight_shards);

  // FromPath dispatches: directory-with-manifest vs .mpc file.
  EXPECT_EQ(core::DatasetSourceSpec::FromPath((dir / "s8").string()).kind,
            core::DatasetSourceSpec::Kind::kShardDir);
  EXPECT_EQ(core::DatasetSourceSpec::FromPath(mpc).kind,
            core::DatasetSourceSpec::Kind::kColumnarFile);
  fs::remove_all(dir);
}

TEST(ScenarioEngine, MpcSourceFeedsGridWithoutFullMaterialize) {
  const fs::path dir = fs::temp_directory_path() / "mobipriv_engine_mpc";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string mpc = (dir / "world.mpc").string();
  model::WriteColumnar(model::EventStore::FromDataset(World()), mpc);

  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::ColumnarFile(mpc);
  // Per-trace mechanisms stream the mmap'd view trace by trace; mixzone
  // is whole-dataset but SoA-native end to end — detection reads the
  // view's columns and reassembly writes store columns directly. (The
  // remaining whole-dataset mechanisms, ours/wait4me, materialize their
  // working set by design — that is their documented adapter.)
  spec.mechanisms = {"speed_smoothing", "geo_ind[eps=0.01]",
                     "geo_ind[eps=0.1]", "cloaking", "gaussian",
                     "downsampling", "mixzone"};
  spec.evaluators = {"spatial_distortion", "coverage", "trajectory_stats",
                     "poi_attack"};
  spec.seeds = {5};

  const std::size_t before = model::FullMaterializeCount();
  const std::size_t copies_before = model::TraceCopyCount();
  core::ScenarioEngine engine(spec);
  const core::Report report = engine.Run();
  EXPECT_EQ(model::FullMaterializeCount(), before)
      << "engine or a per-trace mechanism/evaluator materialized the "
         "full source";
  // The SoA-native contract: mechanism nodes fill EventStore columns
  // straight from the mmap'd view — not one owning per-trace copy
  // (TraceView::Materialize) anywhere between source and report.
  EXPECT_EQ(model::TraceCopyCount(), copies_before)
      << "a mechanism or evaluator built an owning Trace from a view on "
         "the store path";
  EXPECT_EQ(engine.stats().mechanism_nodes, 7u);
  EXPECT_EQ(engine.stats().evaluator_nodes, 28u);
  EXPECT_FALSE(report.rows().empty());
  fs::remove_all(dir);
}

TEST(ScenarioEngine, PivotTableShapesRows) {
  const core::Report report = core::RunScenario(BaseSpec());
  const core::Table pivot = report.Pivot("coverage[cell=200m]");
  const std::string csv = pivot.ToCsv();
  EXPECT_NE(csv.find("mechanism,seed,coverage_jaccard"), std::string::npos);
  EXPECT_NE(csv.find("identity,11,1.000000"), std::string::npos);
}

TEST(ScenarioEngine, MixZoneRowsDifferingInMinUsersOrSuppressStayApart) {
  // Both specs used to print "mixzone[r=150m,w=600s]" and were deduped
  // into one row.
  core::ScenarioSpec spec = BaseSpec();
  spec.mechanisms = {"mixzone[min_users=3]", "mixzone[suppress=0]"};
  spec.evaluators = {"coverage"};
  core::ScenarioEngine engine(spec);
  const core::Report report = engine.Run();
  EXPECT_EQ(engine.stats().mechanism_nodes, 2u);
  std::set<std::string> mechanisms;
  for (const core::ReportRow& row : report.rows()) {
    mechanisms.insert(row.mechanism);
  }
  EXPECT_EQ(mechanisms,
            (std::set<std::string>{"mixzone[r=150m,w=600s,min_users=3]",
                                   "mixzone[r=150m,w=600s,suppress=0]"}));
}

TEST(ScenarioEngine, InvalidSpecsFailAtCompileTime) {
  core::ScenarioSpec spec = BaseSpec();
  spec.mechanisms = {"warp_drive"};
  EXPECT_THROW(core::ScenarioEngine{spec}, util::SpecError);

  spec = BaseSpec();
  spec.evaluators = {"coverage[radius=1]"};  // unknown parameter
  EXPECT_THROW(core::ScenarioEngine{spec}, util::SpecError);

  spec = BaseSpec();
  spec.mechanisms.clear();
  EXPECT_THROW(core::ScenarioEngine{spec}, util::SpecError);

  // The uncertainty evaluator re-runs mix zones: invalid zone knobs fail
  // here too, not when the evaluator first runs.
  for (const char* evaluator :
       {"uncertainty[r=0]", "uncertainty[w=-1]", "uncertainty[min_users=1]"}) {
    spec = BaseSpec();
    spec.evaluators = {evaluator};
    EXPECT_THROW(core::ScenarioEngine{spec}, util::SpecError) << evaluator;
  }
}

TEST(ScenarioEngine, EvaluatorNamesRoundTrip) {
  for (const std::string& base : core::RegisteredEvaluatorBases()) {
    const auto evaluator = core::CreateEvaluator(base);
    const auto rebuilt = core::CreateEvaluator(evaluator->Name());
    EXPECT_EQ(rebuilt->Name(), evaluator->Name()) << base;
  }
}

TEST(ScenarioEngine, EvaluatorNamesAreInjectiveOnConfig) {
  // The engine dedupes evaluators by Name(); differently-configured
  // evaluators must therefore never share one.
  for (const char* tuned :
       {"poi_attack[dwell=600]", "poi_attack[diameter=750m]",
        "kdelta[grid=30]", "kdelta[tolerance=0.1]"}) {
    const auto base = std::string(tuned).substr(0, std::string(tuned).find('['));
    EXPECT_NE(core::CreateEvaluator(tuned)->Name(),
              core::CreateEvaluator(base)->Name())
        << tuned;
    // ... and the tuned name still round-trips.
    const auto evaluator = core::CreateEvaluator(tuned);
    EXPECT_EQ(core::CreateEvaluator(evaluator->Name())->Name(),
              evaluator->Name());
  }
}

TEST(ScenarioEngine, InstantiatesFromOriginalSpecTextNotLossyName) {
  // "geo_ind[eps=0.00004]" canonicalizes to the name "geo_ind[eps=0.0000]"
  // (fixed print precision). Re-parsing the NAME would run epsilon = 0 —
  // infinite planar-Laplace noise, non-finite coordinates — so finite
  // report values prove the engine ran the original spec text.
  core::ScenarioSpec spec = BaseSpec();
  spec.mechanisms = {"geo_ind[eps=0.00004]"};
  spec.evaluators = {"spatial_distortion"};
  const core::Report report = core::RunScenario(std::move(spec));
  ASSERT_FALSE(report.rows().empty());
  for (const core::ReportRow& row : report.rows()) {
    EXPECT_TRUE(std::isfinite(row.value)) << row.metric;
  }
}

TEST(ScenarioEngine, PreparesEachOriginalOncePerEvaluatorAndSeed) {
  // Two suffix rows over a shared speed_smoothing|mixzone prefix: 2 rows
  // x 2 seeds x 3 evaluators = 12 cells, but only 3 x 2 original halves.
  // spatial_distortion keeps no original state; its slot still counts.
  core::ScenarioSpec spec = BaseSpec();
  spec.mechanisms = {"speed_smoothing|mixzone|cloaking",
                     "speed_smoothing|mixzone|gaussian"};
  spec.evaluators = {"coverage", "poi_attack", "spatial_distortion"};
  spec.seeds = {1, 2};
  std::string reference;
  for (const std::size_t threads : {1u, 4u}) {
    spec.threads = threads;
    core::ScenarioEngine engine(spec);
    const std::string csv = engine.Run().ToCsv();
    EXPECT_EQ(engine.stats().evaluator_nodes, 12u);
    EXPECT_EQ(engine.stats().original_preparations, 6u) << threads;
    EXPECT_NE(engine.stats().ToString().find("original_preparations=6"),
              std::string::npos);
    if (reference.empty()) reference = csv;
    EXPECT_EQ(csv, reference) << threads;
  }
}

TEST(ScenarioEngine, StreamedPathPreparesEachOriginalOnce) {
  const fs::path dir = fs::temp_directory_path() / "mobipriv_engine_prep";
  fs::remove_all(dir);
  model::ShardedDataset::Partition(World(), 4).SaveShards(dir.string());
  core::ScenarioSpec spec = BaseSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir.string());
  spec.mechanisms = {"cloaking", "gaussian"};
  spec.evaluators = {"trajectory_stats", "range_queries[n=20]"};
  spec.seeds = {1, 2};
  core::ScenarioEngine engine(spec);
  (void)engine.Run();
  EXPECT_EQ(engine.stats().streamed_shards, 4u);
  EXPECT_EQ(engine.stats().original_preparations, 4u);
  fs::remove_all(dir);
}

TEST(ScenarioEngine, RunTwiceThrows) {
  core::ScenarioEngine engine(BaseSpec());
  (void)engine.Run();
  EXPECT_THROW((void)engine.Run(), std::logic_error);
}

}  // namespace
}  // namespace mobipriv
