// The out-of-core engine path: shard-streamed execution of a grid over a
// SaveShards directory must be a pure resource strategy — same Report,
// byte for byte, as the whole-view DAG, at any thread count, with no
// hidden materializations. These tests pin that equivalence plus the
// eligibility gating around it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/engine.h"
#include "core/scenario.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/registry.h"
#include "model/columnar_file.h"
#include "model/sharded_dataset.h"
#include "model/views.h"
#include "synth/population.h"
#include "util/fault.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;

const model::Dataset& World() {
  static const synth::SyntheticWorld* world = [] {
    synth::PopulationConfig config;
    config.agents = 24;
    config.days = 1;
    config.seed = 99;
    return new synth::SyntheticWorld(config);
  }();
  return world->dataset();
}

/// Shards World() into `shards` under a fresh directory, returns its path.
std::string MakeShardDir(const std::string& name, std::size_t shards) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  model::ShardedDataset::Partition(World(), shards).SaveShards(dir.string());
  return dir.string();
}

/// A grid every streamed-path precondition accepts: single-stage per-trace
/// mechanisms, foldable evaluators only.
core::ScenarioSpec FoldableSpec() {
  core::ScenarioSpec spec;
  spec.mechanisms = {"gaussian", "geo_ind[eps=0.01]", "cloaking"};
  spec.evaluators = {"trajectory_stats", "range_queries[n=32]"};
  spec.seeds = {5, 9};
  return spec;
}

TEST(ShardStream, ProbeAcceptsSaveShardsLayout) {
  const std::string dir = MakeShardDir("mobipriv_stream_probe", 4);
  const auto plan = core::ProbeShardStream(dir);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->shard_count, 4u);
  EXPECT_EQ(plan->global_names.size(), World().UserCount());
  EXPECT_EQ(plan->total_traces, World().TraceCount());
  // Canonical-order restriction: strictly ascending origin per shard.
  for (const auto& run : plan->origin) {
    for (std::size_t i = 1; i < run.size(); ++i) {
      EXPECT_LT(run[i - 1], run[i]);
    }
  }
  fs::remove_all(dir);
}

TEST(ShardStream, ReportByteIdenticalToWholeView) {
  const std::string dir = MakeShardDir("mobipriv_stream_identical", 6);

  // Reference: the whole-view DAG over the borrowed dataset.
  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::Borrowed(World());
  core::ScenarioEngine whole(spec);
  const std::string reference = whole.Run().ToCsv();
  EXPECT_EQ(whole.stats().streamed_shards, 0u);

  // Streamed: same grid over the shard dir, at two thread counts. The
  // full-materialize and trace-copy counters stay flat — out-of-core
  // execution must not sneak a dataset (or per-trace AoS copies) into
  // memory to get its answer.
  for (const std::size_t threads : {1u, 4u}) {
    core::ScenarioSpec streamed_spec = FoldableSpec();
    streamed_spec.source = core::DatasetSourceSpec::ShardDir(dir);
    streamed_spec.threads = threads;
    const std::size_t materialized_before = model::FullMaterializeCount();
    const std::size_t copies_before = model::TraceCopyCount();
    core::ScenarioEngine streamed(std::move(streamed_spec));
    const core::Report report = streamed.Run();
    EXPECT_EQ(streamed.stats().streamed_shards, 6u) << "threads=" << threads;
    EXPECT_TRUE(report.AllOk());
    EXPECT_EQ(report.ToCsv(), reference) << "threads=" << threads;
    EXPECT_EQ(model::FullMaterializeCount(), materialized_before);
    EXPECT_EQ(model::TraceCopyCount(), copies_before);
  }
  fs::remove_all(dir);
}

TEST(ShardStream, FallsBackOnNonFoldableEvaluator) {
  const std::string dir = MakeShardDir("mobipriv_stream_fallback_eval", 3);
  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.evaluators.push_back("coverage");  // whole-view only
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_EQ(engine.stats().streamed_shards, 0u);
  EXPECT_TRUE(report.AllOk());
  fs::remove_all(dir);
}

TEST(ShardStream, FallsBackOnCrossTraceMechanism) {
  const std::string dir = MakeShardDir("mobipriv_stream_fallback_mech", 3);
  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.mechanisms.push_back("mixzone");  // cross-trace: needs the whole view
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_EQ(engine.stats().streamed_shards, 0u);
  EXPECT_TRUE(report.AllOk());
  fs::remove_all(dir);
}

TEST(ShardStream, FallsBackOnChainRow) {
  const std::string dir = MakeShardDir("mobipriv_stream_fallback_chain", 3);
  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.mechanisms = {"geo_ind[eps=0.01]|cloaking"};  // multi-stage
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_EQ(engine.stats().streamed_shards, 0u);
  EXPECT_TRUE(report.AllOk());
  fs::remove_all(dir);
}

TEST(ShardStream, FoldTimeIsReportedOnStreamedRunsOnly) {
  const std::string dir = MakeShardDir("mobipriv_stream_fold_ms", 3);
  core::ScenarioSpec whole_spec = FoldableSpec();
  whole_spec.source = core::DatasetSourceSpec::Borrowed(World());
  core::ScenarioEngine whole(std::move(whole_spec));
  (void)whole.Run();
  EXPECT_EQ(whole.stats().fold_ms, 0.0);
  EXPECT_EQ(whole.stats().ToString().find("fold_ms="), std::string::npos);

  core::ScenarioSpec streamed_spec = FoldableSpec();
  streamed_spec.source = core::DatasetSourceSpec::ShardDir(dir);
  core::ScenarioEngine streamed(std::move(streamed_spec));
  (void)streamed.Run();
  EXPECT_EQ(streamed.stats().streamed_shards, 3u);
  EXPECT_GT(streamed.stats().fold_ms, 0.0);
  EXPECT_LE(streamed.stats().fold_ms, streamed.stats().run_ms);
  EXPECT_NE(streamed.stats().ToString().find("fold_ms="), std::string::npos);
  fs::remove_all(dir);
}

using Group = std::pair<std::string, std::uint64_t>;

/// (mechanism, seed) groups of `report` that carry a non-ok row.
std::set<Group> DegradedGroups(const core::Report& report) {
  std::set<Group> groups;
  for (const core::ReportRow& row : report.rows()) {
    if (row.status != core::RowStatus::kOk) {
      groups.emplace(row.mechanism, row.seed);
    }
  }
  return groups;
}

/// Every ok row of `report` equals its `reference` row bit for bit, and
/// every reference row outside the degraded groups is present and ok.
void ExpectHealthyRowsMatch(const core::Report& report,
                            const core::Report& reference) {
  const std::set<Group> degraded = DegradedGroups(report);
  const auto find = [](const core::Report& in, const core::ReportRow& key) {
    for (const core::ReportRow& row : in.rows()) {
      if (row.mechanism == key.mechanism && row.seed == key.seed &&
          row.evaluator == key.evaluator && row.metric == key.metric) {
        return &row;
      }
    }
    return static_cast<const core::ReportRow*>(nullptr);
  };
  for (const core::ReportRow& row : report.rows()) {
    if (row.status != core::RowStatus::kOk) continue;
    const core::ReportRow* want = find(reference, row);
    ASSERT_NE(want, nullptr) << row.mechanism << " " << row.metric;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(row.value),
              std::bit_cast<std::uint64_t>(want->value))
        << row.mechanism << " seed " << row.seed << " " << row.metric;
  }
  for (const core::ReportRow& want : reference.rows()) {
    if (degraded.count({want.mechanism, want.seed}) != 0) continue;
    const core::ReportRow* got = find(report, want);
    ASSERT_NE(got, nullptr) << want.mechanism << " " << want.metric;
    EXPECT_EQ(got->status, core::RowStatus::kOk);
  }
}

TEST(ShardStream, FailedStageOrCellStrandsOnlyItsOwnRows) {
  namespace fault = util::fault;
  const std::string dir = MakeShardDir("mobipriv_stream_isolation", 6);
  core::ScenarioSpec healthy_spec = FoldableSpec();
  healthy_spec.source = core::DatasetSourceSpec::Borrowed(World());
  const core::Report healthy = core::RunScenario(std::move(healthy_spec));

  // Rows share one original-side fold per (evaluator, seed). A failed
  // stage (the middle row, both seeds) or one failed cell (the first
  // trajectory_stats cell: gaussian, seed 5) must degrade exactly what
  // the whole-view DAG degrades and leave every other value untouched.
  struct Case {
    std::string_view point;
    std::string key;
    std::uint64_t times;
    std::set<Group> degraded;
  };
  const std::vector<Case> cases = {
      {fault::points::kEngineMechanismRun, "geo_ind*", 2,
       {{"geo_ind[eps=0.0100]", 5}, {"geo_ind[eps=0.0100]", 9}}},
      {fault::points::kEngineEvaluatorRun, "trajectory_stats", 1,
       {{"gaussian[sigma=100m]", 5}}},
  };
  for (const Case& c : cases) {
    const auto arm = [&] {
      fault::Config config;
      config.times = c.times;
      config.key_filter = c.key;
      fault::Arm(c.point, config);
    };
    arm();
    core::ScenarioSpec dag_spec = FoldableSpec();
    dag_spec.source = core::DatasetSourceSpec::Borrowed(World());
    dag_spec.threads = 1;  // cell faults trip in node order
    const std::string degraded_dag =
        core::RunScenario(std::move(dag_spec)).ToCsv();
    for (const std::size_t threads : {1u, 4u}) {
      arm();
      core::ScenarioSpec spec = FoldableSpec();
      spec.source = core::DatasetSourceSpec::ShardDir(dir);
      spec.threads = threads;
      core::ScenarioEngine engine(std::move(spec));
      const core::Report report = engine.Run();
      EXPECT_EQ(engine.stats().streamed_shards, 6u);
      EXPECT_EQ(report.ToCsv(), degraded_dag)
          << c.point << " threads=" << threads;
      EXPECT_EQ(DegradedGroups(report), c.degraded) << c.point;
      ExpectHealthyRowsMatch(report, healthy);
    }
    fault::DisarmAll();
  }
  fs::remove_all(dir);
}

/// Test-only per-trace stage: copies every trace, but throws on the
/// traces of one user.
class PoisonedUser final : public mech::PerTraceMechanism {
 public:
  explicit PoisonedUser(model::UserId target) : target_(target) {}
  [[nodiscard]] std::string Name() const override { return "poisoned_user"; }

 protected:
  void ApplyToTraceColumns(const model::TraceView& trace,
                           model::TraceBuffer& out,
                           util::Rng& /*rng*/) const override {
    if (trace.user() == target_) {
      throw std::runtime_error("poisoned user " + std::to_string(target_));
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
      out.Append(trace.position(i), trace.time(i));
    }
  }

 private:
  model::UserId target_;
};

TEST(ShardStream, StageThrowingMidShardFailsOnlyItsOwnRow) {
  const std::string dir = MakeShardDir("mobipriv_stream_poisoned", 6);
  const auto plan = core::ProbeShardStream(dir);
  ASSERT_TRUE(plan.has_value());
  // The user of shard 2's middle trace: the stage throws after whole
  // shards have streamed through it, part way into a shard.
  const model::MappedColumnar shard =
      model::MapColumnar(model::ShardDataPath(dir, 2));
  ASSERT_GT(shard.TraceCount(), 0u);
  const model::UserId target =
      plan->local_to_global[2][shard.TraceUser(shard.TraceCount() / 2)];
  mech::RegisterMechanism("poisoned_user", [target](const util::Spec&) {
    return std::make_unique<PoisonedUser>(target);
  });
  const std::string error = "poisoned user " + std::to_string(target);

  core::ScenarioSpec healthy_spec = FoldableSpec();
  healthy_spec.source = core::DatasetSourceSpec::Borrowed(World());
  healthy_spec.seeds = {5};
  const core::Report healthy = core::RunScenario(std::move(healthy_spec));

  for (const std::size_t threads : {1u, 4u}) {
    core::ScenarioSpec spec = FoldableSpec();
    spec.mechanisms.push_back("poisoned_user");
    spec.seeds = {5};
    spec.threads = threads;
    core::ScenarioSpec dag_spec = spec;
    dag_spec.source = core::DatasetSourceSpec::Borrowed(World());
    const std::string dag = core::RunScenario(std::move(dag_spec)).ToCsv();

    spec.source = core::DatasetSourceSpec::ShardDir(dir);
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    EXPECT_EQ(engine.stats().streamed_shards, 6u);
    EXPECT_EQ(report.ToCsv(), dag) << "threads=" << threads;
    std::size_t failed = 0;
    std::size_t skipped = 0;
    for (const core::ReportRow& row : report.rows()) {
      if (row.status == core::RowStatus::kFailed) {
        ++failed;
        EXPECT_EQ(row.mechanism, "poisoned_user");
        EXPECT_EQ(row.evaluator, "");
        EXPECT_EQ(row.error, error);
      } else if (row.status == core::RowStatus::kSkipped) {
        ++skipped;
        EXPECT_EQ(row.mechanism, "poisoned_user");
        EXPECT_EQ(row.error, "dependency failed: " + error);
      }
    }
    EXPECT_EQ(failed, 1u) << "threads=" << threads;
    EXPECT_EQ(skipped, FoldableSpec().evaluators.size())
        << "threads=" << threads;
    ExpectHealthyRowsMatch(report, healthy);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mobipriv
