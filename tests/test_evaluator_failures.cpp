// Failure semantics of the engine's compute-once original halves: an
// evaluator whose PrepareOriginal throws fails exactly its own live cells
// with the thrown text, prepares nothing for cells that never run, and
// leaves every other report row as a healthy run writes it.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/scenario.h"
#include "synth/population.h"
#include "util/fault.h"

namespace mobipriv {
namespace {

namespace fault = util::fault;

/// PrepareOriginal calls made by every ThrowingOriginal instance.
std::atomic<int> g_prepare_calls{0};

/// Test-only evaluator whose original half always throws, naming the seed
/// so each (evaluator, seed) slot's text is distinguishable.
class ThrowingOriginal final : public core::Evaluator {
 public:
  [[nodiscard]] std::string Name() const override {
    return "throwing_original";
  }
  [[nodiscard]] std::shared_ptr<const core::OriginalState> PrepareOriginal(
      const model::DatasetView& /*original*/,
      const geo::LocalProjection& /*frame*/,
      std::uint64_t seed) const override {
    g_prepare_calls.fetch_add(1);
    throw std::runtime_error("original side unavailable (seed " +
                             std::to_string(seed) + ")");
  }
  [[nodiscard]] std::vector<core::MetricValue> Compare(
      const core::EvalInput& /*input*/,
      const core::OriginalState* /*state*/) const override {
    return {{"never", 0.0}};
  }
};

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

constexpr const char* kChain = "speed_smoothing[eps=100m]|cloaking[cell=250m]";
constexpr const char* kCoverage = "coverage[cell=200m]";

core::ScenarioSpec Spec(std::size_t threads, bool with_throwing) {
  core::RegisterEvaluator("throwing_original", [](const util::Spec&) {
    return std::make_unique<ThrowingOriginal>();
  });
  core::ScenarioSpec spec;
  spec.source = core::DatasetSourceSpec::Borrowed(World());
  spec.mechanisms = {"identity", "speed_smoothing|cloaking",
                     "geo_ind[eps=0.01]"};
  spec.evaluators = {"coverage", "spatial_distortion"};
  if (with_throwing) {
    spec.evaluators.insert(spec.evaluators.begin() + 1, "throwing_original");
  }
  spec.seeds = {1, 2};
  spec.threads = threads;
  return spec;
}

fault::Config FailAll(std::string key) {
  fault::Config config;
  config.times = 1000000;
  config.key_filter = std::move(key);
  return config;
}

struct DisarmGuard {
  ~DisarmGuard() { fault::DisarmAll(); }
};

struct Outcome {
  core::Report report;
  core::EngineStats stats;
  int prepare_calls = 0;
};

Outcome RunGrid(core::ScenarioSpec spec) {
  g_prepare_calls.store(0);
  core::ScenarioEngine engine(std::move(spec));
  Outcome outcome{engine.Run(), {}, 0};
  outcome.stats = engine.stats();
  outcome.prepare_calls = g_prepare_calls.load();
  return outcome;
}

/// The rows of `report` whose evaluator is neither empty nor `excluded`.
std::vector<core::ReportRow> RowsExcept(const core::Report& report,
                                        const std::string& excluded) {
  std::vector<core::ReportRow> rows;
  for (const core::ReportRow& row : report.rows()) {
    if (!row.evaluator.empty() && row.evaluator != excluded) {
      rows.push_back(row);
    }
  }
  return rows;
}

void ExpectSameRows(const std::vector<core::ReportRow>& a,
                    const std::vector<core::ReportRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mechanism, b[i].mechanism);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].evaluator, b[i].evaluator);
    EXPECT_EQ(a[i].metric, b[i].metric);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].value),
              std::bit_cast<std::uint64_t>(b[i].value))
        << a[i].mechanism << " " << a[i].metric;
    EXPECT_EQ(a[i].status, b[i].status);
    EXPECT_EQ(a[i].error, b[i].error);
  }
}

TEST(OriginalPrepareFailure, FailsOwnLiveCellsOnlyAndPreparesOncePerSeed) {
  DisarmGuard guard;
  const std::string injected =
      std::string("injected fault (engine.mechanism.run): ") + kChain;
  std::string serial_csv;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    fault::Arm(fault::points::kEngineMechanismRun, FailAll(kChain));
    const Outcome degraded = RunGrid(Spec(threads, true));
    fault::DisarmAll();
    const Outcome healthy = RunGrid(Spec(threads, false));
    EXPECT_TRUE(healthy.report.AllOk());

    // One preparation per seed, each captured once and rethrown in every
    // live cell of its seed: identity and geo_ind rows, 2 seeds.
    EXPECT_EQ(degraded.prepare_calls, 2);
    EXPECT_EQ(degraded.stats.original_preparations, 6u);
    EXPECT_EQ(degraded.stats.failed_nodes, 2u + 4u);
    EXPECT_EQ(degraded.stats.skipped_nodes, 2u * 3u);

    std::size_t throwing_failed = 0;
    for (const core::ReportRow& row : degraded.report.rows()) {
      if (row.mechanism == kChain) {
        // Under the failed terminal: the mechanism row and every cell,
        // the throwing evaluator's included, carry the terminal's cause.
        if (row.evaluator.empty()) {
          EXPECT_EQ(row.status, core::RowStatus::kFailed);
          EXPECT_EQ(row.error, injected);
        } else {
          EXPECT_EQ(row.status, core::RowStatus::kSkipped) << row.evaluator;
          EXPECT_EQ(row.error, "dependency failed: " + injected);
        }
        EXPECT_EQ(row.metric, "");
      } else if (row.evaluator == "throwing_original") {
        ++throwing_failed;
        EXPECT_EQ(row.status, core::RowStatus::kFailed);
        EXPECT_EQ(row.metric, "");
        EXPECT_EQ(row.error, "original side unavailable (seed " +
                                 std::to_string(row.seed) + ")");
      } else {
        EXPECT_EQ(row.status, core::RowStatus::kOk) << row.evaluator;
      }
    }
    EXPECT_EQ(throwing_failed, 4u);

    // Every other evaluator's rows off the failed chain are the healthy
    // run's, bit for bit.
    std::vector<core::ReportRow> expected;
    for (const core::ReportRow& row :
         RowsExcept(healthy.report, "throwing_original")) {
      if (row.mechanism != kChain) expected.push_back(row);
    }
    std::vector<core::ReportRow> actual;
    for (const core::ReportRow& row :
         RowsExcept(degraded.report, "throwing_original")) {
      if (row.mechanism != kChain) actual.push_back(row);
    }
    ExpectSameRows(actual, expected);

    if (serial_csv.empty()) serial_csv = degraded.report.ToCsv();
    EXPECT_EQ(degraded.report.ToCsv(), serial_csv);
  }
}

TEST(OriginalPrepareFailure, InjectedEvaluatorFaultFailsTheSameCells) {
  DisarmGuard guard;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // The fault point fires before the original half is reached: the
    // throwing evaluator's cells fail with the injected text and its
    // original side is never prepared.
    fault::Arm(fault::points::kEngineEvaluatorRun,
               FailAll("throwing_original"));
    const Outcome own = RunGrid(Spec(threads, true));
    fault::DisarmAll();
    EXPECT_EQ(own.prepare_calls, 0);
    EXPECT_EQ(own.stats.original_preparations, 4u);
    for (const core::ReportRow& row : own.report.rows()) {
      if (row.evaluator != "throwing_original") {
        EXPECT_EQ(row.status, core::RowStatus::kOk);
        continue;
      }
      EXPECT_EQ(row.status, core::RowStatus::kFailed);
      EXPECT_EQ(row.error,
                "injected fault (engine.evaluator.run): throwing_original");
    }

    // Armed on a sibling: its cells fail with the injected text, the
    // throwing evaluator's with its own, the third evaluator is untouched.
    fault::Arm(fault::points::kEngineEvaluatorRun, FailAll(kCoverage));
    const Outcome sibling = RunGrid(Spec(threads, true));
    fault::DisarmAll();
    EXPECT_EQ(sibling.prepare_calls, 2);
    EXPECT_EQ(sibling.stats.failed_nodes, 12u);
    for (const core::ReportRow& row : sibling.report.rows()) {
      if (row.evaluator == kCoverage) {
        EXPECT_EQ(row.status, core::RowStatus::kFailed);
        EXPECT_EQ(row.error, std::string("injected fault "
                                         "(engine.evaluator.run): ") +
                                 kCoverage);
      } else if (row.evaluator == "throwing_original") {
        EXPECT_EQ(row.status, core::RowStatus::kFailed);
        EXPECT_EQ(row.error.rfind("original side unavailable", 0), 0u);
      } else {
        EXPECT_EQ(row.status, core::RowStatus::kOk);
      }
    }
  }
}

TEST(OriginalPrepareFailure, NoLiveCellMeansNoPreparation) {
  DisarmGuard guard;
  for (const std::size_t threads : {1u, 4u}) {
    // Every first stage fails, so no evaluator cell ever runs.
    fault::Arm(fault::points::kEngineMechanismRun, FailAll("*"));
    const Outcome outcome = RunGrid(Spec(threads, true));
    fault::DisarmAll();
    EXPECT_EQ(outcome.prepare_calls, 0);
    EXPECT_EQ(outcome.stats.original_preparations, 0u);
    EXPECT_EQ(outcome.stats.ToString().find("original_preparations"),
              std::string::npos);
    for (const core::ReportRow& row : outcome.report.rows()) {
      EXPECT_NE(row.status, core::RowStatus::kOk);
    }
  }
}

}  // namespace
}  // namespace mobipriv
