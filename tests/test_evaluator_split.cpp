// Evaluator::PrepareOriginal / Compare against the one-call Evaluate: for
// every registered evaluator, one original-side state reused across
// several published sets must score each of them bit for bit as Evaluate
// does, at any thread count, with or without NaN fixes in the original.
#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "attacks/poi_extraction.h"
#include "mechanisms/registry.h"
#include "model/event_store.h"
#include "synth/population.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mobipriv {
namespace {

constexpr std::uint64_t kSeed = 5;

/// A 20-agent synthetic day; with `nan_fixes`, every 23rd fix of every
/// third trace loses its coordinates.
model::Dataset Original(bool nan_fixes) {
  synth::PopulationConfig config;
  config.agents = 20;
  config.days = 1;
  config.seed = 41;
  model::Dataset dataset = synth::SyntheticWorld(config).dataset();
  if (nan_fixes) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<model::Trace>& traces = dataset.mutable_traces();
    for (std::size_t t = 0; t < traces.size(); t += 3) {
      std::vector<model::Event>& events = traces[t].mutable_events();
      for (std::size_t i = 0; i < events.size(); i += 23) {
        events[i].position = {nan, nan};
      }
    }
  }
  return dataset;
}

/// Published sets scored against one original: a suppressing chain that
/// stays inside the original's box, two noise mechanisms that leave it,
/// and the empty dataset.
struct Published {
  std::string name;
  model::EventStore store;
};

std::vector<Published> PublishedSets(const model::DatasetView& original) {
  std::vector<Published> sets;
  for (const std::string spec :
       {"speed_smoothing|mixzone", "gaussian", "geo_ind[eps=0.1]"}) {
    util::Rng rng(17);
    sets.push_back(
        {spec, mech::CreateMechanism(spec)->ApplyToStore(original, rng)});
  }
  sets.push_back({"empty", model::EventStore::FromDataset(model::Dataset())});
  return sets;
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

bool SameCentre(const geo::GeoBoundingBox& a, const geo::GeoBoundingBox& b) {
  return Bits(a.Center().lat) == Bits(b.Center().lat) &&
         Bits(a.Center().lng) == Bits(b.Center().lng);
}

TEST(EvaluatorSplit, ReusedStateMatchesEvaluateForEveryEvaluator) {
  for (const bool nan_fixes : {false, true}) {
    const model::Dataset original = Original(nan_fixes);
    const model::DatasetView view = model::DatasetView::Of(original);
    const geo::LocalProjection frame = attacks::DatasetProjection(view);
    const std::vector<Published> published = PublishedSets(view);
    for (const std::size_t threads : {1u, 4u}) {
      const util::ScopedParallelism scope(threads);
      for (const std::string& base : core::RegisteredEvaluatorBases()) {
        const auto evaluator = core::CreateEvaluator(base);
        const std::shared_ptr<const core::OriginalState> state =
            evaluator->PrepareOriginal(view, frame, kSeed);
        for (const Published& set : published) {
          SCOPED_TRACE(base + " on " + set.name + " nan=" +
                       std::to_string(nan_fixes) +
                       " threads=" + std::to_string(threads));
          const core::EvalInput input{view, set.store.View(), frame, kSeed};
          const std::vector<core::MetricValue> expected =
              evaluator->Evaluate(input);
          const std::vector<core::MetricValue> split =
              evaluator->Compare(input, state.get());
          ASSERT_EQ(split.size(), expected.size());
          ASSERT_FALSE(expected.empty());
          for (std::size_t m = 0; m < expected.size(); ++m) {
            EXPECT_EQ(split[m].metric, expected[m].metric);
            EXPECT_EQ(Bits(split[m].value), Bits(expected[m].value))
                << expected[m].metric << ": " << split[m].value << " vs "
                << expected[m].value;
          }
        }
      }
    }
  }
}

TEST(EvaluatorSplit, PublishedSetsExerciseBothFrameBranches) {
  // coverage and heatmap reuse the original's raster only when the union
  // box keeps the original box's centre; the sets above must hit both the
  // reuse and the rebuild branch.
  const model::Dataset original = Original(false);
  const model::DatasetView view = model::DatasetView::Of(original);
  const geo::GeoBoundingBox own = view.BoundingBox();
  for (const Published& set : PublishedSets(view)) {
    geo::GeoBoundingBox joined = own;
    joined.Extend(set.store.View().BoundingBox());
    const bool leaves_box = set.name == "gaussian" ||
                            set.name == "geo_ind[eps=0.1]";
    EXPECT_EQ(SameCentre(joined, own), !leaves_box) << set.name;
  }
}

TEST(EvaluatorSplit, CompareRejectsAnotherEvaluatorsState) {
  const model::Dataset original = Original(false);
  const model::DatasetView view = model::DatasetView::Of(original);
  const geo::LocalProjection frame = attacks::DatasetProjection(view);
  const auto coverage = core::CreateEvaluator("coverage");
  const auto trajectory = core::CreateEvaluator("trajectory_stats");
  const auto foreign = trajectory->PrepareOriginal(view, frame, kSeed);
  const core::EvalInput input{view, view, frame, kSeed};
  EXPECT_THROW((void)coverage->Compare(input, foreign.get()),
               std::invalid_argument);
  EXPECT_THROW((void)coverage->Compare(input, nullptr),
               std::invalid_argument);
  // An evaluator without original-side work returns no state and takes
  // none.
  const auto distortion = core::CreateEvaluator("spatial_distortion");
  EXPECT_EQ(distortion->PrepareOriginal(view, frame, kSeed), nullptr);
  EXPECT_FALSE(distortion->Compare(input, nullptr).empty());
}

}  // namespace
}  // namespace mobipriv
