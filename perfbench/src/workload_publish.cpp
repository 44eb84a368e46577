// publish_paper: the paper's two-stage pipeline as a data publisher runs
// it (the anonymize_csv unsharded publish path): bind a raw CSV, apply
// ours[speed+mix], write the published dataset as `.mpc`.
#include <filesystem>
#include <optional>

#include "core/scenario.h"
#include "mechanisms/mixzone.h"
#include "mechanisms/registry.h"
#include "model/columnar_file.h"
#include "model/io.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload_common.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = mobipriv::core;
namespace mech = mobipriv::mech;
namespace model = mobipriv::model;
namespace util = mobipriv::util;

constexpr std::size_t kAgents = 2000;
constexpr std::uint64_t kMechanismSeed = 1;
// The composite mechanism and its two stages, with identical settings:
// eps=100m spacing, r=150m zones, w=600s window.
constexpr const char* kPipeline = "ours[speed+mix,eps=100m,r=150m,w=600s]";
constexpr const char* kSpeedStage = "speed_smoothing[eps=100m]";
constexpr const char* kMixStage = "mixzone[r=150m,w=600s]";

/// The publish stream anonymize_csv uses: derived from the seed and the
/// pipeline's canonical name.
util::Rng PipelineRng() {
  const std::string name = mech::CreateMechanism(kPipeline)->Name();
  return util::Rng(util::DeriveStreamSeed(
      kMechanismSeed, model::Fnv1a64(name.data(), name.size()), 0));
}

class PublishPaper final : public Workload {
 public:
  explicit PublishPaper(const WorkloadOptions& options)
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
      model::WriteCsvFile(source.view().Materialize(), CsvPath(k));
    }
    std::filesystem::remove_all(world);
    input_events_.push_back(static_cast<double>(stats.events));
    csv_bytes_.push_back(
        static_cast<double>(std::filesystem::file_size(CsvPath(k))));
    return generate_s;
  }

  void ComputeReference() override {
    // Independent configuration: the composite mechanism through its
    // SoA-native entry point on one thread, written by the columnar writer
    // instead of the AoS SaveDataset path.
    const util::ScopedParallelism serial(1);
    const std::string path = dir_ + "/reference.mpc";
    reference_.clear();
    for (std::size_t k = 0; k < worlds(); ++k) {
      const core::BoundSource source = core::BoundSource::Bind(
          core::DatasetSourceSpec::CsvFile(CsvPath(k)));
      util::Rng rng = PipelineRng();
      model::WriteColumnar(
          mech::CreateMechanism(kPipeline)->ApplyToStore(source.view(), rng),
          path);
      reference_.push_back(ReadFileBytes(path));
    }
    std::filesystem::remove(path);
  }

  void Prepare() override { std::filesystem::remove(OutPath()); }

  RunOutcome Run() override { return Publish(nullptr, nullptr); }

  RunOutcome Replay(Tracer& tracer, Metrics& layer) override {
    return Publish(&tracer, &layer);
  }

  void Probe(const RunOutcome&, Tracer& tracer, Metrics& layer) override {
    // Detection alone on the same smoothed view, after the blocking path.
    const util::ScopedParallelism threads(kThreads);
    const core::BoundSource source =
        core::BoundSource::Bind(core::DatasetSourceSpec::CsvFile(CsvPath()));
    util::Rng rng = PipelineRng();
    const model::Dataset smoothed =
        mech::CreateMechanism(kSpeedStage)->ApplyView(source.view(), rng);
    const auto mix = mech::CreateMechanism(kMixStage);
    const double start = NowSeconds();
    {
      const ScopedSpan span(&tracer, "mixzone.detect", layer::kMechanisms);
      (void)dynamic_cast<const mech::MixZone&>(*mix).CountEncounters(
          model::DatasetView::Of(smoothed));
    }
    layer["mixzone.detect_ms"] = (NowSeconds() - start) * 1e3;
  }

 private:
  std::string CsvPath(std::size_t k) const {
    return dir_ + "/raw" + std::to_string(k) + ".csv";
  }
  std::string CsvPath() const { return CsvPath(current()); }
  std::string OutPath() const { return dir_ + "/published.mpc"; }

  /// Anonymizer::ApplyView's stage sequence (speed smoothing, then mix
  /// zones drawing from the same stream), called stage by stage so the
  /// mix-zone report is visible; the reference checks it against the
  /// composite mechanism on every run.
  RunOutcome Publish(Tracer* tracer, Metrics* layer) {
    const util::ScopedParallelism threads(kThreads);
    RunOutcome outcome;
    outcome.events = input_events_[current()];
    mech::MixZoneReport report;
    std::size_t smoothed_events = 0;
    {
      std::optional<core::BoundSource> source;
      {
        const ScopedSpan span(tracer, "model.bind", layer::kModel);
        source.emplace(core::BoundSource::Bind(
            core::DatasetSourceSpec::CsvFile(CsvPath())));
      }
      util::Rng rng = PipelineRng();
      const auto speed = mech::CreateMechanism(kSpeedStage);
      const auto mix = mech::CreateMechanism(kMixStage);
      model::Dataset smoothed;
      {
        const ScopedSpan span(tracer, "speed", layer::kMechanisms);
        smoothed = speed->ApplyView(source->view(), rng);
      }
      smoothed_events = smoothed.EventCount();
      model::Dataset published;
      {
        const ScopedSpan span(tracer, "mixzone", layer::kMechanisms);
        published = dynamic_cast<const mech::MixZone&>(*mix)
                        .ApplyViewWithReport(model::DatasetView::Of(smoothed),
                                             rng, report);
      }
      {
        const ScopedSpan span(tracer, "model.write", layer::kModel);
        model::SaveDataset(published, OutPath());
      }
    }
    outcome.output = ReadFileBytes(OutPath());
    CheckOutput(current(), "published .mpc", outcome.output, outcome);
    if (report.encounters == 0) {
      outcome.failures.push_back("path guard: no mix-zone encounters");
    }
    Metrics& counters = outcome.counters;
    counters["speed.events_out"] = static_cast<double>(smoothed_events);
    counters["mixzone.encounters"] = static_cast<double>(report.encounters);
    counters["mixzone.zones"] = static_cast<double>(report.zones.size());
    counters["mixzone.occurrences"] = static_cast<double>(report.occurrences);
    counters["mixzone.suppressed_events"] =
        static_cast<double>(report.suppressed_events);
    counters["mixzone.pairs_per_event"] =
        report.total_events == 0
            ? 0.0
            : static_cast<double>(report.encounters) /
                  static_cast<double>(report.total_events);
    if (tracer != nullptr) {
      AddSpanTotals(*tracer, tracer->run(), *layer);
      (*layer)["model.csv_mb_per_s"] =
          csv_bytes_[current()] / 1e6 / ((*layer)["model.bind_ms"] / 1e3);
    }
    return outcome;
  }

  std::size_t agents_;
  std::vector<double> input_events_;  // per world
  std::vector<double> csv_bytes_;     // per world
};

}  // namespace

std::unique_ptr<Workload> MakePublishPaper(const WorkloadOptions& options) {
  return std::make_unique<PublishPaper>(options);
}

}  // namespace perfbench
