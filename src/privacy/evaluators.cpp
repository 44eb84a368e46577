#include "privacy/evaluators.h"

#include "model/columnar_file.h"
#include "privacy/uncertainty.h"
#include "util/rng.h"
#include "util/string_utils.h"

namespace mobipriv::privacy {
namespace {

double TotalBits(const mech::MixZoneReport& report) {
  double bits = 0.0;
  for (const std::size_t size : report.anonymity_set_sizes) {
    bits += AnonymitySetEntropyBits(size);
  }
  return bits;
}

struct UncertaintyState final : core::OriginalState {
  double potential_bits = 0.0;
  std::size_t potential_occurrences = 0;
};

}  // namespace

CertificationEvaluator::CertificationEvaluator(CertificationConfig config)
    : config_(config) {}

std::string CertificationEvaluator::Name() const {
  const CertificationConfig defaults;
  std::string params;
  if (config_.max_spacing_deviation != defaults.max_spacing_deviation) {
    params += ",spacing=" + util::FormatDouble(config_.max_spacing_deviation);
  }
  if (config_.max_interval_deviation_s !=
      defaults.max_interval_deviation_s) {
    params += ",interval=" +
              util::FormatDouble(config_.max_interval_deviation_s, 1) + "s";
  }
  if (config_.min_events_checked != defaults.min_events_checked) {
    params += ",min_events=" + std::to_string(config_.min_events_checked);
  }
  if (params.empty()) return "certification";
  return "certification[" + params.substr(1) + "]";
}

std::vector<core::MetricValue> CertificationEvaluator::Compare(
    const core::EvalInput& input, const core::OriginalState* /*state*/) const {
  // The certifier's kernels consume an AoS dataset; materializing the
  // published view is the documented adapter cost of this evaluator (keep
  // it out of grids that pin zero-materialize counters).
  const model::Dataset published = input.published.Materialize();
  const CertificationReport report =
      CertifyConstantSpeed(published, config_);
  const double checked = static_cast<double>(report.traces_checked);
  return {
      {"cert_certified", report.Certified() ? 1.0 : 0.0},
      {"cert_violations", static_cast<double>(report.violations.size())},
      {"cert_violation_ratio",
       checked == 0.0
           ? 0.0
           : static_cast<double>(report.violations.size()) / checked},
  };
}

UncertaintyEvaluator::UncertaintyEvaluator(mech::MixZoneConfig config)
    : config_(config) {}

std::string UncertaintyEvaluator::Name() const {
  const mech::MixZoneConfig defaults;
  std::string params;
  if (config_.zone_radius_m != defaults.zone_radius_m) {
    params += ",r=" + util::FormatDouble(config_.zone_radius_m, 0) + "m";
  }
  if (config_.time_window_s != defaults.time_window_s) {
    params += ",w=" + std::to_string(config_.time_window_s) + "s";
  }
  if (config_.min_users != defaults.min_users) {
    params += ",min_users=" + std::to_string(config_.min_users);
  }
  if (params.empty()) return "uncertainty";
  return "uncertainty[" + params.substr(1) + "]";
}

// The detection pass is deterministic; the rng only feeds the identity
// permutations of the (discarded) mixed output, so any stream works —
// each side derives one from the cell seed and this evaluator's name (lane
// 0 original, lane 1 published) to keep the call reproducible and
// independent of sibling evaluators.
std::shared_ptr<const core::OriginalState>
UncertaintyEvaluator::PrepareOriginal(const model::DatasetView& original,
                                      const geo::LocalProjection& /*frame*/,
                                      std::uint64_t seed) const {
  const std::string name = Name();
  mech::MixZoneReport potential;
  util::Rng rng(util::DeriveStreamSeed(
      seed, model::Fnv1a64(name.data(), name.size()), 0));
  (void)mech::MixZone(config_).ApplyToStoreWithReport(original, rng,
                                                      potential);
  auto state = std::make_shared<UncertaintyState>();
  state->potential_bits = TotalBits(potential);
  state->potential_occurrences = potential.occurrences;
  return state;
}

std::vector<core::MetricValue> UncertaintyEvaluator::Compare(
    const core::EvalInput& input, const core::OriginalState* state) const {
  const auto& prepared = core::StateAs<UncertaintyState>(state);
  const std::string name = Name();
  mech::MixZoneReport residual;
  util::Rng rng(util::DeriveStreamSeed(
      input.seed, model::Fnv1a64(name.data(), name.size()), 1));
  (void)mech::MixZone(config_).ApplyToStoreWithReport(input.published, rng,
                                                      residual);
  return {
      {"mix_potential_bits", prepared.potential_bits},
      {"mix_potential_occurrences",
       static_cast<double>(prepared.potential_occurrences)},
      {"mix_residual_bits", TotalBits(residual)},
      {"mix_residual_occurrences",
       static_cast<double>(residual.occurrences)},
  };
}

}  // namespace mobipriv::privacy
