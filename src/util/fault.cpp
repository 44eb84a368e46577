#include "util/fault.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/rng.h"
#include "util/spec.h"

namespace mobipriv::util::fault {

namespace detail {
std::atomic<int> g_armed_points{0};
}  // namespace detail

namespace {

struct ArmedPoint {
  Config config;
  std::uint64_t trips = 0;  // failures / short-ios / delays fired so far
  std::uint64_t seen = 0;   // kKill: matching evaluations counted so far
  Rng rng{1};               // kFailProbability draw stream
};

/// key_filter match: exact, or prefix when the filter ends in '*'.
bool KeyMatches(std::string_view filter, std::string_view key) {
  if (filter.empty()) return true;
  if (filter.back() == '*') {
    return key.substr(0, filter.size() - 1) == filter.substr(0, filter.size() - 1);
  }
  return key == filter;
}

// Registry state behind one mutex. Only touched when a point is armed
// (Enabled() short-circuits the hot path), so contention is a test-only
// concern.
struct Registry {
  std::mutex mutex;
  std::map<std::string, ArmedPoint, std::less<>> points;
};

Registry& TheRegistry() {
  static Registry registry;
  return registry;
}

// MOBIPRIV_FAULTS is parsed once, before main touches any I/O path.
// A malformed value exits loudly (one error line, status 2) rather than
// silently injecting nothing; it never escapes as an abort.
const std::size_t g_env_armed = [] {
  const char* env = std::getenv("MOBIPRIV_FAULTS");
  if (env == nullptr || *env == '\0') return std::size_t{0};
  try {
    return ArmFromSpec(env);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}();

Config ParseOneSpec(std::string_view point, std::string_view spec) {
  const auto bad = [&](const std::string& what) -> Config {
    throw std::invalid_argument("MOBIPRIV_FAULTS: point '" +
                                std::string(point) + "': " + what);
  };
  Config config;
  // Comma-separated options after the mode ("kill:9@1,key:gaussian#0").
  // Only `key:` exists today; the split keeps the grammar open. Commas
  // inside "[...]" belong to the key, so any mechanism name can be one.
  const std::vector<std::string> pieces = SplitTopLevel(spec, ',');
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    if (!pieces[i].starts_with("key:")) {
      bad("unknown option '" + pieces[i] + "'");
    }
    config.key_filter = pieces[i].substr(4);
  }
  const std::string_view body = pieces.front();
  if (body == "once") return config;  // kFailTimes, times = 1
  const std::size_t colon = body.find(':');
  const std::string_view mode = body.substr(0, colon);
  const std::string_view arg =
      colon == std::string_view::npos ? std::string_view{}
                                      : body.substr(colon + 1);
  const auto require_arg = [&] {
    if (arg.empty()) bad("mode '" + std::string(mode) + "' needs an argument");
  };
  try {
    if (mode == "times") {
      require_arg();
      config.mode = Mode::kFailTimes;
      config.times = std::stoull(std::string(arg));
    } else if (mode == "p") {
      require_arg();
      config.mode = Mode::kFailProbability;
      std::string text(arg);
      const std::size_t at = text.find('@');
      if (at != std::string::npos) {
        config.seed = std::stoull(text.substr(at + 1));
        text.resize(at);
      }
      config.probability = std::stod(text);
      if (config.probability < 0.0 || config.probability > 1.0) {
        bad("probability out of [0, 1]");
      }
    } else if (mode == "short") {
      require_arg();
      config.mode = Mode::kShortIo;
      config.bytes = static_cast<std::size_t>(std::stoull(std::string(arg)));
    } else if (mode == "delay") {
      require_arg();
      config.mode = Mode::kDelay;
      config.delay_ms = std::stoull(std::string(arg));
    } else if (mode == "kill") {
      require_arg();
      config.mode = Mode::kKill;
      std::string text(arg);
      const std::size_t at = text.find('@');
      if (at != std::string::npos) {
        config.times = std::stoull(text.substr(at + 1));
        text.resize(at);
      }
      config.kill_signal = static_cast<int>(std::stoul(text));
      if (config.times == 0) bad("kill ordinal must be >= 1");
    } else {
      bad("unknown mode '" + std::string(mode) + "'");
    }
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception&) {
    bad("malformed numeric argument '" + std::string(arg) + "'");
  }
  return config;
}

}  // namespace

void Arm(std::string_view point, const Config& config) {
  Registry& registry = TheRegistry();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  ArmedPoint armed;
  armed.config = config;
  armed.rng = Rng(config.seed);
  const auto [it, inserted] =
      registry.points.insert_or_assign(std::string(point), std::move(armed));
  (void)it;
  if (inserted) {
    detail::g_armed_points.fetch_add(1, std::memory_order_relaxed);
  }
}

void Disarm(std::string_view point) {
  Registry& registry = TheRegistry();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  const auto it = registry.points.find(point);
  if (it == registry.points.end()) return;
  registry.points.erase(it);
  detail::g_armed_points.fetch_sub(1, std::memory_order_relaxed);
}

void DisarmAll() {
  Registry& registry = TheRegistry();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  detail::g_armed_points.fetch_sub(static_cast<int>(registry.points.size()),
                                   std::memory_order_relaxed);
  registry.points.clear();
}

std::size_t ArmFromSpec(std::string_view spec) {
  std::size_t armed = 0;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument(
          "MOBIPRIV_FAULTS: entry '" + std::string(entry) +
          "' is not of the form point=spec");
    }
    const std::string_view point = entry.substr(0, eq);
    Arm(point, ParseOneSpec(point, entry.substr(eq + 1)));
    ++armed;
  }
  return armed;
}

Decision Evaluate(std::string_view point, std::string_view key) noexcept {
  Decision decision;
  if (!Enabled()) return decision;
  std::uint64_t delay_ms = 0;
  int kill_signal = 0;
  {
    Registry& registry = TheRegistry();
    const std::lock_guard<std::mutex> lock(registry.mutex);
    const auto it = registry.points.find(point);
    if (it == registry.points.end()) return decision;
    ArmedPoint& armed = it->second;
    const Config& config = armed.config;
    if (!KeyMatches(config.key_filter, key)) {
      return decision;
    }
    switch (config.mode) {
      case Mode::kFailTimes:
        if (armed.trips < config.times) {
          ++armed.trips;
          decision.fail = true;
        }
        break;
      case Mode::kFailProbability:
        if (armed.rng.NextDouble() < config.probability) {
          ++armed.trips;
          decision.fail = true;
        }
        break;
      case Mode::kShortIo:
        if (armed.trips < config.times) {
          ++armed.trips;
          decision.fail = true;
          decision.io_cap = config.bytes;
        }
        break;
      case Mode::kDelay:
        ++armed.trips;
        delay_ms = config.delay_ms;
        break;
      case Mode::kKill:
        if (++armed.seen == config.times) {
          ++armed.trips;
          kill_signal = config.kill_signal;
        }
        break;
    }
  }
  // Sleep / raise outside the registry lock so a delay fault cannot
  // serialize unrelated points (and a catchable signal's handler cannot
  // deadlock on the registry).
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  if (kill_signal != 0) {
    std::raise(kill_signal);
  }
  return decision;
}

std::uint64_t TripCount(std::string_view point) noexcept {
  Registry& registry = TheRegistry();
  const std::lock_guard<std::mutex> lock(registry.mutex);
  const auto it = registry.points.find(point);
  return it == registry.points.end() ? 0 : it->second.trips;
}

std::span<const std::string_view> AllPoints() noexcept {
  static constexpr std::string_view kAll[] = {
      points::kColumnarWriteOpen,  points::kColumnarWriteShort,
      points::kColumnarWriteCommit, points::kColumnarReadOpen,
      points::kColumnarReadShort,  points::kColumnarMapOpen,
      points::kManifestWriteOpen,  points::kManifestWriteShort,
      points::kManifestWriteCommit, points::kManifestReadOpen,
      points::kShardOpenRead,      points::kCacheReadLoad,
      points::kCacheWriteSpill,    points::kCsvReadOpen,
      points::kCsvReadShort,       points::kEngineMechanismRun,
      points::kEngineEvaluatorRun, points::kWorkerApply,
      points::kWorkerResultWrite,  points::kSupervisorResultValidate,
  };
  return kAll;
}

}  // namespace mobipriv::util::fault
