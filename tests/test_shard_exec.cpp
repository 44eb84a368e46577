// Fault-tolerant multi-process shard execution (core/shard_exec.h): the
// merged Report must be byte-identical to the in-process run at ANY
// worker count — including runs where workers are SIGKILLed mid-stage
// and recovered by retry — and retry exhaustion must degrade exactly the
// affected stage's rows with machine-independent error text. Worker-side
// fault points are armed through the MOBIPRIV_FAULTS environment (the
// supervisor passes its environment to every worker it spawns); setting
// the variable mid-test does NOT arm this process, only the workers.
#include "core/shard_exec.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/scenario.h"
#include "core/worker_protocol.h"
#include "model/sharded_dataset.h"
#include "synth/population.h"
#include "util/fault.h"

namespace mobipriv {
namespace {

namespace fs = std::filesystem;
namespace fault = util::fault;

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

/// Shards World() into `shards` under a fresh pid-unique directory.
std::string MakeShardDir(const std::string& name, std::size_t shards) {
  const fs::path dir = fs::temp_directory_path() /
                       (name + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  model::ShardedDataset::Partition(World(), shards).SaveShards(dir.string());
  return dir.string();
}

/// A grid the multi-process path accepts: single-stage per-trace
/// mechanisms, foldable evaluators. Canonical stage names (the fault
/// keys) are "gaussian[sigma=100m]", "geo_ind[eps=0.0100]",
/// "cloaking[cell=250m]".
core::ScenarioSpec FoldableSpec() {
  core::ScenarioSpec spec;
  spec.mechanisms = {"gaussian", "geo_ind[eps=0.01]", "cloaking"};
  spec.evaluators = {"trajectory_stats", "range_queries[n=32]"};
  spec.seeds = {5, 9};
  return spec;
}

/// Sets MOBIPRIV_FAULTS for the scope (arms points in every worker the
/// supervisor spawns while it lives), restoring the previous value.
class ScopedWorkerFaults {
 public:
  explicit ScopedWorkerFaults(const std::string& spec) {
    const char* old = std::getenv("MOBIPRIV_FAULTS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv("MOBIPRIV_FAULTS", spec.c_str(), 1);
  }
  ~ScopedWorkerFaults() {
    if (had_) {
      ::setenv("MOBIPRIV_FAULTS", saved_.c_str(), 1);
    } else {
      ::unsetenv("MOBIPRIV_FAULTS");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

/// Skips the test when the worker binary is not discoverable (platforms
/// without /proc/self/exe or builds without the target).
#define REQUIRE_WORKER_BINARY()                                        \
  do {                                                                 \
    if (core::DefaultWorkerBinary().empty()) {                         \
      GTEST_SKIP() << "mobipriv_worker binary not found next to the "  \
                      "test executable";                               \
    }                                                                  \
  } while (0)

class ShardExec : public ::testing::Test {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

TEST_F(ShardExec, PartitionShardsIsContiguousAndBalanced) {
  // 10 shards over 3 workers: sizes differ by at most one, earlier
  // subsets take the remainder, indices stay contiguous ascending.
  const auto parts = core::PartitionShards(10, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 4u);
  EXPECT_EQ(parts[1].size(), 3u);
  EXPECT_EQ(parts[2].size(), 3u);
  std::size_t next = 0;
  for (const auto& part : parts) {
    for (const std::size_t s : part) EXPECT_EQ(s, next++);
  }
  EXPECT_EQ(next, 10u);
  // More workers than shards: one subset per shard, never an empty one.
  EXPECT_EQ(core::PartitionShards(2, 8).size(), 2u);
  // workers = 0 clamps to 1.
  EXPECT_EQ(core::PartitionShards(5, 0).size(), 1u);
}

TEST_F(ShardExec, MergedReportByteIdenticalAcrossWorkerCounts) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_identical", 4);

  core::ScenarioSpec ref_spec = FoldableSpec();
  ref_spec.source = core::DatasetSourceSpec::ShardDir(dir);
  core::ScenarioEngine ref_engine(std::move(ref_spec));
  const std::string reference = ref_engine.Run().ToCsv();
  EXPECT_EQ(ref_engine.stats().workers_spawned, 0u);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    core::ScenarioSpec spec = FoldableSpec();
    spec.source = core::DatasetSourceSpec::ShardDir(dir);
    spec.workers = workers;
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    EXPECT_TRUE(report.AllOk()) << "workers=" << workers;
    EXPECT_EQ(report.ToCsv(), reference) << "workers=" << workers;
    EXPECT_EQ(engine.stats().streamed_shards, 4u) << "workers=" << workers;
    EXPECT_GE(engine.stats().workers_spawned, 1u) << "workers=" << workers;
    EXPECT_EQ(engine.stats().worker_failures, 0u) << "workers=" << workers;
  }
  fs::remove_all(dir);
}

TEST_F(ShardExec, WorkerCrashRecoversByRestart) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_crash", 4);

  core::ScenarioSpec ref_spec = FoldableSpec();
  ref_spec.source = core::DatasetSourceSpec::ShardDir(dir);
  core::ScenarioEngine ref_engine(std::move(ref_spec));
  const std::string reference = ref_engine.Run().ToCsv();

  // SIGKILL every worker on its first attempt (#0) at the gaussian
  // stage; the retry (#1) passes. The run must recover to the exact
  // in-process report — crash history is invisible in the output.
  ScopedWorkerFaults faults(
      "worker.apply=kill:9@1,key:gaussian[sigma=100m]#0");
  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.workers = 2;
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_TRUE(report.AllOk());
  EXPECT_EQ(report.ToCsv(), reference);
  EXPECT_GE(engine.stats().worker_restarts, 1u);
  EXPECT_EQ(engine.stats().worker_failures, 0u);
  fs::remove_all(dir);
}

TEST_F(ShardExec, RetryExhaustionDegradesOnlyTheKilledStage) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_exhaust", 4);

  // Kill EVERY attempt of every gaussian request: retries exhaust and
  // both gaussian stage nodes (seeds 5 and 9) degrade to failed rows
  // with machine-independent text; their evaluator cells are skipped;
  // the other mechanisms complete normally — byte-identically at any
  // thread count.
  ScopedWorkerFaults faults("worker.apply=kill:9@1,key:gaussian*");
  std::string first_csv;
  for (const std::size_t threads : {1u, 4u}) {
    core::ScenarioSpec spec = FoldableSpec();
    spec.source = core::DatasetSourceSpec::ShardDir(dir);
    spec.workers = 2;
    spec.threads = threads;
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    EXPECT_FALSE(report.AllOk());
    const std::string csv = report.ToCsv();
    EXPECT_NE(
        csv.find("worker failed after 3 attempts: killed by signal 9"),
        std::string::npos);
    EXPECT_NE(csv.find("dependency failed: worker failed after 3 attempts"),
              std::string::npos);
    // Degradation is surgical: the non-gaussian mechanisms still have
    // only ok rows.
    for (const auto& row : report.rows()) {
      if (row.mechanism.find("gaussian") == std::string::npos) {
        EXPECT_EQ(row.error, "") << row.mechanism;
      }
    }
    EXPECT_GE(engine.stats().worker_failures, 1u) << "threads=" << threads;
    if (first_csv.empty()) {
      first_csv = csv;
    } else {
      EXPECT_EQ(csv, first_csv) << "degraded report not thread-invariant";
    }
  }
  fs::remove_all(dir);
}

TEST_F(ShardExec, TornResultIsRetriedAndRecovered) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_torn", 4);

  core::ScenarioSpec ref_spec = FoldableSpec();
  ref_spec.source = core::DatasetSourceSpec::ShardDir(dir);
  core::ScenarioEngine ref_engine(std::move(ref_spec));
  const std::string reference = ref_engine.Run().ToCsv();

  // Supervisor-side: the result-validation point is in THIS process, so
  // programmatic arming works. Fail one validation of a gaussian result
  // -> "result missing or torn" -> the request retries and recovers.
  fault::Config config;
  config.mode = fault::Mode::kFailTimes;
  config.times = 1;
  config.key_filter = "gaussian*";
  fault::Arm(fault::points::kSupervisorResultValidate, config);

  core::ScenarioSpec spec = FoldableSpec();
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.workers = 2;
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_EQ(fault::TripCount(fault::points::kSupervisorResultValidate), 1u);
  EXPECT_TRUE(report.AllOk());
  EXPECT_EQ(report.ToCsv(), reference);
  EXPECT_GE(engine.stats().worker_restarts, 1u);
  EXPECT_EQ(engine.stats().worker_failures, 0u);
  fs::remove_all(dir);
}

TEST_F(ShardExec, DeadlineExpiryDegradesWithWatchdogText) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_deadline", 2);

  // Workers sleep 1200 ms inside every cloaking apply; the 250 ms
  // request deadline preempts them. Retries hit the same sleep, so the
  // stage exhausts and degrades with the watchdog's error text (the
  // same wording the in-process watchdog uses).
  ScopedWorkerFaults faults("worker.apply=delay:1200,key:cloaking*");
  core::ScenarioSpec spec;
  spec.mechanisms = {"gaussian", "cloaking"};
  spec.evaluators = {"trajectory_stats"};
  spec.seeds = {5};
  spec.source = core::DatasetSourceSpec::ShardDir(dir);
  spec.workers = 2;
  spec.node_timeout_ms = 250.0;
  core::ScenarioEngine engine(std::move(spec));
  const core::Report report = engine.Run();
  EXPECT_FALSE(report.AllOk());
  const std::string csv = report.ToCsv();
  EXPECT_NE(csv.find("node exceeded node_timeout (250 ms watchdog)"),
            std::string::npos);
  for (const auto& row : report.rows()) {
    if (row.mechanism.find("gaussian") != std::string::npos) {
      EXPECT_EQ(row.error, "");
    }
  }
  EXPECT_GE(engine.stats().worker_failures, 1u);
  fs::remove_all(dir);
}

TEST_F(ShardExec, WorkerReportedIoErrorIsPermanentAndDeterministic) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_ioerr", 4);

  // A worker-REPORTED failure (the result write throws IoError inside
  // the worker) is permanent — no retry — and its error text is
  // forwarded verbatim into the report, identically at any worker
  // count: every worker process trips its `once` budget on the same
  // first matching request.
  ScopedWorkerFaults faults("worker.result.write=once,key:cloaking*");
  std::string first_csv;
  for (const std::size_t workers : {1u, 2u}) {
    core::ScenarioSpec spec = FoldableSpec();
    spec.source = core::DatasetSourceSpec::ShardDir(dir);
    spec.workers = workers;
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    EXPECT_FALSE(report.AllOk());
    const std::string csv = report.ToCsv();
    EXPECT_NE(
        csv.find("injected fault (worker.result.write): "
                 "cloaking[cell=250m]#0"),
        std::string::npos);
    EXPECT_EQ(engine.stats().worker_restarts, 0u) << "workers=" << workers;
    EXPECT_GE(engine.stats().worker_failures, 1u) << "workers=" << workers;
    if (first_csv.empty()) {
      first_csv = csv;
    } else {
      EXPECT_EQ(csv, first_csv) << "degraded report not worker-invariant";
    }
  }
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

TEST_F(ShardExec, FailedStageStrandsOnlyItsOwnRows) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_isolation", 4);
  core::ScenarioSpec healthy_spec = FoldableSpec();
  healthy_spec.source = core::DatasetSourceSpec::Borrowed(World());
  const core::Report healthy = core::RunScenario(std::move(healthy_spec));

  // Supervisor side: kEngineMechanismRun fails the middle row's stage on
  // both seeds before dispatch; the merge still feeds the other rows from
  // the original-side folds they share with it. The degraded report
  // equals the whole-view DAG's under the same fault.
  const auto arm = [] {
    fault::Config config;
    config.times = 2;
    config.key_filter = "geo_ind*";
    fault::Arm(fault::points::kEngineMechanismRun, config);
  };
  arm();
  core::ScenarioSpec dag_spec = FoldableSpec();
  dag_spec.source = core::DatasetSourceSpec::Borrowed(World());
  const std::string degraded_dag =
      core::RunScenario(std::move(dag_spec)).ToCsv();
  for (const std::size_t workers : {1u, 2u}) {
    arm();
    core::ScenarioSpec spec = FoldableSpec();
    spec.source = core::DatasetSourceSpec::ShardDir(dir);
    spec.workers = workers;
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    EXPECT_EQ(report.ToCsv(), degraded_dag) << "workers=" << workers;
    EXPECT_EQ(DegradedGroups(report),
              (std::set<Group>{{"geo_ind[eps=0.0100]", 5},
                               {"geo_ind[eps=0.0100]", 9}}));
    ExpectHealthyRowsMatch(report, healthy);
    EXPECT_GT(engine.stats().fold_ms, 0.0);
    EXPECT_LE(engine.stats().fold_ms, engine.stats().run_ms);
  }
  fault::DisarmAll();

  // Worker side: one cloaking stage's result write fails permanently, so
  // one (cloaking, seed) group degrades while the other cloaking seed and
  // every other row keep the healthy values.
  ScopedWorkerFaults faults("worker.result.write=once,key:cloaking*");
  for (const std::size_t workers : {1u, 2u}) {
    core::ScenarioSpec spec = FoldableSpec();
    spec.source = core::DatasetSourceSpec::ShardDir(dir);
    spec.workers = workers;
    core::ScenarioEngine engine(std::move(spec));
    const core::Report report = engine.Run();
    const std::set<Group> degraded = DegradedGroups(report);
    ASSERT_EQ(degraded.size(), 1u) << "workers=" << workers;
    EXPECT_EQ(degraded.begin()->first, "cloaking[cell=250m]");
    ExpectHealthyRowsMatch(report, healthy);
  }
  fs::remove_all(dir);
}

TEST_F(ShardExec, QuarantineErrorsNameTheShardFile) {
  const std::string dir = MakeShardDir("mobipriv_exec_quarantine", 3);
  // Truncate shard 1 to a torn prefix: quarantine must record WHICH
  // file failed (leading file name) and WHY (IoError detail).
  {
    std::ofstream out(fs::path(dir) / "shard-00001.mpc",
                      std::ios::binary | std::ios::trunc);
    out << "torn";
  }
  model::ShardedDataset::OpenReport report;
  const model::ShardedDataset partial = model::ShardedDataset::OpenShards(
      dir, model::ShardedDataset::OpenPolicy::kSkipCorrupt, &report);
  ASSERT_EQ(report.skipped_shards.size(), 1u);
  EXPECT_EQ(report.skipped_shards[0], 1u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].rfind("shard-00001.mpc: ", 0), 0u)
      << report.errors[0];
  fs::remove_all(dir);
}

TEST_F(ShardExec, SupervisorDetectsHeartbeatLoss) {
  REQUIRE_WORKER_BINARY();
  const std::string dir = MakeShardDir("mobipriv_exec_heartbeat", 2);
  const auto plan = core::ProbeShardStream(dir);
  ASSERT_TRUE(plan.has_value());

  // Delay every apply by 1500 ms with a 250 ms heartbeat budget and one
  // attempt: the supervisor must detect the silent worker, kill it and
  // degrade the stage with a liveness error.
  ScopedWorkerFaults faults("worker.apply=delay:1500");
  core::ShardExecOptions options;
  options.worker_binary = core::DefaultWorkerBinary();
  options.workers = 1;
  options.heartbeat_timeout_ms = 250.0;
  options.max_attempts = 1;
  const std::string out_dir = core::MakeScratchDir();
  core::ShardExecStats stats;
  const std::vector<core::ShardStageOutcome> outcomes =
      core::RunShardStagesMultiProcess(
          *plan, {{"gaussian", "gaussian[sigma=100m]", "stage-0", 5}},
          out_dir, options, &stats);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_NE(outcomes[0].error.find("heartbeat lost"), std::string::npos)
      << outcomes[0].error;
  EXPECT_EQ(stats.worker_failures, 1u);
  fs::remove_all(out_dir);
  fs::remove_all(dir);
}

// ---- Worker protocol: malformed-input handling ------------------------------

core::wp::WorkerRequest SampleRequest() {
  core::wp::WorkerRequest request;
  request.dir = "/data/world.shards";
  request.out_dir = "/tmp/results";
  request.stem = "stage-3";
  request.spec_text = "geo_ind[eps=0.01]";
  request.prefix_name = "geo_ind[eps=0.01]";
  request.seed = std::numeric_limits<std::int64_t>::max();  // widest decodable
  request.attempt = 2;
  request.shards = {0, 3, 7};
  return request;
}

/// DecodeRequest's error text for `payload`, asserting it was rejected.
std::string DecodeError(const std::string& payload) {
  core::wp::WorkerRequest request;
  std::string error;
  EXPECT_FALSE(core::wp::DecodeRequest(payload, &request, &error)) << payload;
  return error;
}

/// SampleRequest()'s encoding with the line starting `key=` replaced by
/// `line` (or removed when `line` is empty).
std::string WithLine(const std::string& key, const std::string& line) {
  const std::string encoded = core::wp::EncodeRequest(SampleRequest());
  const std::size_t at = encoded.find(key + "=");
  const std::size_t end = encoded.find('\n', at) + 1;
  return encoded.substr(0, at) + (line.empty() ? "" : line + "\n") +
         encoded.substr(end);
}

/// Frame header: u32 LE payload length `n`, then the type byte.
std::string FrameHeader(char type, std::uint32_t n) {
  std::string header;
  for (int i = 0; i < 4; ++i) header += static_cast<char>((n >> (8 * i)) & 0xff);
  return header + type;
}

std::string Frame(char type, const std::string& payload) {
  return FrameHeader(type, static_cast<std::uint32_t>(payload.size())) +
         payload;
}

TEST(WorkerProtocol, RequestRoundTrips) {
  const core::wp::WorkerRequest sent = SampleRequest();
  core::wp::WorkerRequest got;
  std::string error;
  ASSERT_TRUE(core::wp::DecodeRequest(core::wp::EncodeRequest(sent), &got,
                                      &error))
      << error;
  EXPECT_EQ(got.dir, sent.dir);
  EXPECT_EQ(got.out_dir, sent.out_dir);
  EXPECT_EQ(got.stem, sent.stem);
  EXPECT_EQ(got.spec_text, sent.spec_text);
  EXPECT_EQ(got.prefix_name, sent.prefix_name);
  EXPECT_EQ(got.seed, sent.seed);
  EXPECT_EQ(got.attempt, sent.attempt);
  EXPECT_EQ(got.shards, sent.shards);

  // An empty shard list is a valid (no-op) request.
  core::wp::WorkerRequest empty = SampleRequest();
  empty.shards.clear();
  ASSERT_TRUE(core::wp::DecodeRequest(core::wp::EncodeRequest(empty), &got,
                                      &error))
      << error;
  EXPECT_TRUE(got.shards.empty());
}

TEST(WorkerProtocol, DecodeRejectsEveryMalformedRequest) {
  EXPECT_EQ(DecodeError(WithLine("stem", "stem stage-3")),
            "request line without '=': stem stage-3");
  EXPECT_EQ(DecodeError(WithLine("stem", "colour=blue")),
            "unknown request key: colour");
  EXPECT_EQ(DecodeError(WithLine("seed", "seed=-1")), "malformed seed: -1");
  EXPECT_EQ(DecodeError(WithLine("seed", "seed=7x")), "malformed seed: 7x");
  EXPECT_EQ(DecodeError(WithLine("attempt", "attempt=-3")),
            "malformed attempt: -3");
  EXPECT_EQ(DecodeError(WithLine("attempt", "attempt=")),
            "malformed attempt: ");
  EXPECT_EQ(DecodeError(WithLine("shards", "shards=1,x,3")),
            "malformed shard index: 1,x,3");
  EXPECT_EQ(DecodeError(WithLine("shards", "shards=1,-2")),
            "malformed shard index: 1,-2");
  EXPECT_EQ(DecodeError(WithLine("shards", "shards=0,3,")),
            "malformed shard index: 0,3,");
  for (const char* key : {"dir", "out_dir", "stem", "spec", "prefix",
                          "shards"}) {
    EXPECT_EQ(DecodeError(WithLine(key, "")), "incomplete request") << key;
  }
  EXPECT_EQ(DecodeError(""), "incomplete request");
}

TEST(WorkerProtocol, FrameReaderReassemblesByteByByte) {
  const std::string payload = core::wp::EncodeRequest(SampleRequest());
  const std::string stream = Frame(core::wp::kFrameApply, payload) +
                             Frame(core::wp::kFrameHeartbeat, "") +
                             Frame(core::wp::kFrameFail, "disk full");
  core::wp::FrameReader reader;
  std::vector<std::pair<char, std::string>> frames;
  for (const char byte : stream) {
    reader.Feed(&byte, 1);
    char type = 0;
    std::string got;
    while (reader.Next(&type, &got)) frames.emplace_back(type, got);
  }
  EXPECT_FALSE(reader.corrupt());
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], std::make_pair(core::wp::kFrameApply, payload));
  EXPECT_EQ(frames[1], std::make_pair(core::wp::kFrameHeartbeat,
                                      std::string()));
  EXPECT_EQ(frames[2], std::make_pair(core::wp::kFrameFail,
                                      std::string("disk full")));
}

TEST(WorkerProtocol, OversizedLengthHeaderCorruptsTheStreamForGood) {
  const std::string header = FrameHeader(
      core::wp::kFrameOk,
      static_cast<std::uint32_t>(core::wp::kMaxFramePayload + 1));
  core::wp::FrameReader reader;
  reader.Feed(header.data(), header.size());
  char type = 0;
  std::string payload;
  EXPECT_FALSE(reader.Next(&type, &payload));
  EXPECT_TRUE(reader.corrupt());

  // A well-formed frame arriving afterwards must not resynchronize.
  const std::string good = Frame(core::wp::kFrameOk, "");
  reader.Feed(good.data(), good.size());
  EXPECT_FALSE(reader.Next(&type, &payload));
  EXPECT_TRUE(reader.corrupt());
}

}  // namespace
}  // namespace mobipriv
