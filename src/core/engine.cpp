#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "attacks/poi_extraction.h"
#include "core/evaluator.h"
#include "core/output_cache.h"
#include "core/shard_exec.h"
#include "core/worker_protocol.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/registry.h"
#include "model/columnar_file.h"
#include "model/event_store.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/spec.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace mobipriv::core {
namespace {

namespace fault = util::fault;

/// One node of the compiled DAG. Nodes are stored in topological order
/// (mechanisms before their evaluations), so the serial fallback is a
/// plain index loop.
struct DagNode {
  std::function<void()> work;
  std::vector<std::size_t> dependents;
  std::size_t dependency_count = 0;
};

/// Per-node outcome of one DAG execution (graceful degradation: nothing
/// rethrows; every node gets a verdict).
enum class NodeStatus { kOk, kFailed, kSkipped };
struct NodeResult {
  NodeStatus status = NodeStatus::kOk;
  std::string error;  ///< exception text / watchdog verdict; empty when ok
};

/// Canonical watchdog verdict. Deliberately free of measured times: the
/// error row must be byte-identical at any thread count and on any
/// machine, so only the (deterministic) configured limit appears.
std::string WatchdogError(double timeout_ms) {
  return "node exceeded node_timeout (" +
         util::FormatDouble(timeout_ms, 0) + " ms watchdog)";
}

/// Runs `work`; an exception becomes a kFailed verdict on `result`.
template <typename Work>
void RunContained(NodeResult& result, Work&& work) {
  try {
    work();
  } catch (const std::exception& e) {
    result = {NodeStatus::kFailed, e.what()};
  } catch (...) {
    result = {NodeStatus::kFailed, "unknown exception"};
  }
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Error text of an engine-side injected fault at `point` for `key`.
std::string InjectedFault(std::string_view point, const std::string& key) {
  return "injected fault (" + std::string(point) + "): " + key;
}

/// Executes the DAG with per-node error containment. A node that throws
/// is recorded kFailed (exception text captured); every transitive
/// dependent is recorded kSkipped with the root cause, WITHOUT running;
/// all other branches complete normally. With `node_timeout_ms` > 0, a
/// node whose work exceeds the wall-clock budget is recorded kFailed
/// after completion (containment, not preemption — see ScenarioSpec).
///
/// Parallel path: every dependency-free node is submitted to the shared
/// pool; completions decrement their dependents' pending counts and
/// submit newly-ready nodes. All results land in pre-sized slots, so
/// scheduling order never shows in the output.
std::vector<NodeResult> ExecuteDag(std::vector<DagNode>& nodes,
                                   double node_timeout_ms) {
  std::vector<NodeResult> results(nodes.size());

  // Runs one node's work in containment: records ok/failed (+ watchdog).
  const auto run_contained = [&](std::size_t index) {
    NodeResult& result = results[index];
    const auto start = std::chrono::steady_clock::now();
    RunContained(result, nodes[index].work);
    if (result.status == NodeStatus::kOk && node_timeout_ms > 0.0 &&
        ElapsedMs(start) > node_timeout_ms) {
      result = {NodeStatus::kFailed, WatchdogError(node_timeout_ms)};
    }
  };
  // Marks `dependent` skipped because `index` did not finish ok. First
  // cause wins (a node with two failed dependencies reports the one that
  // reached it first — in the serial schedule that is the lower index,
  // and the parallel path pins the same choice via the skip guard below).
  const auto skip_reason = [&](std::size_t index) {
    const NodeResult& cause = results[index];
    return cause.status == NodeStatus::kFailed
               ? "dependency failed: " + cause.error
               : cause.error;  // transitively skipped: forward root cause
  };

  // Effective worker count 1, or a DAG too small to amortize a pool
  // round-trip: run the topological order inline (nodes are stored in
  // dependency order, so a plain index loop is a valid schedule).
  if (util::ParallelismLevel() <= 1 || nodes.size() <= 1) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (results[i].status == NodeStatus::kOk) run_contained(i);
      if (results[i].status == NodeStatus::kOk) continue;
      for (const std::size_t dependent : nodes[i].dependents) {
        if (results[dependent].status == NodeStatus::kOk) {
          results[dependent].status = NodeStatus::kSkipped;
          results[dependent].error = skip_reason(i);
        }
      }
    }
    return results;
  }

  std::vector<std::atomic<std::size_t>> pending(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    pending[i].store(nodes[i].dependency_count, std::memory_order_relaxed);
  }

  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t completed = 0;

  util::ThreadPool& pool = util::ThreadPool::Global();
  std::function<void(std::size_t)> run_node = [&](std::size_t index) {
    bool skipped;
    {
      // The skip mark (written by a failed parent under this mutex,
      // before it decrements our pending count) is visible here: the
      // last decrement happens-before this node runs.
      const std::lock_guard<std::mutex> lock(mutex);
      skipped = results[index].status == NodeStatus::kSkipped;
    }
    if (!skipped) run_contained(index);
    const bool propagate = results[index].status != NodeStatus::kOk;
    for (const std::size_t dependent : nodes[index].dependents) {
      if (propagate) {
        const std::lock_guard<std::mutex> lock(mutex);
        // First cause wins; a dependent two failed parents race for is
        // claimed exactly once.
        if (results[dependent].status == NodeStatus::kOk) {
          results[dependent].status = NodeStatus::kSkipped;
          results[dependent].error = skip_reason(index);
        }
      }
      if (pending[dependent].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pool.Submit([&run_node, dependent] { run_node(dependent); });
      }
    }
    {
      // Notify under the lock: the waiter owns this stack frame, so it
      // must not be able to wake, return and destroy the cv while this
      // worker is still inside notify_one.
      const std::lock_guard<std::mutex> lock(mutex);
      ++completed;
      done_cv.notify_one();
    }
  };

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].dependency_count == 0) {
      pool.Submit([&run_node, i] { run_node(i); });
    }
  }
  std::unique_lock<std::mutex> lock(mutex);
  done_cv.wait(lock, [&] { return completed == nodes.size(); });
  return results;
}

/// Full-dataset extents every ShardSlice carries, folded by the streamed
/// executor's pass 0: the original box and time span, and one published
/// box per stage node.
struct StreamExtents {
  explicit StreamExtents(std::size_t stage_count)
      : published_bbox(stage_count) {}

  void AddOriginal(const model::TraceView& trace) {
    original_bbox.Extend(trace.BoundingBox());
    if (!trace.empty()) {
      t_min = std::min(t_min, trace.time(0));
      t_max = std::max(t_max, trace.time(trace.size() - 1));
    }
  }

  geo::GeoBoundingBox original_bbox;
  std::vector<geo::GeoBoundingBox> published_bbox;
  util::Timestamp t_min = std::numeric_limits<util::Timestamp>::max();
  util::Timestamp t_max = std::numeric_limits<util::Timestamp>::min();
};

/// The streamed executor's fold merge. Grid cells are the
/// DAG's evaluator nodes: slot = group * evaluators + e, where group =
/// row * seeds + seed index and `group_terminal[group]` is that row's
/// stage node for that seed; their verdicts live in `node_results` after
/// the stage nodes. Each live cell's fold takes the published half of
/// every shard. The original half depends on (evaluator, seed) only, so
/// it is folded once per live (evaluator, seed) and every row's fold
/// adopts it before Finalize. Skip, fault and failure verdicts land
/// exactly where the DAG puts them, and a row whose stage fails
/// mid-merge strands only its own cells.
class FoldMerge {
 public:
  /// One fold per cell whose terminal survived so far, built in slot
  /// order (the DAG's evaluator-node order, so keyed fault points trip
  /// for the same cells).
  FoldMerge(const std::vector<std::unique_ptr<Evaluator>>& evaluators,
            const std::vector<std::string>& eval_names,
            const std::vector<std::uint64_t>& seeds,
            std::vector<std::size_t> group_terminal,
            std::vector<NodeResult>& node_results, StreamExtents extents)
      : eval_count_(evaluators.size()),
        seed_count_(seeds.size()),
        group_terminal_(std::move(group_terminal)),
        node_results_(node_results),
        stage_count_(node_results.size() -
                     group_terminal_.size() * eval_count_),
        extents_(std::move(extents)),
        folds_(group_terminal_.size() * eval_count_),
        originals_(seed_count_ * eval_count_) {
    for (std::size_t slot = 0; slot < folds_.size(); ++slot) {
      const std::size_t e = slot % eval_count_;
      NodeResult& cell = Cell(slot);
      const NodeResult& terminal = Terminal(slot);
      if (terminal.status != NodeStatus::kOk) {
        cell = {NodeStatus::kSkipped, "dependency failed: " + terminal.error};
        continue;
      }
      if (MOBIPRIV_FAULT_POINT_KEYED(fault::points::kEngineEvaluatorRun,
                                     eval_names[e])) {
        cell = {NodeStatus::kFailed,
                InjectedFault(fault::points::kEngineEvaluatorRun,
                              eval_names[e])};
        continue;
      }
      const std::uint64_t seed = seeds[slot / eval_count_ % seed_count_];
      folds_[slot] = evaluators[e]->MakeTraceFold(seed);
      std::unique_ptr<TraceFold>& original = originals_[OriginalOf(slot)];
      if (!original) original = evaluators[e]->MakeTraceFold(seed);
    }
  }

  /// Folds shard `s`: `original` is its global-id original views,
  /// `published[n]` stage n's views of it (empty for a failed stage).
  void Feed(const ShardStreamPlan& plan, std::size_t s,
            std::span<const model::TraceView> original,
            const std::vector<std::vector<model::TraceView>>& published) {
    const auto start = std::chrono::steady_clock::now();
    ShardSlice slice;
    slice.original = original;
    slice.canonical_index = plan.origin[s];
    slice.user_count = plan.global_names.size();
    slice.original_bbox = extents_.original_bbox;
    slice.original_t_min = extents_.t_min;
    slice.original_t_max = extents_.t_max;
    std::vector<unsigned char> wanted(originals_.size(), 0);
    for (std::size_t slot = 0; slot < folds_.size(); ++slot) {
      if (Live(slot)) wanted[OriginalOf(slot)] = 1;
    }
    for (std::size_t k = 0; k < originals_.size(); ++k) {
      if (!wanted[k]) continue;
      NodeResult verdict;
      RunContained(verdict, [&] { originals_[k]->AccumulateOriginal(slice); });
      if (verdict.status == NodeStatus::kOk) continue;
      // Each sharing row would have thrown this from its own fold.
      for (std::size_t slot = 0; slot < folds_.size(); ++slot) {
        if (Live(slot) && OriginalOf(slot) == k) Cell(slot) = verdict;
      }
    }
    for (std::size_t slot = 0; slot < folds_.size(); ++slot) {
      if (!Live(slot)) continue;
      const std::size_t terminal = group_terminal_[slot / eval_count_];
      slice.published = published[terminal];
      slice.published_bbox = extents_.published_bbox[terminal];
      RunContained(Cell(slot),
                   [&] { folds_[slot]->AccumulatePublished(slice); });
    }
    ms_ += ElapsedMs(start);
  }

  /// Marks cells stranded by a stage that failed mid-merge skipped, like
  /// the DAG would, and finalizes the survivors into per-slot results.
  std::vector<std::vector<MetricValue>> Finalize() {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::vector<MetricValue>> results(folds_.size());
    for (std::size_t slot = 0; slot < folds_.size(); ++slot) {
      NodeResult& cell = Cell(slot);
      const NodeResult& terminal = Terminal(slot);
      if (terminal.status != NodeStatus::kOk &&
          cell.status == NodeStatus::kOk) {
        cell = {NodeStatus::kSkipped, "dependency failed: " + terminal.error};
      }
      if (!Live(slot)) continue;
      RunContained(cell, [&] {
        folds_[slot]->AdoptOriginal(*originals_[OriginalOf(slot)]);
        results[slot] = folds_[slot]->Finalize();
      });
      folds_[slot].reset();
    }
    ms_ += ElapsedMs(start);
    return results;
  }

  /// Wall time spent in fold accumulate and finalize calls.
  [[nodiscard]] double ms() const noexcept { return ms_; }
  /// Original-side folds built: one per (evaluator, seed) with a live cell.
  [[nodiscard]] std::size_t preparations() const {
    return static_cast<std::size_t>(
        std::count_if(originals_.begin(), originals_.end(),
                      [](const auto& fold) { return fold != nullptr; }));
  }

 private:
  NodeResult& Cell(std::size_t slot) {
    return node_results_[stage_count_ + slot];
  }
  const NodeResult& Terminal(std::size_t slot) const {
    return node_results_[group_terminal_[slot / eval_count_]];
  }
  bool Live(std::size_t slot) {
    return folds_[slot] && Cell(slot).status == NodeStatus::kOk &&
           Terminal(slot).status == NodeStatus::kOk;
  }
  /// Index of the (seed index, evaluator) original-side fold of `slot`.
  std::size_t OriginalOf(std::size_t slot) const {
    return (slot / eval_count_ % seed_count_) * eval_count_ +
           slot % eval_count_;
  }

  std::size_t eval_count_;
  std::size_t seed_count_;
  std::vector<std::size_t> group_terminal_;
  std::vector<NodeResult>& node_results_;
  std::size_t stage_count_;
  StreamExtents extents_;
  std::vector<std::unique_ptr<TraceFold>> folds_;
  std::vector<std::unique_ptr<TraceFold>> originals_;
  double ms_ = 0.0;
};

constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

/// One memoized stage node: a distinct (prefix canonical name, seed)
/// pair. The instance is built from the stage's ORIGINAL spec text,
/// never from the canonical name — Name() prints numbers at fixed
/// precision, so re-parsing it could silently change parameters (e.g.
/// eps=0.00004 -> "eps=0.0000" -> 0.0). One instance per node because
/// some baselines keep mutable per-Apply scratch (e.g. Wait4Me's
/// suppression ratio) that must not be shared between
/// concurrently-running nodes.
struct StagePlan {
  std::string prefix_name;  ///< stage names [0..k] joined with '|'
  std::string spec_text;    ///< original stage spec text (worker dispatch)
  std::size_t parent = kNoParent;  ///< previous stage's node, if any
  std::size_t seed_index = 0;
  std::unique_ptr<mech::Mechanism> instance;
};

// The streamed executor's two stage placements: where its stage outputs
// come from, the one thing they do differently. For shard `s`, Produce
// fills `published[n]` with stage n's global-id views of the shard for
// every stage whose verdict is still ok; a stage that cannot produce them
// gets a kFailed verdict instead. The storage behind the views lives in
// the placement until the next call.

/// In-process placement: runs each surviving stage's kernel over the
/// shard. A throwing stage fails only its own node, with the exception
/// text.
class InProcessStages {
 public:
  InProcessStages(const std::vector<StagePlan>& stages,
                  const std::vector<std::uint64_t>& seeds,
                  const ShardStreamPlan& plan)
      : stages_(stages), plan_(plan), outputs_(stages.size()) {
    // The one draw ApplyToStore takes from each stage stream, so every
    // per-trace rng matches the DAG's bit for bit.
    for (const StagePlan& stage : stages) {
      masters_.push_back(
          StageRng(seeds[stage.seed_index], stage.prefix_name).NextU64());
    }
  }

  void Produce(
      std::size_t s, const model::MappedColumnar& shard,
      std::vector<NodeResult>& verdicts,
      std::vector<std::vector<model::TraceView>>& published) {
    for (std::size_t n = 0; n < stages_.size(); ++n) {
      outputs_[n] = model::EventStore();  // shard s-1's output goes first
      if (verdicts[n].status != NodeStatus::kOk) continue;
      RunContained(verdicts[n], [&] {
        outputs_[n] = ApplyStageToShard(
            static_cast<const mech::PerTraceMechanism&>(*stages_[n].instance),
            masters_[n], plan_, s, shard);
        published[n] = GlobalViews(plan_, s, outputs_[n].View());
      });
    }
  }

 private:
  const std::vector<StagePlan>& stages_;
  const ShardStreamPlan& plan_;
  std::vector<std::uint64_t> masters_;
  std::vector<model::EventStore> outputs_;
};

/// Worker placement: the constructor runs every surviving stage over
/// every shard in supervised worker processes (core/shard_exec.h), which
/// write one `.mpc` per (stage, shard) into a scratch dir; Produce maps
/// shard s's result files. Result loss after supervision is not
/// retryable any more, so the stage degrades with a deterministic
/// (basename-only) error.
class WorkerStages {
 public:
  WorkerStages(const std::vector<StagePlan>& stages,
               const std::vector<std::uint64_t>& seeds,
               const ShardStreamPlan& plan, const ShardExecOptions& options,
               std::vector<NodeResult>& verdicts, ShardExecStats& stats)
      : plan_(plan), results_(stages.size()) {
    std::vector<ShardStageTask> tasks;
    std::vector<std::size_t> task_stage;
    for (std::size_t n = 0; n < stages.size(); ++n) {
      if (verdicts[n].status != NodeStatus::kOk) continue;
      tasks.push_back({stages[n].spec_text, stages[n].prefix_name, Stem(n),
                       seeds[stages[n].seed_index]});
      task_stage.push_back(n);
    }
    const std::vector<ShardStageOutcome> outcomes =
        RunShardStagesMultiProcess(plan, tasks, scratch_.path, options,
                                   &stats);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (!outcomes[t].ok) {
        verdicts[task_stage[t]] = {NodeStatus::kFailed, outcomes[t].error};
      }
    }
  }

  void Produce(
      std::size_t s, const model::MappedColumnar& /*shard*/,
      std::vector<NodeResult>& verdicts,
      std::vector<std::vector<model::TraceView>>& published) {
    for (std::size_t n = 0; n < results_.size(); ++n) {
      if (verdicts[n].status != NodeStatus::kOk) continue;
      const std::string path = wp::StageShardPath(scratch_.path, Stem(n), s);
      try {
        results_[n] = model::MapColumnar(path);
        published[n] = GlobalViews(plan_, s, results_[n].View());
      } catch (const std::exception&) {
        verdicts[n] = {NodeStatus::kFailed,
                       "result missing or torn after supervision: " +
                           std::filesystem::path(path).filename().string()};
      }
    }
  }

 private:
  static std::string Stem(std::size_t n) {
    return "stage-" + std::to_string(n);
  }

  const ShardStreamPlan& plan_;
  /// Result handoff directory, removed wholesale with the placement
  /// (including any torn temp a killed worker left behind).
  struct ScratchDir {
    ScratchDir() = default;
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
    ~ScratchDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    std::string path = MakeScratchDir();
  } scratch_;
  std::vector<model::MappedColumnar> results_;
};

}  // namespace

std::string_view ToString(RowStatus status) noexcept {
  switch (status) {
    case RowStatus::kOk:
      return "ok";
    case RowStatus::kFailed:
      return "failed";
    case RowStatus::kSkipped:
      return "skipped";
  }
  return "unknown";
}

bool Report::AllOk() const noexcept {
  return std::all_of(rows_.begin(), rows_.end(), [](const ReportRow& row) {
    return row.status == RowStatus::kOk;
  });
}

Table Report::ToTable() const {
  Table table({"mechanism", "seed", "evaluator", "metric", "value", "status",
               "error"});
  for (const ReportRow& row : rows_) {
    // Non-ok rows render a blank value: 0.0 would read as a measurement.
    table.AddRow({row.mechanism, std::to_string(row.seed), row.evaluator,
                  row.metric,
                  row.status == RowStatus::kOk
                      ? util::FormatDouble(row.value, kValuePrecision)
                      : std::string(),
                  std::string(ToString(row.status)), row.error});
  }
  return table;
}

std::string Report::ToCsv() const { return ToTable().ToCsv(); }

Table Report::Pivot(std::string_view evaluator) const {
  // Collect metric columns in first-appearance order, then one wide row
  // per (mechanism, seed) in row order.
  std::vector<std::string> metrics;
  for (const ReportRow& row : rows_) {
    if (row.evaluator != evaluator) continue;
    if (row.status != RowStatus::kOk) continue;  // no "" metric column
    if (std::find(metrics.begin(), metrics.end(), row.metric) ==
        metrics.end()) {
      metrics.push_back(row.metric);
    }
  }
  std::vector<std::string> headers = {"mechanism", "seed"};
  headers.insert(headers.end(), metrics.begin(), metrics.end());
  Table table(std::move(headers));

  std::vector<std::pair<std::string, std::uint64_t>> keys;
  std::map<std::pair<std::string, std::uint64_t>,
           std::vector<std::string>> cells;
  for (const ReportRow& row : rows_) {
    if (row.evaluator != evaluator) continue;
    if (row.status != RowStatus::kOk) continue;  // degraded cells stay blank
    const auto key = std::make_pair(row.mechanism, row.seed);
    auto it = cells.find(key);
    if (it == cells.end()) {
      keys.push_back(key);
      it = cells.emplace(key, std::vector<std::string>(metrics.size()))
               .first;
    }
    const auto column = std::find(metrics.begin(), metrics.end(), row.metric);
    it->second[static_cast<std::size_t>(column - metrics.begin())] =
        util::FormatDouble(row.value, kValuePrecision);
  }
  for (const auto& key : keys) {
    std::vector<std::string> row = {key.first, std::to_string(key.second)};
    const auto& values = cells[key];
    row.insert(row.end(), values.begin(), values.end());
    table.AddRow(std::move(row));
  }
  return table;
}

std::string EngineStats::ToString() const {
  std::ostringstream os;
  os << "grid_cells=" << grid_cells
     << " mechanism_nodes=" << mechanism_nodes
     << " evaluator_nodes=" << evaluator_nodes;
  if (original_preparations > 0) {
    os << " original_preparations=" << original_preparations;
  }
  if (stage_reuses > 0) os << " stage_reuses=" << stage_reuses;
  if (cache_hits + cache_misses > 0) {
    os << " cache_hits=" << cache_hits << " cache_misses=" << cache_misses;
  }
  if (cache_read_retries > 0) {
    os << " cache_read_retries=" << cache_read_retries;
  }
  if (cache_evictions > 0) os << " cache_evictions=" << cache_evictions;
  if (streamed_shards > 0) os << " streamed_shards=" << streamed_shards;
  if (workers_spawned > 0) {
    os << " workers_spawned=" << workers_spawned
       << " worker_restarts=" << worker_restarts
       << " worker_failures=" << worker_failures;
  }
  if (failed_nodes + skipped_nodes > 0) {
    os << " failed_nodes=" << failed_nodes
       << " skipped_nodes=" << skipped_nodes;
  }
  os << " bind_ms=" << util::FormatDouble(bind_ms, 2)
     << " run_ms=" << util::FormatDouble(run_ms, 2);
  if (streamed_shards > 0) os << " fold_ms=" << util::FormatDouble(fold_ms, 2);
  return os.str();
}

struct ScenarioEngine::Compiled {
  /// One report row group: a deduped chain (possibly single-stage) of the
  /// spec, in first-appearance order. Rows that canonicalize to the same
  /// chain name share everything (first spec text wins).
  struct RowPlan {
    std::string name;                   ///< canonical chain Name()
    std::vector<std::size_t> terminal;  ///< last stage node, per seed index
  };

  ScenarioSpec spec;
  std::vector<StagePlan> stage_nodes;  ///< parents precede children
  std::vector<RowPlan> rows;
  std::size_t stage_refs = 0;  ///< total (row, seed, stage) references
  std::vector<std::string> eval_names;
  std::vector<std::unique_ptr<Evaluator>> evaluators;
  bool ran = false;
};

ScenarioEngine::ScenarioEngine(ScenarioSpec spec)
    : compiled_(std::make_unique<Compiled>()) {
  compiled_->spec = std::move(spec);
  Compiled& c = *compiled_;
  const ScenarioSpec& s = c.spec;
  if (s.mechanisms.empty()) {
    throw util::SpecError("scenario has no mechanisms");
  }
  if (s.evaluators.empty()) {
    throw util::SpecError("scenario has no evaluators");
  }
  if (s.seeds.empty()) throw util::SpecError("scenario has no seeds");

  const std::size_t seed_count = s.seeds.size();
  // (prefix canonical name, seed index) -> stage node. The map is the
  // in-memory memoization: rows sharing a chain prefix reuse its nodes.
  std::map<std::pair<std::string, std::size_t>, std::size_t> node_index;
  for (const std::string& text : s.mechanisms) {
    const util::SpecChain chain = util::SpecChain::Parse(text);
    std::vector<std::string> stage_texts;
    std::vector<std::string> stage_names;
    for (const util::Spec& stage : chain.stages()) {
      // Spec entries keep values verbatim, so ToString() reproduces the
      // stage's original text (no precision loss).
      stage_texts.push_back(stage.ToString());
      stage_names.push_back(
          mech::CreateMechanism(stage_texts.back())->Name());
    }
    const std::string chain_name = util::Join(stage_names, "|");
    if (std::any_of(c.rows.begin(), c.rows.end(),
                    [&](const Compiled::RowPlan& row) {
                      return row.name == chain_name;
                    })) {
      continue;  // deduped: first spec text wins
    }
    Compiled::RowPlan row;
    row.name = chain_name;
    row.terminal.resize(seed_count);
    for (std::size_t seed = 0; seed < seed_count; ++seed) {
      std::size_t parent = kNoParent;
      std::string prefix;
      for (std::size_t k = 0; k < stage_names.size(); ++k) {
        if (k > 0) prefix += "|";
        prefix += stage_names[k];
        ++c.stage_refs;
        const auto key = std::make_pair(prefix, seed);
        auto it = node_index.find(key);
        if (it == node_index.end()) {
          StagePlan plan;
          plan.prefix_name = prefix;
          plan.spec_text = stage_texts[k];
          plan.parent = parent;
          plan.seed_index = seed;
          plan.instance = mech::CreateMechanism(stage_texts[k]);
          c.stage_nodes.push_back(std::move(plan));
          it = node_index.emplace(key, c.stage_nodes.size() - 1).first;
        }
        parent = it->second;
      }
      row.terminal[seed] = parent;
    }
    c.rows.push_back(std::move(row));
  }
  for (const std::string& text : s.evaluators) {
    auto evaluator = CreateEvaluator(text);
    std::string name = evaluator->Name();
    if (std::find(c.eval_names.begin(), c.eval_names.end(), name) ==
        c.eval_names.end()) {
      c.eval_names.push_back(std::move(name));
      c.evaluators.push_back(std::move(evaluator));
    }
  }
}

ScenarioEngine::~ScenarioEngine() = default;

Report ScenarioEngine::Run() {
  Compiled& c = *compiled_;
  if (c.ran) throw std::logic_error("ScenarioEngine::Run called twice");
  c.ran = true;

  // threads == 0 inherits the ambient level (a --threads flag or an
  // enclosing ScopedParallelism); ScopedParallelism(0) would instead
  // RESET to the hardware default, so only scope when explicitly set.
  std::optional<util::ScopedParallelism> scope;
  if (c.spec.threads != 0) scope.emplace(c.spec.threads);

  const std::vector<std::uint64_t>& seeds = c.spec.seeds;
  const std::size_t seed_count = seeds.size();
  const std::size_t eval_count = c.evaluators.size();
  const std::size_t stage_count = c.stage_nodes.size();
  const std::size_t row_count = c.rows.size();
  const std::size_t eval_nodes = row_count * seed_count * eval_count;

  stats_.grid_cells =
      c.spec.mechanisms.size() * seed_count * c.spec.evaluators.size();
  stats_.mechanism_nodes = stage_count;
  stats_.stage_reuses = c.stage_refs - stage_count;
  stats_.evaluator_nodes = eval_nodes;

  // ---- Report assembly, shared by both executors. ---------------------
  // A row whose terminal did not finish ok contributes one
  // mechanism-level error row (empty evaluator/metric) followed by one
  // skipped row per evaluator; a terminal skipped by an interior stage
  // failure forwards the root cause. A failed evaluator node contributes
  // one error row for its cell. The assembly reads only node_results and
  // results slots — both indexed, never schedule-ordered — so degraded
  // reports are as reproducible as healthy ones.
  const auto assemble =
      [&](const std::vector<NodeResult>& node_results,
          const std::vector<std::vector<MetricValue>>& results) {
        for (const NodeResult& result : node_results) {
          if (result.status == NodeStatus::kFailed) ++stats_.failed_nodes;
          if (result.status == NodeStatus::kSkipped) ++stats_.skipped_nodes;
        }
        const auto to_row_status = [](NodeStatus status) {
          return status == NodeStatus::kFailed ? RowStatus::kFailed
                                               : RowStatus::kSkipped;
        };
        Report report;
        for (std::size_t r = 0; r < row_count; ++r) {
          for (std::size_t s = 0; s < seed_count; ++s) {
            const NodeResult& terminal_result =
                node_results[c.rows[r].terminal[s]];
            if (terminal_result.status != NodeStatus::kOk) {
              report.rows_.push_back({c.rows[r].name, seeds[s], "", "", 0.0,
                                      to_row_status(terminal_result.status),
                                      terminal_result.error});
            }
            for (std::size_t e = 0; e < eval_count; ++e) {
              const std::size_t slot = (r * seed_count + s) * eval_count + e;
              const NodeResult& eval_result = node_results[stage_count + slot];
              if (eval_result.status != NodeStatus::kOk) {
                report.rows_.push_back({c.rows[r].name, seeds[s],
                                        c.eval_names[e], "", 0.0,
                                        to_row_status(eval_result.status),
                                        eval_result.error});
                continue;
              }
              for (const MetricValue& value : results[slot]) {
                report.rows_.push_back({c.rows[r].name, seeds[s],
                                        c.eval_names[e], value.metric,
                                        value.value, RowStatus::kOk, {}});
              }
            }
          }
        }
        return report;
      };

  // ---- Streamed executor (out-of-core execution). ---------------------
  // Engages only when semantics are provably identical to the whole-view
  // DAG: a shard-dir source whose layout ProbeShardStream accepts, every
  // grid row a single-stage per-trace mechanism (cross-trace mechanisms
  // and chains need the whole view), every evaluator foldable
  // (core::TraceFold) and no output cache (its keys fingerprint the whole
  // source). Everything else falls back to the DAG.
  bool foldable =
      c.spec.source.kind == DatasetSourceSpec::Kind::kShardDir &&
      c.spec.mechanism_cache_dir.empty();
  for (std::size_t i = 0; foldable && i < stage_count; ++i) {
    foldable = c.stage_nodes[i].parent == kNoParent &&
               dynamic_cast<const mech::PerTraceMechanism*>(
                   c.stage_nodes[i].instance.get()) != nullptr;
  }
  for (std::size_t e = 0; foldable && e < eval_count; ++e) {
    foldable = c.evaluators[e]->MakeTraceFold(seeds[0]) != nullptr;
  }
  // Stages run in worker processes when a worker binary is available.
  // Only they take a watchdog (as the per-request deadline, with real
  // preemption): a per-node wall clock has no meaning for interleaved
  // in-process shard passes, so those grids are left to the DAG.
  std::string worker_binary;
  if (foldable && c.spec.workers > 0) {
    worker_binary = c.spec.worker_binary.empty() ? DefaultWorkerBinary()
                                                 : c.spec.worker_binary;
  }
  const bool want_workers = foldable && !worker_binary.empty();
  std::optional<ShardStreamPlan> stream;
  if (want_workers || (foldable && c.spec.node_timeout_ms == 0.0)) {
    // The probe is this path's bind: manifest + per-shard metadata, no
    // event column ever resident.
    const auto probe_start = std::chrono::steady_clock::now();
    stream = ProbeShardStream(c.spec.source.path);
    stats_.bind_ms += ElapsedMs(probe_start);
  }

  // One body for both placements. ApplyStageToShard's output is
  // partition-independent and `.mpc` round-trips doubles bitwise, so the
  // report is byte-identical to the DAG's in process and at any worker
  // count, degraded rows included.
  if (stream) {
    const ShardStreamPlan& plan = *stream;
    stats_.streamed_shards = plan.shard_count;
    std::vector<NodeResult> node_results(stage_count + eval_nodes);
    std::vector<std::vector<MetricValue>> results(eval_nodes);
    stats_.run_ms = TimeMs([&] {
      // Injected stage faults fire before any stage work, with the DAG's
      // error text.
      for (std::size_t n = 0; n < stage_count; ++n) {
        const std::string& prefix = c.stage_nodes[n].prefix_name;
        if (MOBIPRIV_FAULT_POINT_KEYED(fault::points::kEngineMechanismRun,
                                       prefix)) {
          node_results[n] = {NodeStatus::kFailed,
                             InjectedFault(fault::points::kEngineMechanismRun,
                                           prefix)};
        }
      }
      const auto stream_through = [&](auto& placement) {
        // Hands `fold` every shard in ascending order: its global-id
        // original views and the placement's stage outputs for it. One
        // shard's input and outputs are resident at a time.
        const auto each_shard = [&](const auto& fold) {
          for (std::size_t s = 0; s < plan.shard_count; ++s) {
            const model::MappedColumnar shard =
                model::MapColumnar(model::ShardDataPath(plan.dir, s));
            const std::vector<model::TraceView> original =
                GlobalViews(plan, s, shard.View());
            std::vector<std::vector<model::TraceView>> published(
                stage_count);
            placement.Produce(s, shard, node_results, published);
            fold(s, original, published);
          }
        };

        // Pass 0 (extents): the full-dataset boxes and time span every
        // fold's slice must carry. Pass 1 produces the identical outputs
        // again (the same per-trace streams, the same result files): the
        // price of holding one shard's outputs at a time.
        StreamExtents extents(stage_count);
        each_shard([&](std::size_t, const auto& original,
                       const auto& published) {
          for (const model::TraceView& trace : original) {
            extents.AddOriginal(trace);
          }
          for (std::size_t n = 0; n < stage_count; ++n) {
            for (const model::TraceView& trace : published[n]) {
              extents.published_bbox[n].Extend(trace.BoundingBox());
            }
          }
        });

        // Pass 1 (folds): grid cells in row-major (row, seed) groups.
        std::vector<std::size_t> group_terminal;
        for (const Compiled::RowPlan& row : c.rows) {
          group_terminal.insert(group_terminal.end(), row.terminal.begin(),
                                row.terminal.end());
        }
        FoldMerge merge(c.evaluators, c.eval_names, seeds,
                        std::move(group_terminal), node_results,
                        std::move(extents));
        each_shard([&](std::size_t s, const auto& original,
                       const auto& published) {
          merge.Feed(plan, s, original, published);
        });
        results = merge.Finalize();
        stats_.fold_ms = merge.ms();
        stats_.original_preparations = merge.preparations();
      };

      if (want_workers) {
        ShardExecOptions options;
        options.worker_binary = worker_binary;
        options.workers = c.spec.workers;
        options.request_timeout_ms = c.spec.node_timeout_ms;
        ShardExecStats exec_stats;
        WorkerStages placement(c.stage_nodes, seeds, plan, options,
                               node_results, exec_stats);
        stats_.workers_spawned = exec_stats.workers_spawned;
        stats_.worker_restarts = exec_stats.worker_restarts;
        stats_.worker_failures = exec_stats.worker_failures;
        stream_through(placement);
      } else {
        InProcessStages placement(c.stage_nodes, seeds, plan);
        stream_through(placement);
      }
    });
    return assemble(node_results, results);
  }

  // ---- Whole-view path. -----------------------------------------------
  // Bind is timed separately from the DAG: it is the mmap/parse startup
  // cost the columnar format exists to shrink.
  const auto bind_start = std::chrono::steady_clock::now();
  BoundSource source = BoundSource::Bind(c.spec.source);
  stats_.bind_ms += ElapsedMs(bind_start);

  const geo::LocalProjection frame =
      attacks::DatasetProjection(source.view());

  // The `.mpc` output cache (optional). The dataset fingerprint is one
  // O(events) column scan, paid only when the cache is on. Stage nodes
  // key their outputs by PREFIX canonical name against the ORIGINAL
  // source fingerprint — sound because (prefix, source, seed) uniquely
  // determines a stage's bytes under the per-prefix rng discipline.
  std::optional<OutputCache> cache;
  std::uint64_t source_fingerprint = 0;
  if (!c.spec.mechanism_cache_dir.empty()) {
    cache.emplace(c.spec.mechanism_cache_dir,
                  c.spec.mechanism_cache_max_bytes);
    source_fingerprint = OutputCache::FingerprintView(source.view());
  }
  std::atomic<std::size_t> cache_hits{0};
  std::atomic<std::size_t> cache_misses{0};

  // Result slots, pre-sized so DAG workers never allocate shared state.
  // Stage outputs are columnar stores — the SoA-native path: no AoS
  // dataset is ever built for a node; the next stage consumes the store
  // through a zero-copy view, and so does every evaluator of a terminal.
  std::vector<model::EventStore> outputs(stage_count);
  std::vector<model::DatasetView> published(stage_count);
  std::vector<std::vector<MetricValue>> results(eval_nodes);

  // One compute-once original half per (seed index, evaluator): the first
  // live cell that needs it runs PrepareOriginal, every later cell of the
  // pair reads the shared state. A throwing preparation is captured once
  // and rethrown in each cell that needs it, so every such cell fails
  // with the text it would have thrown itself; a pair with no live cell
  // is never prepared.
  struct OriginalSlot {
    std::once_flag once;
    std::shared_ptr<const OriginalState> state;
    std::exception_ptr error;
  };
  std::vector<OriginalSlot> original_slots(seed_count * eval_count);
  std::atomic<std::size_t> original_preparations{0};

  // ---- Compile the DAG (topological layout: stages, then evals). ------
  // Stage nodes are in creation order, so a node's parent always precedes
  // it; evaluator nodes follow all stage nodes and depend on their row's
  // terminal.
  std::vector<DagNode> nodes;
  nodes.reserve(stage_count + eval_nodes);
  for (std::size_t i = 0; i < stage_count; ++i) {
    const StagePlan& plan = c.stage_nodes[i];
    DagNode dag_node;
    dag_node.dependency_count = plan.parent == kNoParent ? 0 : 1;
    dag_node.work = [&, i] {
      const StagePlan& stage = c.stage_nodes[i];
      // Keyed by prefix canonical name (== the mechanism name for
      // single-stage rows): an armed fault trips for exactly the chosen
      // node's stage, whichever worker runs it — the degraded report
      // stays byte-identical at any thread count. A kDelay spec at this
      // point slows the node instead (the watchdog test hook).
      if (MOBIPRIV_FAULT_POINT_KEYED(fault::points::kEngineMechanismRun,
                                     stage.prefix_name)) {
        throw std::runtime_error(InjectedFault(
            fault::points::kEngineMechanismRun, stage.prefix_name));
      }
      util::Rng rng = StageRng(seeds[stage.seed_index], stage.prefix_name);
      std::string key_text;
      bool loaded = false;
      if (cache) {
        key_text = OutputCache::KeyText(stage.prefix_name,
                                        source_fingerprint,
                                        seeds[stage.seed_index]);
        loaded = cache->TryLoad(key_text, outputs[i]);
      }
      if (loaded) {
        cache_hits.fetch_add(1, std::memory_order_relaxed);
      } else {
        const model::DatasetView& input = stage.parent == kNoParent
                                              ? source.view()
                                              : published[stage.parent];
        outputs[i] = stage.instance->ApplyToStore(input, rng);
        if (cache) {
          cache->Store(key_text, outputs[i]);
          cache_misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
      published[i] = outputs[i].View();
    };
    nodes.push_back(std::move(dag_node));
    if (plan.parent != kNoParent) {
      nodes[plan.parent].dependents.push_back(i);
    }
  }
  for (std::size_t r = 0; r < row_count; ++r) {
    for (std::size_t s = 0; s < seed_count; ++s) {
      const std::size_t terminal = c.rows[r].terminal[s];
      for (std::size_t e = 0; e < eval_count; ++e) {
        const std::size_t result_slot =
            (r * seed_count + s) * eval_count + e;
        DagNode dag_node;
        dag_node.dependency_count = 1;
        dag_node.work = [&, terminal, s, e, result_slot] {
          if (MOBIPRIV_FAULT_POINT_KEYED(fault::points::kEngineEvaluatorRun,
                                         c.eval_names[e])) {
            throw std::runtime_error(InjectedFault(
                fault::points::kEngineEvaluatorRun, c.eval_names[e]));
          }
          OriginalSlot& original = original_slots[s * eval_count + e];
          std::call_once(original.once, [&] {
            original_preparations.fetch_add(1, std::memory_order_relaxed);
            try {
              original.state = c.evaluators[e]->PrepareOriginal(
                  source.view(), frame, seeds[s]);
            } catch (...) {
              original.error = std::current_exception();
            }
          });
          if (original.error) std::rethrow_exception(original.error);
          const EvalInput input{source.view(), published[terminal], frame,
                                seeds[s]};
          results[result_slot] =
              c.evaluators[e]->Compare(input, original.state.get());
        };
        nodes[terminal].dependents.push_back(nodes.size());
        nodes.push_back(std::move(dag_node));
      }
    }
  }

  std::vector<NodeResult> node_results;
  stats_.run_ms = TimeMs(
      [&] { node_results = ExecuteDag(nodes, c.spec.node_timeout_ms); });
  stats_.cache_hits = cache_hits.load(std::memory_order_relaxed);
  stats_.cache_misses = cache_misses.load(std::memory_order_relaxed);
  stats_.cache_read_retries = cache ? cache->read_retries() : 0;
  stats_.cache_evictions = cache ? cache->evictions() : 0;
  stats_.original_preparations =
      original_preparations.load(std::memory_order_relaxed);
  return assemble(node_results, results);
}

Report RunScenario(ScenarioSpec spec) {
  ScenarioEngine engine(std::move(spec));
  return engine.Run();
}

}  // namespace mobipriv::core
