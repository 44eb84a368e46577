#include "core/shard_exec.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#define MOBIPRIV_HAVE_FORK_EXEC 1
#endif

#include "core/worker_protocol.h"
#include "model/columnar_file.h"
#include "model/io.h"
#include "util/fault.h"
#include "util/string_utils.h"

namespace mobipriv::core {

namespace {

#if MOBIPRIV_HAVE_FORK_EXEC

using Clock = std::chrono::steady_clock;

Clock::duration FromMs(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Same text the in-process watchdog writes (engine.cpp), so a deadline
/// degradation reads identically whether the stage ran in or out of
/// process.
std::string WatchdogText(double ms) {
  return "node exceeded node_timeout (" + util::FormatDouble(ms, 0) +
         " ms watchdog)";
}

/// SIGPIPE must not kill the supervisor when it writes a request to a
/// worker that just died — the write error is the signal we want.
/// Scoped so library callers keep their own disposition.
struct ScopedIgnoreSigpipe {
  struct sigaction saved {};
  ScopedIgnoreSigpipe() {
    struct sigaction action {};
    action.sa_handler = SIG_IGN;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGPIPE, &action, &saved);
  }
  ~ScopedIgnoreSigpipe() { ::sigaction(SIGPIPE, &saved, nullptr); }
};

/// A pipe whose supervisor-side ends are close-on-exec, so one worker
/// never inherits another worker's pipe ends (which would defeat EOF
/// detection on worker death).
bool MakePipe(int fds[2]) {
#if defined(__linux__)
  return ::pipe2(fds, O_CLOEXEC) == 0;
#else
  if (::pipe(fds) != 0) return false;
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
  return true;
#endif
}

/// One worker process slot, bound to a fixed shard subset. The slot
/// walks the task list in order; the worker behind it is disposable
/// (killed and respawned across retries).
struct Slot {
  std::vector<std::size_t> shards;
  ::pid_t pid = -1;
  int to_fd = -1;
  int from_fd = -1;
  wp::FrameReader reader;
  std::size_t task = 0;  ///< next/current task index
  int attempt = 0;       ///< attempts used for the current task
  bool busy = false;     ///< request in flight
  bool in_backoff = false;
  bool done = false;
  bool spawned_once = false;
  Clock::time_point deadline{};
  Clock::time_point last_heartbeat{};
  Clock::time_point backoff_until{};
};

struct Supervisor {
  const ShardStreamPlan& plan;
  const std::vector<ShardStageTask>& tasks;
  const std::string& out_dir;
  const ShardExecOptions& options;
  ShardExecStats stats;
  std::vector<Slot> slots;
  // Per (task, slot) terminal failure; empty error string = subset ok.
  std::vector<std::vector<char>> failed;
  std::vector<std::vector<std::string>> errors;

  Supervisor(const ShardStreamPlan& plan_in,
             const std::vector<ShardStageTask>& tasks_in,
             const std::string& out_dir_in, const ShardExecOptions& options_in)
      : plan(plan_in), tasks(tasks_in), out_dir(out_dir_in),
        options(options_in) {
    for (auto& subset : PartitionShards(plan.shard_count, options.workers)) {
      Slot slot;
      slot.shards = std::move(subset);
      slots.push_back(std::move(slot));
    }
    failed.assign(tasks.size(), std::vector<char>(slots.size(), 0));
    errors.assign(tasks.size(), std::vector<std::string>(slots.size()));
  }

  void CloseFds(Slot& slot) {
    if (slot.to_fd >= 0) {
      ::close(slot.to_fd);
      slot.to_fd = -1;
    }
    if (slot.from_fd >= 0) {
      ::close(slot.from_fd);
      slot.from_fd = -1;
    }
  }

  void KillWorker(Slot& slot) {
    CloseFds(slot);
    if (slot.pid >= 0) {
      ::kill(slot.pid, SIGKILL);
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
      slot.pid = -1;
    }
    slot.reader = wp::FrameReader{};
  }

  /// Reaps a worker that died on its own and renders a deterministic,
  /// machine-independent reason string from its exit status.
  std::string ReapReason(Slot& slot) {
    CloseFds(slot);
    int status = 0;
    if (slot.pid >= 0) {
      ::waitpid(slot.pid, &status, 0);
      slot.pid = -1;
    }
    slot.reader = wp::FrameReader{};
    if (WIFSIGNALED(status)) {
      return "killed by signal " + std::to_string(WTERMSIG(status));
    }
    if (WIFEXITED(status)) {
      return "exited with status " + std::to_string(WEXITSTATUS(status));
    }
    return "worker exited abnormally";
  }

  bool Spawn(Slot& slot) {
    int to_pipe[2];
    int from_pipe[2];
    if (!MakePipe(to_pipe)) return false;
    if (!MakePipe(from_pipe)) {
      ::close(to_pipe[0]);
      ::close(to_pipe[1]);
      return false;
    }
    const ::pid_t pid = ::fork();
    if (pid < 0) {
      ::close(to_pipe[0]);
      ::close(to_pipe[1]);
      ::close(from_pipe[0]);
      ::close(from_pipe[1]);
      return false;
    }
    if (pid == 0) {
      // Child: requests on stdin, replies on stdout (dup2 clears
      // close-on-exec on the duplicates); environment inherited, which
      // is what arms MOBIPRIV_FAULTS inside the worker.
      ::dup2(to_pipe[0], 0);
      ::dup2(from_pipe[1], 1);
      ::execl(options.worker_binary.c_str(), options.worker_binary.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(to_pipe[0]);
    ::close(from_pipe[1]);
    slot.pid = pid;
    slot.to_fd = to_pipe[1];
    slot.from_fd = from_pipe[0];
    ::fcntl(slot.from_fd, F_SETFL, O_NONBLOCK);
    slot.reader = wp::FrameReader{};
    ++stats.workers_spawned;
    if (slot.spawned_once) ++stats.worker_restarts;
    slot.spawned_once = true;
    return true;
  }

  /// Records the terminal failure of (current task, slot) and moves on.
  void Fail(Slot& slot, std::size_t slot_index, std::string error) {
    failed[slot.task][slot_index] = 1;
    errors[slot.task][slot_index] = std::move(error);
    ++stats.worker_failures;
    Advance(slot);
  }

  void Advance(Slot& slot) {
    slot.busy = false;
    slot.attempt = 0;
    ++slot.task;
  }

  /// A retryable event: kill the worker, burn one attempt, back off
  /// exponentially — or degrade the stage once attempts are exhausted.
  void RetryableFailure(Slot& slot, std::size_t slot_index,
                        const std::string& reason) {
    KillWorker(slot);
    slot.busy = false;
    ++slot.attempt;
    if (slot.attempt >= options.max_attempts) {
      Fail(slot, slot_index,
           "worker failed after " + std::to_string(options.max_attempts) +
               " attempts: " + reason);
      return;
    }
    const double delay_ms =
        options.backoff_base_ms * static_cast<double>(1u << (slot.attempt - 1));
    slot.in_backoff = true;
    slot.backoff_until = Clock::now() + FromMs(delay_ms);
  }

  void Dispatch(Slot& slot, std::size_t slot_index) {
    if (slot.pid < 0 && !Spawn(slot)) {
      RetryableFailure(slot, slot_index, "cannot spawn worker process");
      return;
    }
    const ShardStageTask& task = tasks[slot.task];
    wp::WorkerRequest request;
    request.dir = plan.dir;
    request.out_dir = out_dir;
    request.stem = task.stem;
    request.spec_text = task.spec_text;
    request.prefix_name = task.prefix_name;
    request.seed = task.seed;
    request.attempt = static_cast<std::uint64_t>(slot.attempt);
    request.shards = slot.shards;
    if (!wp::WriteFrame(slot.to_fd, wp::kFrameApply,
                        wp::EncodeRequest(request))) {
      // The worker died between requests; the exit status is the reason.
      RetryableFailure(slot, slot_index, ReapReason(slot));
      return;
    }
    slot.busy = true;
    const auto now = Clock::now();
    slot.last_heartbeat = now;
    if (options.request_timeout_ms > 0) {
      slot.deadline = now + FromMs(options.request_timeout_ms);
    }
  }

  /// Worker replied 'R': every owned shard must now have a valid result
  /// file the engine can view (GlobalViews: the shard's trace count and
  /// name table). Anything else is a torn handoff — retryable, with a
  /// basename-only (machine-independent) reason.
  void HandleRequestDone(Slot& slot, std::size_t slot_index) {
    const ShardStageTask& task = tasks[slot.task];
    for (const std::size_t shard : slot.shards) {
      const std::string path = wp::StageShardPath(out_dir, task.stem, shard);
      bool torn = MOBIPRIV_FAULT_POINT_KEYED(
          util::fault::points::kSupervisorResultValidate, task.prefix_name);
      if (!torn) {
        try {
          (void)GlobalViews(plan, shard, model::MapColumnar(path).View());
        } catch (const std::exception&) {
          torn = true;
        }
      }
      if (torn) {
        RetryableFailure(
            slot, slot_index,
            "result missing or torn: " +
                std::filesystem::path(path).filename().string());
        return;
      }
    }
    Advance(slot);
  }

  void HandleReadable(Slot& slot, std::size_t slot_index) {
    bool eof = false;
    char buf[4096];
    while (true) {
      const ::ssize_t n = ::read(slot.from_fd, buf, sizeof(buf));
      if (n > 0) {
        slot.reader.Feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      eof = true;
      break;
    }
    char type = 0;
    std::string payload;
    while (slot.from_fd >= 0 && slot.reader.Next(&type, &payload)) {
      if (type == wp::kFrameHeartbeat) {
        slot.last_heartbeat = Clock::now();
      } else if (type == wp::kFrameOk && slot.busy) {
        HandleRequestDone(slot, slot_index);
      } else if (type == wp::kFrameFail && slot.busy) {
        // Permanent, worker-reported failure: forwarded verbatim into
        // the Report's error column. The worker itself is healthy.
        Fail(slot, slot_index, std::move(payload));
      } else if (slot.busy) {
        RetryableFailure(slot, slot_index,
                         "protocol error: unexpected frame");
      } else {
        KillWorker(slot);
      }
    }
    if (slot.from_fd >= 0 && slot.reader.corrupt()) {
      if (slot.busy) {
        RetryableFailure(slot, slot_index, "protocol error: oversized frame");
      } else {
        KillWorker(slot);
      }
    }
    if (slot.from_fd >= 0 && eof) {
      if (slot.busy) {
        RetryableFailure(slot, slot_index, ReapReason(slot));
      } else {
        KillWorker(slot);  // quiet death between requests: respawn later
      }
    }
  }

  /// Clean shutdown of a slot that exhausted the task list.
  void Finish(Slot& slot) {
    if (slot.pid >= 0) {
      (void)wp::WriteFrame(slot.to_fd, wp::kFrameQuit, {});
      CloseFds(slot);
      const auto grace_end = Clock::now() + FromMs(2000.0);
      while (Clock::now() < grace_end) {
        int status = 0;
        const ::pid_t reaped = ::waitpid(slot.pid, &status, WNOHANG);
        if (reaped == slot.pid || (reaped < 0 && errno != EINTR)) {
          slot.pid = -1;
          break;
        }
        ::poll(nullptr, 0, 5);
      }
      if (slot.pid >= 0) {
        ::kill(slot.pid, SIGKILL);
        int status = 0;
        ::waitpid(slot.pid, &status, 0);
        slot.pid = -1;
      }
    }
    slot.done = true;
  }

  int ComputeTimeoutMs(Clock::time_point now) const {
    double timeout = 500.0;
    const auto consider = [&](double ms) {
      timeout = std::min(timeout, std::max(ms, 1.0));
    };
    for (const Slot& slot : slots) {
      if (slot.done) continue;
      if (slot.in_backoff) consider(MsBetween(now, slot.backoff_until));
      if (!slot.busy) continue;
      if (options.request_timeout_ms > 0) {
        consider(MsBetween(now, slot.deadline));
      }
      if (options.heartbeat_timeout_ms > 0) {
        consider(options.heartbeat_timeout_ms -
                 MsBetween(slot.last_heartbeat, now));
      }
    }
    return static_cast<int>(timeout);
  }

  std::vector<ShardStageOutcome> Run() {
    while (true) {
      const auto now = Clock::now();
      bool all_done = true;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        Slot& slot = slots[i];
        if (slot.done) continue;
        if (slot.in_backoff && now >= slot.backoff_until) {
          slot.in_backoff = false;
        }
        while (!slot.done && !slot.busy && !slot.in_backoff) {
          if (slot.task >= tasks.size()) {
            Finish(slot);
            break;
          }
          Dispatch(slot, i);
        }
        if (!slot.done) all_done = false;
      }
      if (all_done) break;

      std::vector<::pollfd> fds;
      std::vector<std::size_t> fd_slot;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].done && slots[i].from_fd >= 0) {
          fds.push_back(::pollfd{slots[i].from_fd, POLLIN, 0});
          fd_slot.push_back(i);
        }
      }
      const int timeout = ComputeTimeoutMs(Clock::now());
      if (fds.empty()) {
        ::poll(nullptr, 0, timeout);  // only backoff expiries to wait on
      } else if (::poll(fds.data(), static_cast<::nfds_t>(fds.size()),
                        timeout) > 0) {
        for (std::size_t k = 0; k < fds.size(); ++k) {
          if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          Slot& slot = slots[fd_slot[k]];
          if (!slot.done && slot.from_fd == fds[k].fd) {
            HandleReadable(slot, fd_slot[k]);
          }
        }
      }

      const auto after = Clock::now();
      for (std::size_t i = 0; i < slots.size(); ++i) {
        Slot& slot = slots[i];
        if (slot.done || !slot.busy) continue;
        if (options.request_timeout_ms > 0 && after >= slot.deadline) {
          RetryableFailure(slot, i, WatchdogText(options.request_timeout_ms));
        } else if (options.heartbeat_timeout_ms > 0 &&
                   MsBetween(slot.last_heartbeat, after) >
                       options.heartbeat_timeout_ms) {
          RetryableFailure(
              slot, i,
              "heartbeat lost (" +
                  util::FormatDouble(options.heartbeat_timeout_ms, 0) +
                  " ms)");
        }
      }
    }

    std::vector<ShardStageOutcome> outcomes(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (failed[t][i] != 0 && outcomes[t].ok) {
          outcomes[t].ok = false;
          outcomes[t].error = errors[t][i];
        }
      }
    }
    return outcomes;
  }
};

#endif  // MOBIPRIV_HAVE_FORK_EXEC

}  // namespace

std::string DefaultWorkerBinary() {
#if defined(__linux__)
  char buf[4096];
  const ::ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  const std::filesystem::path candidate =
      std::filesystem::path(buf).parent_path() / "mobipriv_worker";
  std::error_code ec;
  if (!std::filesystem::exists(candidate, ec) || ec) return {};
  if (::access(candidate.c_str(), X_OK) != 0) return {};
  return candidate.string();
#else
  return {};
#endif
}

std::string MakeScratchDir() {
  static std::atomic<std::uint64_t> counter{0};
  std::error_code ec;
  const std::filesystem::path base = std::filesystem::temp_directory_path(ec);
  if (ec) {
    throw model::IoError("cannot resolve temp directory: " + ec.message());
  }
  long pid = 0;
#if MOBIPRIV_HAVE_FORK_EXEC
  pid = static_cast<long>(::getpid());
#endif
  const std::filesystem::path dir =
      base / ("mobipriv-exec-" + std::to_string(pid) + "-" +
              std::to_string(counter.fetch_add(1)));
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw model::IoError("cannot create scratch directory " + dir.string() +
                         ": " + ec.message());
  }
  return dir.string();
}

std::vector<std::vector<std::size_t>> PartitionShards(std::size_t shard_count,
                                                      std::size_t workers) {
  std::vector<std::vector<std::size_t>> subsets;
  if (shard_count == 0) return subsets;
  const std::size_t n =
      std::min(std::max<std::size_t>(workers, 1), shard_count);
  const std::size_t base = shard_count / n;
  const std::size_t extra = shard_count % n;
  std::size_t next = 0;
  subsets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> subset(base + (i < extra ? 1 : 0));
    for (std::size_t& shard : subset) shard = next++;
    subsets.push_back(std::move(subset));
  }
  return subsets;
}

std::vector<ShardStageOutcome> RunShardStagesMultiProcess(
    const ShardStreamPlan& plan, const std::vector<ShardStageTask>& tasks,
    const std::string& out_dir, const ShardExecOptions& options,
    ShardExecStats* stats) {
  if (stats != nullptr) *stats = ShardExecStats{};
  if (tasks.empty()) return {};
#if MOBIPRIV_HAVE_FORK_EXEC
  if (options.worker_binary.empty()) {
    throw std::invalid_argument(
        "RunShardStagesMultiProcess: empty worker_binary");
  }
  if (plan.shard_count == 0) {
    throw std::invalid_argument("RunShardStagesMultiProcess: no shards");
  }
  const ScopedIgnoreSigpipe ignore_sigpipe;
  Supervisor supervisor(plan, tasks, out_dir, options);
  std::vector<ShardStageOutcome> outcomes = supervisor.Run();
  if (stats != nullptr) *stats = supervisor.stats;
  return outcomes;
#else
  std::vector<ShardStageOutcome> outcomes(tasks.size());
  for (ShardStageOutcome& outcome : outcomes) {
    outcome.ok = false;
    outcome.error = "multi-process execution unavailable on this platform";
  }
  return outcomes;
#endif
}

}  // namespace mobipriv::core
