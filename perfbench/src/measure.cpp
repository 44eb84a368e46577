#include "measure.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "model/columnar_file.h"

namespace perfbench {
namespace fs = std::filesystem;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return seconds(self.ru_utime) + seconds(self.ru_stime) +
         seconds(children.ru_utime) + seconds(children.ru_stime);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

CpuPin::CpuPin(std::size_t index) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

std::uint64_t ReadVmHwmBytes(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;  // reported in kB
    }
  }
  return 0;
}

PeakRssMeter::~PeakRssMeter() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  if (sampler_.joinable()) sampler_.join();
}

void PeakRssMeter::Start(bool track_children) {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
    child_peak_.clear();
  }
  if (track_children) sampler_ = std::thread([this] { SampleChildren(); });
}

void PeakRssMeter::SampleChildren() {
  for (;;) {
    // Children of every thread: the supervisor forks from whichever
    // thread runs the engine.
    std::vector<std::string> pids;
    std::error_code ec;
    for (const auto& task : fs::directory_iterator("/proc/self/task", ec)) {
      std::ifstream children(task.path() / "children");
      std::string pid;
      while (children >> pid) pids.push_back(pid);
    }
    std::vector<std::pair<int, std::uint64_t>> samples;
    for (const std::string& pid : pids) {
      samples.emplace_back(std::stoi(pid), ReadVmHwmBytes(pid));
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& [pid, bytes] : samples) {
        child_peak_[pid] = std::max(child_peak_[pid], bytes);
      }
      if (stop_) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

double PeakRssMeter::StopMb() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  if (sampler_.joinable()) sampler_.join();
  std::uint64_t bytes = ReadVmHwmBytes("self");
  for (const auto& [pid, peak] : child_peak_) bytes += peak;
  return static_cast<double>(bytes) / 1e6;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::uint64_t Digest(const std::string& bytes) {
  return mobipriv::model::Fnv1a64(bytes.data(), bytes.size());
}

std::string RowsText(const std::vector<mobipriv::core::ReportRow>& rows) {
  std::string text;
  char value[64];
  for (const mobipriv::core::ReportRow& row : rows) {
    std::snprintf(value, sizeof(value), "%.17g", row.value);
    text += row.mechanism + '\t' + std::to_string(row.seed) + '\t' +
            row.evaluator + '\t' + row.metric + '\t' + value + '\t' +
            std::string(mobipriv::core::ToString(row.status)) + '\t' +
            row.error + '\n';
  }
  return text;
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
