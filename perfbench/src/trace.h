// In-memory span recorder for the traced run. Spans are opened and closed
// by the benchmark's own code around its calls into each library layer
// (the library itself is not instrumented), kept in memory, and written
// at exit as Chrome trace-event JSON (load it in chrome://tracing or
// Perfetto). Recording is single-threaded: every span is opened on the
// benchmark's main thread, and the layer calls it wraps may fan out to
// the library's thread pool inside it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;   ///< the call, e.g. "mixzone.apply"
  std::string layer;  ///< the library layer it belongs to, e.g. "mechanisms"
  double start_ms = 0.0;  ///< since the tracer was created
  double end_ms = 0.0;
  int parent = -1;  ///< index of the enclosing span; -1 for a root
  int run = 0;      ///< traced iteration this span belongs to

  [[nodiscard]] double DurationMs() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  Tracer();

  /// Opens a span nested in the innermost open one; returns its index.
  int Begin(std::string name, std::string layer);
  /// Closes span `index` and any span still open inside it.
  void End(int index);

  /// Subsequent spans belong to run `run`.
  void SetRun(int run) { run_ = run; }
  [[nodiscard]] int run() const noexcept { return run_; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time per layer inside root span `root` (the root included): each
  /// span's duration minus the part of it its child spans cover, summed by
  /// layer, ms.
  [[nodiscard]] std::map<std::string, double> SelfMsByLayer(int root) const;

  /// Share of root span `root`'s duration covered by its direct children.
  [[nodiscard]] double Coverage(int root) const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events;
  /// args carry the span id, its parent and its run).
  void WriteChromeJson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string layer)
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(std::move(name), std::move(layer))
                      : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
