#include "trace.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int Tracer::Begin(std::string name, std::string layer) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  // ScopedSpan closes spans in reverse opening order, so `index` is the
  // innermost open span; popping down to it keeps the stack sound anyway.
  while (!open_.empty() && open_.back() >= index) open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - origin_)
          .count();
}

std::map<std::string, double> Tracer::SelfMsByLayer(int root) const {
  // Children nest strictly inside their parent on one thread, so the
  // covered part of a span is the sum of its children's durations. A
  // parent precedes its children, so one forward pass marks the subtree.
  std::vector<double> covered(spans_.size(), 0.0);
  std::vector<bool> inside(spans_.size(), false);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    inside[i] = static_cast<int>(i) == root ||
                (parent >= 0 && inside[static_cast<std::size_t>(parent)]);
    if (parent >= 0) {
      covered[static_cast<std::size_t>(parent)] += spans_[i].DurationMs();
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (inside[i]) self[spans_[i].layer] += spans_[i].DurationMs() - covered[i];
  }
  return self;
}

double Tracer::Coverage(int root) const {
  double covered = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == root) covered += span.DurationMs();
  }
  const double total = spans_[static_cast<std::size_t>(root)].DurationMs();
  return total > 0.0 ? covered / total : 0.0;
}

void Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buffer[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Names and layers are the benchmark's own identifiers: no quoting
    // or escaping needed.
    std::snprintf(buffer, sizeof(buffer),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                  span.start_ms * 1e3, span.DurationMs() * 1e3);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
        << "\",\"cat\":\"" << span.layer << "\"," << buffer
        << "\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"run\":" << span.run << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
