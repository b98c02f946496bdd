// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a layer's public API, timed from the
// benchmark's own code: name, start, end, the span that caused it and
// the job it belongs to.  Spans stay in memory and are written out once,
// when the run ends; run.py turns them into per-layer self times.  With
// no tracer installed (the end-to-end run) a ScopedSpan is one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since the first call (process-relative timestamps).
inline double now_us() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - origin).count();
}

struct Span {
  std::string name;
  int64_t parent = -1;  // index of the causing span, -1 for a root
  uint64_t job = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  double n = 0.0;  // work done inside the span (steps, cycles), 0 when not counted
};

class Tracer {
 public:
  int64_t begin(std::string_view name, int64_t parent, uint64_t job) {
    const double start = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::string(name), parent, job, start, start, 0.0});
    return static_cast<int64_t>(spans_.size() - 1);
  }

  void end(int64_t id, double n) {
    const double end = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_us = end;
    span.n = n;
  }

  /// The recorded spans; call once every traced thread has finished.
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The installed tracer; null in the end-to-end (untraced) run.
inline Tracer* g_tracer = nullptr;

/// The innermost open span and job of this thread (the default parent).
inline thread_local int64_t t_current_span = -1;
inline thread_local uint64_t t_current_job = 0;

/// Records one span for its scope and makes it the parent of spans
/// opened inside it on the same thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) : ScopedSpan(name, t_current_span, t_current_job) {}

  ScopedSpan(std::string_view name, int64_t parent, uint64_t job) {
    if (g_tracer == nullptr) return;
    saved_span_ = t_current_span;
    saved_job_ = t_current_job;
    id_ = g_tracer->begin(name, parent, job);
    t_current_span = id_;
    t_current_job = job;
  }

  ~ScopedSpan() {
    if (id_ < 0) return;
    g_tracer->end(id_, n_);
    t_current_span = saved_span_;
    t_current_job = saved_job_;
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int64_t id() const noexcept { return id_; }
  void set_work(double n) noexcept { n_ = n; }

 private:
  int64_t id_ = -1;
  int64_t saved_span_ = -1;
  uint64_t saved_job_ = 0;
  double n_ = 0.0;
};

}  // namespace perfbench
