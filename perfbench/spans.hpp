// Host-time spans recorded by the benchmark around its calls into the
// simulator's layers. Spans stay in memory and are written once, at exit, as
// Chrome Trace Event JSON (one "X" record per span, on a single track). A
// span's self time is its duration minus the time its direct children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    int parent = -1;           ///< index into spans(), -1 = root
    std::uint32_t sim = 0;     ///< simulation id (0 = not tied to one)
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Open a span as a child of the innermost open span; returns its index.
  int open(std::string name, std::uint32_t sim);
  /// Close the innermost open span (must be `index`).
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Summed duration and summed self time per span name, in seconds.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Write the Chrome Trace Event JSON document; returns "" or an error.
  [[nodiscard]] std::string write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one scope; when `log` is non-null it also records a span. The
/// duration is available whether or not a span is recorded.
class Timed {
 public:
  Timed(SpanLog* log, const char* name, std::uint32_t sim = 0)
      : log_(log), index_(log != nullptr ? log->open(name, sim) : -1), t0_(Clock::now()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// End the scope early; returns its duration in seconds (idempotent).
  double stop() {
    if (!stopped_) {
      seconds_ = seconds_since(t0_);
      if (log_ != nullptr) log_->close(index_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  SpanLog* log_;
  int index_;
  Clock::time_point t0_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace perfbench
