// Host-side (wall-clock) profiling for sweeps: lightweight scope timers fill
// a per-run setup/sim breakdown, the SweepExecutor aggregates them with
// per-worker busy time and steal telemetry from the work-stealing pool, and
// the result is surfaced three ways — the progress reporter's final summary
// line, an opt-in `__profile__` entry merged into results/BENCH_*.json, and
// `raccd-report profile` for showing/diffing recorded breakdowns.
//
// Host time never touches SimStats, cache keys, or the stats cache: profile
// data is nondeterministic by nature, so it rides beside the results (a
// double-underscore bench entry the perf differ skips), never inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace raccd::obs {

/// Monotonic wall-clock scope timer; seconds since construction or reset().
class ScopeTimer {
 public:
  ScopeTimer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Wall-time breakdown of one simulation run.
struct RunProfile {
  double setup_s = 0.0;  ///< SimConfig + Machine + workload construction
  double sim_s = 0.0;    ///< app body + replay + collect
};

struct WorkerProfile {
  double busy_s = 0.0;     ///< summed run wall time on this worker
  std::uint64_t runs = 0;  ///< runs completed (incl. failed)
};

/// Aggregated profile of one sweep (one run_all / SweepExecutor::run call).
struct SweepProfile {
  double wall_s = 0.0;     ///< whole sweep, preload to drain
  double preload_s = 0.0;  ///< cache preload scan
  double setup_s = 0.0;    ///< summed RunProfile::setup_s across runs
  double sim_s = 0.0;      ///< summed RunProfile::sim_s across runs
  double export_s = 0.0;   ///< bench JSON render+merge (accumulated by grid)
  std::uint64_t cached = 0;    ///< specs satisfied from the stats cache
  std::uint64_t executed = 0;  ///< specs actually simulated
  std::uint64_t failed = 0;    ///< specs that failed verification/setup
  std::uint64_t deduped = 0;   ///< duplicate specs satisfied by copy
  std::uint64_t steals = 0;    ///< pool steal count (0 for -j1)
  unsigned jobs = 1;
  std::vector<WorkerProfile> workers;

  /// Summed worker busy time over jobs * wall_s; 0 when nothing ran.
  [[nodiscard]] double utilization() const;
  /// One-line wall-time breakdown ("3.2s wall (setup 0.1s, sim 3.0s, …)") —
  /// the progress reporter's final line appends it after the run counts.
  [[nodiscard]] std::string summary() const;
  /// Bench-JSON field list for the `__profile__` entry (sorted keys).
  [[nodiscard]] std::string json_fields() const;
};

/// The most recent sweep's profile on the calling thread. SweepExecutor::run
/// fills it on the thread that called run (its pool workers never touch it);
/// bench binaries read it there to merge into their BENCH files and grid
/// export timing accumulates into export_s. One object per thread, so
/// sweeps run concurrently from different threads never share it.
[[nodiscard]] SweepProfile& last_sweep_profile();

}  // namespace raccd::obs
