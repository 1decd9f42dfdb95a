// Replay ledger: per-layer host cost measured from outside the simulator.
//
// A simulation's access streams are captured through the public
// Machine::set_trace_sink hook. After the run, the captured stream is
// replayed through each layer's public entry point on fresh instances of
// that layer (or, for the stateless and functional layers, on the run's own
// objects), and each replay loop is timed as a whole: ns per call and an
// exact call count per layer. This stands in for in-simulator layer
// counters; the call pattern approximates the machine's, it does not copy it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "raccd/runtime/task.hpp"
#include "raccd/sim/machine.hpp"
#include "spans.hpp"

namespace perfbench {

/// Layers of the ledger, in report order.
inline constexpr const char* kLedgerLayers[] = {
    "tlb",        "cache.l1_find", "coherence.fabric", "topo.route", "topo.mem_controller",
    "core.ncrt",  "runtime.dep",   "mem",
};

struct LayerCost {
  double seconds = 0.0;     ///< host time of the replay loop
  std::uint64_t calls = 0;  ///< calls into the layer's entry point
};

/// Access stream and task dependences of one simulation.
class Capture {
 public:
  /// Streams longer than this are truncated (bounds host memory); the
  /// truncation point is deterministic, so call counts stay exact.
  static constexpr std::size_t kMaxAccesses = 2'000'000;

  /// Install the trace sink on `m`; the capture must outlive the run.
  void attach(raccd::Machine& m);

  struct Access {
    raccd::VAddr va = 0;
    raccd::PAddr pa = 0;
    std::uint32_t task = 0;  ///< index into tasks()
    std::uint8_t is_write = 0;
    std::uint8_t size = 0;
  };
  struct Task {
    raccd::TaskId id = 0;
    std::vector<raccd::DepSpec> deps;
  };

  [[nodiscard]] const std::vector<Access>& accesses() const noexcept { return accesses_; }
  [[nodiscard]] const std::vector<Task>& tasks() const noexcept { return tasks_; }
  /// Trace records the machine replayed — one Fabric::access call each.
  [[nodiscard]] std::uint64_t records_in_run() const noexcept { return records_in_run_; }
  /// Dependences registered at spawn — one DepRegistry::register_dep each.
  [[nodiscard]] std::uint64_t deps_in_run() const noexcept { return deps_in_run_; }

 private:
  std::vector<Access> accesses_;
  std::vector<Task> tasks_;
  std::uint64_t records_in_run_ = 0;
  std::uint64_t deps_in_run_ = 0;
};

/// Replay `cap` through every ledger layer, adding each loop's time and
/// call count to `out`. `m` is the machine that produced the capture (its
/// config, page table, topology and simulated memory are reused; its
/// statistics were already collected). Each loop gets a span when `log` is
/// non-null.
void replay(const Capture& cap, raccd::Machine& m, std::map<std::string, LayerCost>& out,
            SpanLog* log, std::uint32_t sim);

}  // namespace perfbench
