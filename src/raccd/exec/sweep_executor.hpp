// SweepExecutor: drives a list of RunSpecs over the work-stealing pool.
//
// This is the harness-side half of the exec/ subsystem (it is compiled into
// the harness layer: it speaks RunSpec/SimStats/sweep-cache, which the
// generic pool below it deliberately does not). run_all() and Grid::run()
// are thin wrappers over it.
//
// Guarantees, in order of importance:
//
//  * Determinism — workers commit each result into results[spec_index], so
//    the returned vector (and everything derived from it: ResultSet CSV and
//    JSON, the merged results/BENCH_grid.json) is byte-identical between
//    -j1 and -jN regardless of completion order. The simulations themselves
//    are independent Machines with per-spec seeds and share no mutable
//    state.
//  * At-most-once simulation per key — specs are deduplicated by cache key
//    (sampling variants dedup separately; a series only exists if the run
//    executes) before any work is issued, so two workers never simulate the
//    same uncached spec; duplicates are copied from the first instance
//    after the sweep drains. Across *processes*, the sweep cache's unique
//    temp-name + rename store keeps concurrent writers of one key safe
//    (last writer wins with identical bytes — the model is deterministic).
//  * Failure containment — a spec that fails (unknown workload, functional
//    verification, an exception out of the app) records its RunSpec::key()
//    and error, cancels all queued specs, and lets in-flight specs drain;
//    it does not abort the process mid-sweep. Callers inspect failures()
//    (run_all reports them and then aborts, preserving its historical
//    contract). A cancelled spec is never silent: its slot is marked
//    dropped in statuses() and its key listed in dropped() and in the
//    progress summary. RACCD_ASSERT failures deep inside the simulator still
//    abort the process — those are simulator invariants, not run failures.
//
// jobs == 1 runs every spec inline on the calling thread (no pool, exactly
// the historical serial path): no thread start-up, and a debugger or
// profiler sees one stack.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "raccd/harness/experiment.hpp"

namespace raccd {

/// One failed spec: its identity key and what went wrong.
struct SweepFailure {
  std::string key;
  std::string error;
};

/// What the last run() did with one result slot. Only kRan slots hold stats;
/// the others keep zeroed stats.
enum class SlotStatus : std::uint8_t {
  kRan,         ///< simulated, loaded from the cache, or copied from a duplicate
  kFailed,      ///< started and failed (see failures())
  kDropped,     ///< never started: an earlier failure cancelled it
  kOtherShard,  ///< uncached and assigned to another --shard
};

class SweepExecutor {
 public:
  explicit SweepExecutor(const RunOptions& opts) : opts_(opts) {}

  /// Execute `specs`; results align with specs by index. Cached results are
  /// loaded up front, the remainder is deduplicated, sharded (--shard=i/N),
  /// and fanned over the pool. On failure the sweep stops issuing new work
  /// and drains; failed and dropped slots keep zeroed stats — check
  /// statuses() (or failures() and dropped()).
  [[nodiscard]] std::vector<SimStats> run(const std::vector<RunSpec>& specs,
                                          std::vector<Series>* series_out = nullptr);

  /// Failures from the last run(), in completion order (first entry is the
  /// failure that stopped the sweep).
  [[nodiscard]] const std::vector<SweepFailure>& failures() const noexcept {
    return failures_;
  }

  /// Outcome of each slot of the last run(), aligned with its specs.
  [[nodiscard]] const std::vector<SlotStatus>& statuses() const noexcept {
    return statuses_;
  }

  /// Keys of the specs the last run() dropped, in spec order (duplicates of
  /// one key listed once).
  [[nodiscard]] const std::vector<std::string>& dropped() const noexcept {
    return dropped_;
  }

  /// Effective worker count for `jobs` (0 = hardware concurrency) and a
  /// sweep of `todo` runs (never more workers than runs, never 0).
  [[nodiscard]] static unsigned effective_jobs(unsigned jobs, std::size_t todo);

 private:
  RunOptions opts_;
  std::vector<SweepFailure> failures_;
  std::vector<SlotStatus> statuses_;
  std::vector<std::string> dropped_;
};

}  // namespace raccd
