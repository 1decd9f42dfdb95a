// Experiment harness: declarative run specs, a work-stealing host-parallel
// executor (exec/sweep_executor.hpp — one deterministic simulation per job,
// no shared mutable state, results committed in spec order), and a
// file-backed result cache so the Fig. 6/7a-d binaries — which share one
// 9-app x 4-system x 7-size grid (FullCoh/PT/RaCCD plus the WbNC
// software-coherence baseline) — compute it only once.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "raccd/apps/app.hpp"
#include "raccd/metrics/series.hpp"
#include "raccd/obs/profiler.hpp"
#include "raccd/sim/config.hpp"
#include "raccd/sim/stats.hpp"

namespace raccd {

struct RunSpec {
  std::string app = "jacobi";
  /// Workload knob overrides in canonical "k=v,k2=v2" form (see
  /// WorkloadParams::canonical()); empty = size-class defaults only, which
  /// keeps legacy cache keys unchanged.
  std::string params;
  SizeClass size = SizeClass::kSmall;
  CohMode mode = CohMode::kFullCoh;
  std::uint32_t dir_ratio = 1;
  bool adr = false;
  // ADR hysteresis band; only non-default values enter the key.
  double adr_theta_inc = 0.80;
  double adr_theta_dec = 0.20;
  bool paper_machine = false;
  std::uint64_t seed = 42;
  // Overheads / ablation knobs.
  Cycle ncrt_latency = 1;
  std::uint32_t ncrt_entries = 32;
  AllocPolicy alloc = AllocPolicy::kContiguous;
  SchedPolicy sched = SchedPolicy::kFifo;
  /// Machine-shape token (topo/topology.hpp): "flat" (default, legacy cache
  /// keys unchanged), "cmesh[<K>]", "numa<S>" or "numa<S>x<C>".
  std::string topo = "flat";
  /// Memory-system token (dram/dram.hpp): "simple" (default, legacy cache
  /// keys unchanged and flat-latency behavior byte-identical) or
  /// "ddr[-open|-closed][-fcfs|-frfcfs][-ch<N>][-bk<N>]".
  std::string dram = "simple";
  /// Phase-resolved sampling (metrics/series.hpp): sample the selected
  /// metrics every `series_interval` cycles (0 = off; empty selection =
  /// default subset). Sampling never perturbs the simulation, so the cache
  /// key is unchanged — the executor instead refuses to satisfy a sampling
  /// spec from the stats cache (a cached SimStats carries no series).
  Cycle series_interval = 0;
  std::string series_metrics;
  /// Sampled-simulation token (sim/config.hpp SamplingConfig):
  /// "period/window[/warmup]" in tasks, e.g. "10/1/1" — alternate functional
  /// fast-forward with detailed measurement windows and extrapolate. Empty
  /// (default) = fully detailed; the key gains a token only when sampling is
  /// on, so legacy cache keys stay valid and sampled results re-key the
  /// stats cache instead of polluting detailed entries.
  std::string sampling;

  /// "name" or "name:k=v,...": the registry reference this spec runs.
  [[nodiscard]] std::string workload_ref() const;
  /// Set app + params from a registry reference; returns "" or an error.
  [[nodiscard]] std::string set_workload_ref(std::string_view ref);

  /// Stable identity string (cache key and log label).
  [[nodiscard]] std::string key() const;
};

/// Build the SimConfig a spec describes.
[[nodiscard]] SimConfig config_for(const RunSpec& spec);

/// Run one simulation: build machine, run app, *verify the functional
/// result* (aborts on corruption — every benchmark run is also an
/// end-to-end correctness test), and collect stats. When the spec samples a
/// series and `series_out` is non-null, the recorded Series is copied there
/// (cheap next to the simulation: at most max_samples rows).
[[nodiscard]] SimStats run_one(const RunSpec& spec, Series* series_out = nullptr);

/// Like run_one, but *run-level* failures — unknown workload, invalid
/// parameters, functional verification mismatch — return nullopt with the
/// message in `*error` instead of aborting, so the sweep executor can report
/// the failing spec's key and drain the rest of the sweep. Simulator
/// invariant violations (RACCD_ASSERT deep inside the Machine) still abort.
/// `phase_hook`, when set, fires on every sampled-simulation phase
/// transition with (phase, window index) — the sweep progress strip uses it
/// to show whether a worker is fast-forwarding or measuring. `release_hook`,
/// when set, fires on every open-loop release batch with the total requests
/// released so far (the strip's `|rel<N>` suffix). `profile`, when set,
/// receives the run's wall-time breakdown (setup vs simulate) — host-side
/// observation only, never part of the stats or the cache key.
[[nodiscard]] std::optional<SimStats> run_one_checked(
    const RunSpec& spec, Series* series_out, std::string* error,
    const std::function<void(SimPhase, std::uint64_t)>& phase_hook = {},
    const std::function<void(std::uint64_t)>& release_hook = {},
    obs::RunProfile* profile = nullptr);

struct RunOptions {
  /// Worker threads for the sweep (--jobs). 0 = hardware concurrency;
  /// 1 = serial inline on the calling thread (the historical behavior; no
  /// pool threads).
  unsigned jobs = 0;
  bool use_cache = true;    ///< file-backed cache under cache_dir
  std::string cache_dir = "results/cache";
  bool verbose = false;     ///< progress lines to stderr
  /// Deterministic work partition for fanning one sweep across machines:
  /// shard k of N executes the deduped to-run list positions with
  /// `slot % shard_count == shard_index`. Out-of-shard specs return cached
  /// results when available and zeroed stats otherwise; merging is by run
  /// key through the shared cache directory (or the bench JSON files).
  unsigned shard_index = 0;
  unsigned shard_count = 1;
};

/// Run all specs over the work-stealing executor (cache-aware); results
/// align with specs, and because each worker commits into its spec's slot,
/// the vector — and every file derived from it — is byte-identical between
/// -j1 and -jN. `series_out`, when non-null, is resized to specs.size();
/// entries for sampling specs hold their series (others stay empty).
/// Sampling specs never load from the stats cache — they must execute to
/// record. On a failed spec the sweep stops issuing work, drains in-flight
/// runs, reports every failure's RunSpec::key(), and aborts.
[[nodiscard]] std::vector<SimStats> run_all(const std::vector<RunSpec>& specs,
                                            const RunOptions& opts = {},
                                            std::vector<Series>* series_out = nullptr);

/// Common CLI/env options for the bench binaries:
/// --size=tiny|small|medium|paper|large, --paper (machine preset),
/// --topology=T, --dram=D, --sample=period/window[/warmup], --no-cache,
/// --jobs=N / -jN (worker threads; --threads=N is a legacy alias),
/// --verbose, --shard=i/N (deterministic sweep partition), and repeatable
/// --set key=value workload-parameter passthrough (env: RACCD_SIZE,
/// RACCD_PAPER, RACCD_NO_CACHE, RACCD_JOBS, RACCD_THREADS, RACCD_SHARD).
struct BenchOptions {
  SizeClass size = SizeClass::kSmall;
  bool paper_machine = false;
  /// Machine-shape token for every run of the binary's grid (default flat).
  std::string topo = "flat";
  /// Memory-system token for every run of the binary's grid (default simple).
  std::string dram = "simple";
  /// Sampled-simulation token for every run of the grid (empty = detailed).
  std::string sampling;
  /// --set overrides, applied to every workload of the binary's grid.
  WorkloadParams params;
  RunOptions run{};

  static BenchOptions parse(int argc, char** argv);
};

}  // namespace raccd
