// End-of-run statistics: everything the paper's figures plot, in one struct.
#pragma once

#include <cstdint>
#include <string>

#include "raccd/coherence/fabric_stats.hpp"
#include "raccd/common/stat_fields.hpp"
#include "raccd/core/adr_config.hpp"
#include "raccd/core/ncrt.hpp"
#include "raccd/core/pt_classifier.hpp"
#include "raccd/modes/coh_mode.hpp"
#include "raccd/noc/mesh.hpp"
#include "raccd/tlb/tlb.hpp"

namespace raccd {

/// Sampled-simulation bookkeeping (SamplingConfig): how much of the run was
/// measured, the extrapolation factor applied to the fabric/NoC counters,
/// and per-metric 95% confidence half-widths from the window-to-window
/// variation of the measured rates. All zero (scale 1) for detailed runs.
/// The *_ci95 half-widths are absolute, in the units of the metric they
/// annotate; their flat keys pair with the base keys so raccd-report can
/// widen its tolerance bands CI-aware.
#define RACCD_SAMPLING_STATS(X)                                                           \
  X(std::uint64_t, active, "sampling_active", nullptr, nullptr, "", kCounter, nullptr)    \
  X(std::uint64_t, windows, "sampling_windows", "sampling.windows", "sampling_windows",   \
    "", kCounter, "measured sampling windows with at least one access")                   \
  X(std::uint64_t, measured_tasks, "sampling_measured_tasks", "sampling.measured_tasks",  \
    "sampling_measured_tasks", "", kCounter,                                              \
    "tasks replayed with detailed timing into the measured bucket")                       \
  X(std::uint64_t, warmup_tasks, "sampling_warmup_tasks", "sampling.warmup_tasks",        \
    "sampling_warmup_tasks", "", kCounter, "detailed-warmup tasks (timed but not measured)") \
  X(std::uint64_t, ffwd_tasks, "sampling_ffwd_tasks", "sampling.ffwd_tasks",              \
    "sampling_ffwd_tasks", "", kCounter, "tasks fast-forwarded functionally")             \
  X(std::uint64_t, measured_accesses, "sampling_measured_accesses",                       \
    "sampling.measured_accesses", "sampling_measured_accesses", "", kCounter,             \
    "accesses replayed in measured windows")                                              \
  X(std::uint64_t, ffwd_accesses, "sampling_ffwd_accesses", "sampling.ffwd_accesses",     \
    "sampling_ffwd_accesses", "", kCounter, "accesses replayed functionally (fast-forward)") \
  X(double, scale, "sampling_scale", "sampling.scale", "sampling_scale", "", kRatio,      \
    "extrapolation factor: total / measured accesses", 1.0)                               \
  X(double, cycles_ci95, "sampling_cycles_ci95", "sampling.cycles_ci95", "cycles_ci95",   \
    "cycles", kRatio, "95% CI half-width on extrapolated cycles")                         \
  X(double, dir_accesses_ci95, "sampling_dir_accesses_ci95",                              \
    "sampling.dir_accesses_ci95", "dir_accesses_ci95", "", kRatio,                        \
    "95% CI half-width on extrapolated directory accesses")                               \
  X(double, llc_hits_ci95, "sampling_llc_hits_ci95", "sampling.llc_hits_ci95",            \
    "llc_hits_ci95", "", kRatio, "95% CI half-width on extrapolated LLC hits")            \
  X(double, noc_flits_ci95, "sampling_noc_flits_ci95", "sampling.noc_flits_ci95",         \
    "noc_flits_ci95", "flits", kRatio, "95% CI half-width on extrapolated NoC flits")     \
  X(double, noc_flit_hops_ci95, "sampling_noc_flit_hops_ci95",                            \
    "sampling.noc_flit_hops_ci95", "noc_flit_hops_ci95", "flit-hops", kRatio,             \
    "95% CI half-width on extrapolated NoC flit-hops")                                    \
  X(double, dram_row_hits_ci95, "sampling_dram_row_hits_ci95",                            \
    "sampling.dram_row_hits_ci95", "dram_row_hits_ci95", "", kRatio,                      \
    "95% CI half-width on extrapolated DRAM row hits")                                    \
  X(double, dram_row_hit_rate_ci95, "sampling_dram_row_hit_rate_ci95",                    \
    "sampling.dram_row_hit_rate_ci95", "dram_row_hit_rate_ci95", "", kRatio,              \
    "95% CI half-width on the DRAM row-hit rate")                                         \
  X(double, dir_occupancy_ci95, "sampling_dir_occupancy_ci95",                            \
    "sampling.dir_occupancy_ci95", "avg_dir_occupancy_ci95", "", kRatio,                  \
    "95% CI half-width on average directory occupancy")

struct SamplingStats {
  RACCD_SAMPLING_STATS(RACCD_STAT_MEMBER)  // active: 1 when the run used sampling
  RACCD_STAT_FOR_EACH(RACCD_SAMPLING_STATS)
};
static_assert(stat_fields_cover<SamplingStats>(), "SamplingStats member outside its field list");

/// Summary of one latency distribution (cycles): produced by
/// metrics::Histogram, reported by the `distribution` metric kind. Rows are
/// X(TYPE, MEMBER, METRIC, DOC, CONTEXT...); ServiceStats spells each
/// distribution's keys ("service_e2e_p99" / "service.e2e.p99").
#define RACCD_DIST_SUMMARY_STATS(X, ...)                \
  X(std::uint64_t, count, false, "count", __VA_ARGS__)  \
  X(double, mean, true, "mean", __VA_ARGS__)            \
  X(double, p50, true, "median", __VA_ARGS__)           \
  X(double, p95, true, "95th percentile", __VA_ARGS__)  \
  X(double, p99, true, "99th percentile", __VA_ARGS__)  \
  X(double, max, true, "maximum", __VA_ARGS__)

#define RACCD_DIST_MEMBER(TYPE, MEMBER, ...) TYPE MEMBER{};
struct DistSummary {
  RACCD_DIST_SUMMARY_STATS(RACCD_DIST_MEMBER, )
};
#undef RACCD_DIST_MEMBER

/// Open-loop service-run bookkeeping: per-request latency distributions
/// grouped by TaskNode::request. All zero for batch runs (`requests == 0`
/// gates the cache/JSON blocks, like SamplingStats::active).
#define RACCD_SERVICE_STATS(X)                                                  \
  X(std::uint64_t, requests, "service_requests", "service.requests",            \
    "service_requests", "", kCounter, "completed service requests (open-loop runs)")

#define RACCD_SERVICE_DIST_VISIT(TYPE, MEMBER, METRIC, DOC, DIST, NAME, WHAT)          \
  f(StatField{"service_" NAME "_" #MEMBER, METRIC ? "service." NAME "." #MEMBER : nullptr, \
              "service_" NAME "_" #MEMBER, "cycles", MetricKind::kDistribution,        \
              WHAT " latency, " DOC},                                                  \
    [](auto& s) -> auto& { return s.DIST.MEMBER; });

struct ServiceStats {
  RACCD_SERVICE_STATS(RACCD_STAT_MEMBER)  // completed requests observed
  DistSummary queueing{};                 ///< release -> first task start
  DistSummary service{};                  ///< first task start -> last task end
  DistSummary e2e{};                      ///< release -> last task end

  template <class F>
  static constexpr void for_each_field(F&& f) {
    RACCD_SERVICE_STATS(RACCD_STAT_VISIT)
    RACCD_DIST_SUMMARY_STATS(RACCD_SERVICE_DIST_VISIT, queueing, "queue",
                             "request queueing (release to first task start)")
    RACCD_DIST_SUMMARY_STATS(RACCD_SERVICE_DIST_VISIT, service, "svc",
                             "request service (first task start to last task end)")
    RACCD_DIST_SUMMARY_STATS(RACCD_SERVICE_DIST_VISIT, e2e, "e2e",
                             "request end-to-end (release to last task end)")
  }
};
static_assert(stat_fields_cover<ServiceStats>(), "ServiceStats member outside its field list");
#undef RACCD_SERVICE_DIST_VISIT

/// SimStats' own scalars. The identity fields (no metric) come first: they
/// are the only members narrower than 8 bytes, packed into one word.
#define RACCD_SIM_STATS(X)                                                                \
  X(CohMode, mode, "mode", nullptr, nullptr, "", kCounter, nullptr)                       \
  X(bool, adr_enabled, "adr_enabled", nullptr, nullptr, "", kCounter, nullptr)            \
  X(std::uint32_t, dir_ratio, "dir_ratio", nullptr, nullptr, "", kCounter, nullptr, 1)    \
  /* Time (paper Fig. 6, 9) */                                                            \
  X(Cycle, cycles, "cycles", "cycles", "cycles", "cycles", kCycles,                       \
    "end-to-end execution time (paper Fig. 6/9)")                                         \
  X(Cycle, busy_cycles, "busy_cycles", "time.busy_cycles", "busy_cycles", "cycles",       \
    kCycles, "sum of per-core task execution time")                                       \
  X(double, core_utilization, "core_utilization", "time.core_utilization",                \
    "core_utilization", "", kRatio, "busy_cycles / (cycles x cores)")                     \
  /* Runtime activity */                                                                  \
  X(std::uint64_t, tasks, "tasks", "runtime.tasks", "tasks", "", kCounter, "tasks created") \
  X(std::uint64_t, edges, "edges", "runtime.edges", "edges", "", kCounter,                \
    "TDG dependence edges")                                                               \
  X(std::uint64_t, accesses_replayed, "accesses_replayed", "runtime.accesses_replayed",   \
    "accesses_replayed", "", kCounter, "memory accesses replayed through the timing model") \
  X(Cycle, create_cycles, "create_cycles", "runtime.create_cycles", "create_cycles",      \
    "cycles", kCycles, "task creation + dependence analysis time")                        \
  X(Cycle, schedule_cycles, "schedule_cycles", "runtime.schedule_cycles",                 \
    "schedule_cycles", "cycles", kCycles, "scheduling phase time (paper Fig. 3)")         \
  X(Cycle, wakeup_cycles, "wakeup_cycles", "runtime.wakeup_cycles", "wakeup_cycles",      \
    "cycles", kCycles, "wake-up phase time")                                              \
  X(Cycle, register_cycles, "register_cycles", "runtime.register_cycles",                 \
    "register_cycles", "cycles", kCycles, "raccd_register total")                         \
  X(Cycle, invalidate_cycles, "invalidate_cycles", "runtime.invalidate_cycles",           \
    "invalidate_cycles", "cycles", kCycles, "raccd_invalidate total (incl. cache walks)") \
  X(std::uint64_t, flushed_nc_lines, "flushed_nc_lines", "runtime.flushed_nc_lines",      \
    "flushed_nc_lines", "", kCounter, "NC lines flushed at task ends")                    \
  X(std::uint64_t, flushed_nc_wbs, "flushed_nc_wbs", "runtime.flushed_nc_wbs",            \
    "flushed_nc_wbs", "", kCounter, "dirty NC lines written back at task ends")           \
  /* Block classification (paper Fig. 2) */                                               \
  X(std::uint64_t, blocks_touched, "blocks_touched", "blocks.touched", "blocks_touched",  \
    "", kCounter, "distinct cache blocks touched")                                        \
  X(std::uint64_t, blocks_noncoherent, "blocks_noncoherent", "blocks.noncoherent",        \
    "blocks_noncoherent", "", kCounter, "touched blocks never accessed coherently")       \
  X(double, noncoherent_block_fraction, "noncoherent_block_fraction", "blocks.nc_fraction", \
    "nc_block_fraction", "", kRatio, "non-coherent fraction of touched blocks (paper Fig. 2)") \
  /* Directory occupancy (paper Fig. 8) and ADR power state */                            \
  X(double, avg_dir_occupancy, "avg_dir_occupancy", "dir.avg_occupancy",                  \
    "avg_dir_occupancy", "", kRatio,                                                      \
    "directory occupancy vs configured capacity (time-averaged "                          \
    "end-of-run; instantaneous in series samples)")                                       \
  X(double, avg_dir_active_frac, "avg_dir_active_frac", "dir.avg_active_frac",            \
    "avg_dir_active_frac", "", kRatio, "powered fraction of the directory under ADR")     \
  /* Energy (paper Fig. 7d, 10); directory dynamic energy is the headline */              \
  X(double, dir_dyn_energy_pj, "dir_dyn_energy_pj", "energy.dir_dyn_pj",                  \
    "dir_dyn_energy_pj", "pJ", kEnergy, "directory dynamic energy (the headline, Fig. 7d/10)") \
  X(double, llc_dyn_energy_pj, "llc_dyn_energy_pj", "energy.llc_dyn_pj",                  \
    "llc_dyn_energy_pj", "pJ", kEnergy, "LLC dynamic energy")                             \
  X(double, noc_dyn_energy_pj, "noc_dyn_energy_pj", "energy.noc_dyn_pj",                  \
    "noc_dyn_energy_pj", "pJ", kEnergy, "NoC dynamic energy")                             \
  X(double, mem_dyn_energy_pj, "mem_dyn_energy_pj", "energy.mem_dyn_pj",                  \
    "mem_dyn_energy_pj", "pJ", kEnergy, "memory dynamic energy")                          \
  X(double, l1_dyn_energy_pj, "l1_dyn_energy_pj", "energy.l1_dyn_pj", "l1_dyn_energy_pj", \
    "pJ", kEnergy, "L1 dynamic energy")                                                   \
  X(double, dir_leak_energy_pj, "dir_leak_energy_pj", "energy.dir_leak_pj",               \
    "dir_leak_energy_pj", "pJ", kEnergy, "directory leakage over powered entry-cycles")

struct SimStats {
  RACCD_SIM_STATS(RACCD_STAT_MEMBER)

  // Subsystem stats, each with its own field list
  FabricStats fabric{};
  NocStats noc{};
  NcrtStats ncrt{};
  TlbStats tlb{};
  PtClassifierStats pt{};
  AdrStats adr{};
  SamplingStats sampling{};  ///< sampled simulation (zeroed for detailed runs)
  ServiceStats service{};    ///< open-loop service runs (zeroed for batch runs)

  /// Every raw field: the scalars above, then each subsystem's list.
  template <class F>
  static constexpr void for_each_field(F&& f) {
    RACCD_SIM_STATS(RACCD_STAT_VISIT)
    for_each_field_of<&SimStats::fabric>(f);
    for_each_field_of<&SimStats::noc>(f);
    for_each_field_of<&SimStats::ncrt>(f);
    for_each_field_of<&SimStats::tlb>(f);
    for_each_field_of<&SimStats::pt>(f);
    for_each_field_of<&SimStats::adr>(f);
    for_each_field_of<&SimStats::sampling>(f, StatGate::kSampling);
    for_each_field_of<&SimStats::service>(f, StatGate::kService);
  }

  // Derived (paper Fig. 7a/7b/7c)
  [[nodiscard]] std::uint64_t dir_accesses() const noexcept { return fabric.dir_accesses; }
  [[nodiscard]] double llc_hit_ratio() const noexcept { return fabric.llc_hit_ratio(); }
  [[nodiscard]] std::uint64_t noc_traffic() const noexcept { return noc.total_flit_hops(); }

  [[nodiscard]] std::string summary() const;
};
static_assert(stat_fields_cover<SimStats>(), "SimStats member outside its field list");

}  // namespace raccd
