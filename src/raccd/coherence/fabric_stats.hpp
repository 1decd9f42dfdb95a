// Fabric outcome/statistics types, split from fabric.hpp so stats-only
// consumers (SimStats, report, harness, benches) don't pull in the full
// cache/directory/NoC model and rebuild whenever the fabric changes.
#pragma once

#include <cstdint>

#include "raccd/common/stat_fields.hpp"
#include "raccd/common/types.hpp"

namespace raccd {

/// Result of one access, as seen by the issuing core.
struct AccessOutcome {
  Cycle latency = 0;
  bool l1_hit = false;
  bool llc_hit = false;  ///< meaningful only when !l1_hit
};

// Field list (common/stat_fields.hpp): member, stats-text key, metric.
#define RACCD_FABRIC_STATS(X)                                                                 \
  /* L1 (aggregated over cores) */                                                            \
  X(std::uint64_t, l1_accesses, "l1_accesses", "fabric.l1_accesses", "l1_accesses", "",       \
    kCounter, "L1 demand accesses")                                                           \
  X(std::uint64_t, l1_hits, "l1_hits", "fabric.l1_hits", "l1_hits", "", kCounter, "L1 hits")  \
  X(std::uint64_t, l1_misses, "l1_misses", "fabric.l1_misses", "l1_misses", "", kCounter,     \
    "L1 misses")                                                                              \
  X(std::uint64_t, l1_evictions, "l1_evictions", "fabric.l1_evictions", "l1_evictions", "",   \
    kCounter, "L1 capacity/conflict evictions")                                               \
  X(std::uint64_t, l1_wb_coh, "l1_wb_coh", "fabric.l1_wb_coh", "l1_wb_coh", "", kCounter,     \
    "coherent dirty writebacks from L1")                                                      \
  X(std::uint64_t, l1_wb_nc, "l1_wb_nc", "fabric.l1_wb_nc", "l1_wb_nc", "", kCounter,         \
    "non-coherent dirty writebacks from L1")                                                  \
  X(std::uint64_t, l1_invals_sharer, "l1_invals_sharer", "fabric.l1_invals_sharer",           \
    "l1_invals_sharer", "", kCounter, "L1 invalidations from GetX/upgrades")                  \
  X(std::uint64_t, l1_invals_recall, "l1_invals_recall", "fabric.l1_invals_recall",           \
    "l1_invals_recall", "", kCounter, "L1 invalidations from directory/LLC recalls")          \
  X(std::uint64_t, l1_flush_nc_lines, "l1_flush_nc_lines", "fabric.l1_flush_nc_lines",        \
    "l1_flush_nc_lines", "", kCounter, "NC lines flushed by raccd_invalidate")                \
  X(std::uint64_t, l1_flush_nc_wbs, "l1_flush_nc_wbs", "fabric.l1_flush_nc_wbs",              \
    "l1_flush_nc_wbs", "", kCounter, "dirty NC lines written back by raccd_invalidate")       \
  X(std::uint64_t, l1_flush_page_lines, "l1_flush_page_lines", "fabric.l1_flush_page_lines",  \
    "l1_flush_page_lines", "", kCounter, "lines flushed by PT private->shared recovery")      \
  X(std::uint64_t, l1_flush_page_wbs, "l1_flush_page_wbs", "fabric.l1_flush_page_wbs",        \
    "l1_flush_page_wbs", "", kCounter, "dirty lines written back by PT recovery")             \
  /* LLC: hit-rate denominators count only demand lookups from L1 misses */                   \
  X(std::uint64_t, llc_lookups, "llc_lookups", "fabric.llc_lookups", "llc_lookups", "",       \
    kCounter, "demand LLC lookups from L1 misses")                                            \
  X(std::uint64_t, llc_hits, "llc_hits", "fabric.llc_hits", "llc_hits", "", kCounter,         \
    "LLC hits")                                                                               \
  X(std::uint64_t, llc_misses, "llc_misses", "fabric.llc_misses", "llc_misses", "",           \
    kCounter, "LLC misses")                                                                   \
  X(std::uint64_t, llc_nc_lookups, "llc_nc_lookups", "fabric.llc_nc_lookups",                 \
    "llc_nc_lookups", "", kCounter, "directory-bypassing NC lookups")                         \
  X(std::uint64_t, llc_nc_hits, "llc_nc_hits", "fabric.llc_nc_hits", "llc_nc_hits", "",       \
    kCounter, "NC lookups that hit")                                                          \
  X(std::uint64_t, llc_fills, "llc_fills", "fabric.llc_fills", "llc_fills", "", kCounter,     \
    "LLC line fills")                                                                         \
  X(std::uint64_t, llc_evictions, "llc_evictions", "fabric.llc_evictions", "llc_evictions",   \
    "", kCounter, "LLC evictions")                                                            \
  X(std::uint64_t, llc_inval_by_dir, "llc_inval_by_dir", "fabric.llc_inval_by_dir",           \
    "llc_inval_by_dir", "", kCounter, "LLC lines dropped by directory entry eviction")        \
  X(std::uint64_t, llc_wb_mem, "llc_wb_mem", "fabric.llc_wb_mem", "llc_wb_mem", "",           \
    kCounter, "dirty LLC lines written back to memory")                                       \
  X(std::uint64_t, llc_touches, "llc_touches", "fabric.llc_touches", "llc_touches", "",       \
    kCounter, "every LLC array access (energy basis)")                                        \
  /* Directory: dir_accesses (every structure read/update) is Fig. 7a's metric */             \
  X(std::uint64_t, dir_accesses, "dir_accesses", "fabric.dir_accesses", "dir_accesses", "",   \
    kCounter, "directory structure reads+updates (paper Fig. 7a)")                            \
  X(std::uint64_t, dir_lookups, "dir_lookups", "fabric.dir_lookups", "dir_lookups", "",       \
    kCounter, "directory lookups")                                                            \
  X(std::uint64_t, dir_hits, "dir_hits", "fabric.dir_hits", "dir_hits", "", kCounter,         \
    "directory hits")                                                                         \
  X(std::uint64_t, dir_misses, "dir_misses", "fabric.dir_misses", "dir_misses", "",           \
    kCounter, "directory misses")                                                             \
  X(std::uint64_t, dir_allocs, "dir_allocs", "fabric.dir_allocs", "dir_allocs", "",           \
    kCounter, "directory entry allocations")                                                  \
  X(std::uint64_t, dir_evictions, "dir_evictions", "fabric.dir_evictions", "dir_evictions",   \
    "", kCounter, "directory entry evictions (with recalls)")                                 \
  X(std::uint64_t, dir_recall_msgs, "dir_recall_msgs", "fabric.dir_recall_msgs",              \
    "dir_recall_msgs", "", kCounter, "recall messages sent to sharers")                       \
  X(std::uint64_t, dir_wb_updates, "dir_wb_updates", "fabric.dir_wb_updates",                 \
    "dir_wb_updates", "", kCounter, "directory updates from L1 writebacks")                   \
  X(std::uint64_t, dir_nc_to_coh, "dir_nc_to_coh", "fabric.dir_nc_to_coh", "dir_nc_to_coh",   \
    "", kCounter, "NC LLC lines re-tracked on coherent access")                               \
  X(std::uint64_t, dir_coh_to_nc, "dir_coh_to_nc", "fabric.dir_coh_to_nc", "dir_coh_to_nc",   \
    "", kCounter, "directory entries dropped on NC access (paper III-E)")                     \
  /* Transactions; *_cross_socket: requester and home bank on different sockets */            \
  X(std::uint64_t, coh_reads, "coh_reads", "fabric.coh_reads", "coh_reads", "", kCounter,     \
    "coherent read transactions")                                                             \
  X(std::uint64_t, coh_writes, "coh_writes", "fabric.coh_writes", "coh_writes", "",           \
    kCounter, "coherent write transactions")                                                  \
  X(std::uint64_t, upgrades, "upgrades", "fabric.upgrades", "upgrades", "", kCounter,         \
    "S->M upgrades")                                                                          \
  X(std::uint64_t, nc_reads, "nc_reads", "fabric.nc_reads", "nc_reads", "", kCounter,         \
    "non-coherent read transactions")                                                         \
  X(std::uint64_t, nc_writes, "nc_writes", "fabric.nc_writes", "nc_writes", "", kCounter,     \
    "non-coherent write transactions")                                                        \
  X(std::uint64_t, owner_probes, "owner_probes", "fabric.owner_probes", "owner_probes", "",   \
    kCounter, "dirty-owner forwarding probes")                                                \
  X(std::uint64_t, dir_reqs_cross_socket, "dir_reqs_cross_socket",                            \
    "fabric.dir_reqs.cross_socket", "dir_reqs_cross_socket", "", kCounter,                    \
    "coherent misses+upgrades crossing a socket link")                                        \
  X(std::uint64_t, nc_reqs_cross_socket, "nc_reqs_cross_socket",                              \
    "fabric.nc_reqs.cross_socket", "nc_reqs_cross_socket", "", kCounter,                      \
    "NC requests crossing a socket link")                                                     \
  /* Memory */                                                                                \
  X(std::uint64_t, mem_reads, "mem_reads", "fabric.mem_reads", "mem_reads", "", kCounter,     \
    "memory line fetches")                                                                    \
  X(std::uint64_t, mem_writes, "mem_writes", "fabric.mem_writes", "mem_writes", "",           \
    kCounter, "memory line writebacks")                                                       \
  X(std::uint64_t, mem_wb_wait_cycles, "mem_wb_wait_cycles", "fabric.mem_wb_wait_cycles",     \
    "mem_wb_wait_cycles", "cycles", kCycles,                                                  \
    "writeback delivery: NoC leg to the controller + write-queue wait")                       \
  /* DRAM (dram/dram.hpp; all zero under the default kSimple model) */                        \
  X(std::uint64_t, dram_row_hits, "dram_row_hits", "dram.row_hits", "dram_row_hits", "",      \
    kCounter, "requests served from an open row buffer")                                      \
  X(std::uint64_t, dram_row_misses, "dram_row_misses", "dram.row_misses", "dram_row_misses",  \
    "", kCounter, "requests that activated a closed row")                                     \
  X(std::uint64_t, dram_row_conflicts, "dram_row_conflicts", "dram.row_conflicts",            \
    "dram_row_conflicts", "", kCounter, "requests that precharged another open row first")    \
  X(std::uint64_t, dram_queue_wait_cycles, "dram_queue_wait_cycles",                          \
    "dram.queue_wait_cycles", "dram_queue_wait_cycles", "cycles", kCycles,                    \
    "read-request wait before DRAM service (queues, write drains, "                           \
    "bank conflicts, issue order)")                                                           \
  /* Dynamic energy (pJ); SimStats reports the per-component totals */                        \
  X(double, e_dir_pj, "e_dir_pj", nullptr, nullptr, "", kCounter, nullptr)                    \
  X(double, e_llc_pj, "e_llc_pj", nullptr, nullptr, "", kCounter, nullptr)                    \
  X(double, e_l1_pj, "e_l1_pj", nullptr, nullptr, "", kCounter, nullptr)                      \
  X(double, e_noc_pj, "e_noc_pj", nullptr, nullptr, "", kCounter, nullptr)                    \
  X(double, e_mem_pj, "e_mem_pj", nullptr, nullptr, "", kCounter, nullptr)                    \
  /* kDdr per-op split of e_mem_pj */                                                         \
  X(double, e_mem_act_pj, "e_mem_act_pj", "energy.mem_act_pj", "mem_act_energy_pj", "pJ",     \
    kEnergy, "DRAM activate energy (kDdr per-op split of the memory total)")                  \
  X(double, e_mem_rd_pj, "e_mem_rd_pj", "energy.mem_rd_pj", "mem_rd_energy_pj", "pJ",         \
    kEnergy, "DRAM column-read energy")                                                       \
  X(double, e_mem_wr_pj, "e_mem_wr_pj", "energy.mem_wr_pj", "mem_wr_energy_pj", "pJ",         \
    kEnergy, "DRAM column-write energy")                                                      \
  X(double, e_mem_pre_pj, "e_mem_pre_pj", "energy.mem_pre_pj", "mem_pre_energy_pj", "pJ",     \
    kEnergy, "DRAM precharge energy")

struct FabricStats {
  RACCD_FABRIC_STATS(RACCD_STAT_MEMBER)
  RACCD_STAT_FOR_EACH(RACCD_FABRIC_STATS)

  void add(const FabricStats& o) noexcept { add_fields(*this, o); }
  [[nodiscard]] double llc_hit_ratio() const noexcept {
    return llc_lookups == 0 ? 0.0
                            : static_cast<double>(llc_hits) / static_cast<double>(llc_lookups);
  }
  [[nodiscard]] double dram_row_hit_ratio() const noexcept {
    const std::uint64_t total = dram_row_hits + dram_row_misses + dram_row_conflicts;
    return total == 0 ? 0.0 : static_cast<double>(dram_row_hits) / static_cast<double>(total);
  }
};
static_assert(stat_fields_cover<FabricStats>(), "FabricStats member outside its field list");

}  // namespace raccd
