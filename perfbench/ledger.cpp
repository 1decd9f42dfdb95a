#include "ledger.hpp"

#include <algorithm>
#include <memory>

#include "raccd/cache/l1_cache.hpp"
#include "raccd/coherence/fabric.hpp"
#include "raccd/core/ncrt.hpp"
#include "raccd/runtime/dep_registry.hpp"
#include "raccd/tlb/tlb.hpp"
#include "raccd/topo/topology.hpp"

namespace perfbench {

using namespace raccd;

void Capture::attach(Machine& m) {
  m.set_trace_sink([this, &m](const TaskNode& node, const AccessTrace& trace) {
    const auto task = static_cast<std::uint32_t>(tasks_.size());
    tasks_.push_back(Task{node.id, node.deps});
    deps_in_run_ += node.deps.size();
    records_in_run_ += trace.records().size();
    for (const AccessRecord& r : trace.records()) {
      if (accesses_.size() >= kMaxAccesses) break;
      accesses_.push_back(
          Access{r.vaddr, m.mem().translate(r.vaddr), task, r.is_write, r.size});
    }
  });
}

namespace {

/// Times one replay loop into out[layer]; the loop body returns its calls.
template <typename Loop>
void timed_layer(std::map<std::string, LayerCost>& out, const char* layer, SpanLog* log,
                 std::uint32_t sim, Loop&& loop) {
  Timed t(log, layer, sim);
  const std::uint64_t calls = loop();
  const double s = t.stop();
  LayerCost& c = out[layer];
  c.seconds += s;
  c.calls += calls;
}

}  // namespace

void replay(const Capture& cap, Machine& m, std::map<std::string, LayerCost>& out,
            SpanLog* log, std::uint32_t sim) {
  const SimConfig& cfg = m.config();
  const std::uint32_t cores = cfg.fabric.cores;
  const std::vector<Capture::Access>& acc = cap.accesses();
  const std::vector<Capture::Task>& tasks = cap.tasks();
  // Tasks are replayed on core (id mod cores): the sink does not report the
  // core that ran a task, and a fixed mapping keeps the replay deterministic.
  const auto core_of = [&](const Capture::Access& a) -> CoreId {
    return tasks[a.task].id % cores;
  };
  const std::size_t n = acc.size();

  // TLB: one lookup per replayed record, exactly as the machine translates.
  timed_layer(out, "tlb", log, sim, [&] {
    std::vector<Tlb> tlbs;
    tlbs.reserve(cores);
    for (std::uint32_t c = 0; c < cores; ++c) tlbs.emplace_back(cfg.tlb_entries);
    const PageTable& pt = m.mem().page_table();
    for (const Capture::Access& a : acc) (void)tlbs[core_of(a)].access(page_of(a.va), pt);
    return static_cast<std::uint64_t>(n);
  });

  // L1 tag lookup per record, filling on a miss (the fill is inside the
  // timed loop). The miss flags drive the NCRT and topology replays below.
  std::vector<std::uint8_t> l1_miss(n, 0);
  timed_layer(out, "cache.l1_find", log, sim, [&] {
    std::vector<std::unique_ptr<L1Cache>> l1;
    for (std::uint32_t c = 0; c < cores; ++c) l1.push_back(std::make_unique<L1Cache>(cfg.fabric.l1));
    for (std::size_t i = 0; i < n; ++i) {
      const Capture::Access& a = acc[i];
      L1Cache& cache = *l1[core_of(a)];
      const LineAddr line = line_of(a.pa);
      if (cache.find(line) == nullptr) {
        l1_miss[i] = 1;
        const bool w = a.is_write != 0;
        (void)cache.fill(line, false, w ? Mesi::kModified : Mesi::kExclusive, w, 0);
      }
    }
    return static_cast<std::uint64_t>(n);
  });

  // NCRT (RaCCD only): per task, register the dependence ranges, then look
  // up every L1-missing access, as the RaCCD classifier does. Per-task
  // clear/insert is inside the timed loop; FullCoh and the other systems
  // make no NCRT calls.
  std::vector<std::uint8_t> nc(n, 0);
  if (cfg.mode == CohMode::kRaCCD) {
    // Untimed preparation: each task's translated ranges and missing accesses.
    const PageTable& pt = m.mem().page_table();
    struct TaskLookups {
      std::vector<std::pair<PAddr, PAddr>> ranges;
      std::vector<std::size_t> misses;  ///< indices into acc
    };
    std::vector<TaskLookups> work;
    for (std::size_t i = 0; i < n; ++i) {
      if (work.empty() || acc[i - 1].task != acc[i].task) {
        TaskLookups& t = work.emplace_back();
        for (const DepSpec& d : tasks[acc[i].task].deps) {
          if (d.size != 0) {
            t.ranges.emplace_back(pt.translate(d.addr), pt.translate(d.addr + d.size - 1) + 1);
          }
        }
      }
      if (l1_miss[i] != 0) work.back().misses.push_back(i);
    }
    timed_layer(out, "core.ncrt", log, sim, [&] {
      Ncrt ncrt(cfg.raccd.ncrt_entries);
      std::uint64_t calls = 0;
      for (const TaskLookups& t : work) {
        ncrt.clear();
        for (const auto& [start, end] : t.ranges) (void)ncrt.insert(start, end);
        for (const std::size_t i : t.misses) nc[i] = ncrt.lookup(acc[i].pa) ? 1 : 0;
        calls += t.misses.size();
      }
      return calls;
    });
  } else {
    out["core.ncrt"];  // reported as zero calls
  }

  // Coherence fabric on a fresh instance with the run's configuration:
  // one access per record on a single serialized clock; RaCCD flushes each
  // task's NC lines at the task boundary, as raccd_invalidate does.
  std::vector<std::uint8_t> l1_hit(n, 0), llc_hit(n, 0);
  timed_layer(out, "coherence.fabric", log, sim, [&] {
    Fabric fab(cfg.fabric);
    const bool flush_nc = cfg.mode == CohMode::kRaCCD;
    Cycle now = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Capture::Access& a = acc[i];
      const CoreId c = core_of(a);
      if (flush_nc && i > 0 && acc[i - 1].task != a.task) {
        now += fab.flush_nc_lines(core_of(acc[i - 1]), now).cycles;
      }
      const AccessOutcome o = fab.access(c, line_of(a.pa), a.is_write != 0, nc[i] != 0, now);
      now += o.latency;
      l1_hit[i] = o.l1_hit ? 1 : 0;
      llc_hit[i] = o.llc_hit ? 1 : 0;
    }
    return static_cast<std::uint64_t>(n);
  });

  // Topology: a request and a response route per fabric L1 miss, and a
  // memory-controller lookup per LLC miss, over the run's own topology.
  const Topology& topo = m.fabric().topology();
  std::vector<std::pair<CoreId, BankId>> misses;
  std::vector<BankId> mem_banks;
  for (std::size_t i = 0; i < n; ++i) {
    if (l1_hit[i] != 0) continue;
    const BankId home = topo.home_bank(line_of(acc[i].pa));
    misses.emplace_back(core_of(acc[i]), home);
    if (llc_hit[i] == 0) mem_banks.push_back(home);
  }
  timed_layer(out, "topo.route", log, sim, [&] {
    std::uint64_t hops = 0;
    for (const auto& [c, b] : misses) {
      hops += topo.route(c, b).total_hops();
      hops += topo.route(b, c).total_hops();
    }
    volatile std::uint64_t sink = hops;
    (void)sink;
    return static_cast<std::uint64_t>(2 * misses.size());
  });
  timed_layer(out, "topo.mem_controller", log, sim, [&] {
    std::uint64_t acc_mc = 0;
    for (const BankId b : mem_banks) acc_mc += topo.mem_controller(b);
    volatile std::uint64_t sink = acc_mc;
    (void)sink;
    return static_cast<std::uint64_t>(mem_banks.size());
  });

  // Dependence registry: every task's dependences in spawn (id) order.
  std::vector<const Capture::Task*> by_id;
  by_id.reserve(tasks.size());
  for (const Capture::Task& t : tasks) by_id.push_back(&t);
  std::sort(by_id.begin(), by_id.end(),
            [](const Capture::Task* a, const Capture::Task* b) { return a->id < b->id; });
  timed_layer(out, "runtime.dep", log, sim, [&] {
    DepRegistry reg;
    std::vector<TaskId> preds;
    std::uint64_t calls = 0;
    for (const Capture::Task* t : by_id) {
      for (const DepSpec& d : t->deps) {
        reg.register_dep(t->id, d, preds);
        ++calls;
      }
      preds.clear();
    }
    return calls;
  });

  // Functional memory: copy_out per record, plus a copy_in of the same bytes
  // for writes (value-preserving, so the run's final memory is untouched).
  timed_layer(out, "mem", log, sim, [&] {
    SimMemory& mem = m.mem();
    unsigned char buf[64];
    std::uint64_t calls = 0;
    for (const Capture::Access& a : acc) {
      const std::uint64_t bytes = std::min<std::uint64_t>(a.size, sizeof buf);
      mem.copy_out(a.va, buf, bytes);
      ++calls;
      if (a.is_write != 0) {
        mem.copy_in(a.va, buf, bytes);
        ++calls;
      }
    }
    return calls;
  });
}

}  // namespace perfbench
