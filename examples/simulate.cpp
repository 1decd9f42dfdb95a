// General-purpose simulator driver: run any registered workload under any
// system configuration and print the full report — the tool a downstream
// user reaches for first.
//
// Usage:
//   simulate [workload[:k=v,...]] [--set key=value ...]
//            [--mode=fullcoh|pt|raccd|wbnc]
//            [--size=tiny|small|medium|paper|large]
//            [--topology=flat|cmesh[K]|numaS[xC]] [--alloc=POLICY]
//            [--dir-ratio=N] [--adr] [--paper] [--sched=fifo|lifo|worksteal]
//            [--ncrt-entries=N] [--ncrt-latency=N] [--fragmented] [--seed=N]
//            [--sample=period/window[/warmup]] [--dot=FILE]
//            [--record-trace=FILE] [--list]
//            [--trace=FILE] [--trace-filter=task,coh,dram,svc,noc]
//            [--trace-cap=N]
//            [--series=FILE] [--series-interval=N] [--series-metrics=a,b,c]
//            [--metrics=a,b,c]
//
// The workload list and per-workload parameter help are derived from the
// WorkloadRegistry (`simulate --list`), so a newly registered workload shows
// up here with zero CLI changes.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "raccd/apps/registry.hpp"
#include "raccd/apps/trace_capture.hpp"
#include "raccd/common/bits.hpp"
#include "raccd/common/parse.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/metrics/series.hpp"
#include "raccd/obs/trace_sink.hpp"
#include "raccd/sim/report.hpp"

using namespace raccd;

namespace {

/// Default sampling period: a few hundred points on the small problem sizes.
constexpr raccd::Cycle kDefaultSeriesInterval = 10000;

void usage() {
  std::string apps;
  for (const std::string& n : WorkloadRegistry::instance().names()) {
    if (!apps.empty()) apps += ' ';
    apps += n;
  }
  std::printf(
      "usage: simulate [workload[:k=v,...]] [options]\n"
      "  workloads: %s\n"
      "  --list                    describe every workload and its parameters\n"
      "  --set key=value           override one workload parameter (repeatable)\n"
      "  --mode=fullcoh|pt|raccd|wbnc   coherence system (default raccd)\n"
      "  --size=tiny|small|medium|paper|large   problem size (default small)\n"
      "  --topology=T              machine shape: flat (default), cmesh[K]\n"
      "                            (K cores/router), numaS (S sockets) or\n"
      "                            numaSxC (S sockets of C cores each)\n"
      "  --dram=D                  memory system: simple (default, flat\n"
      "                            latency) or ddr with '-' modifiers —\n"
      "                            open|closed (page policy), fcfs|frfcfs\n"
      "                            (scheduler), chN (channels), bkN (banks),\n"
      "                            e.g. ddr-closed-fcfs-ch2\n"
      "  --alloc=cont|frag|firsttouch|interleave   page placement policy\n"
      "  --dir-ratio=N             directory 1:N of LLC lines (default 1)\n"
      "  --adr                     enable Adaptive Directory Reduction\n"
      "  --paper                   paper Table I machine (32 MB LLC)\n"
      "  --sched=fifo|lifo|worksteal\n"
      "  --ncrt-entries=N --ncrt-latency=N\n"
      "  --fragmented              randomized physical frame allocation\n"
      "  --seed=N                  workload seed\n"
      "  --sample=P/W[/U]          sampled simulation: out of every P tasks,\n"
      "                            warm up U (default 1) and measure W in\n"
      "                            detail, fast-forward the rest functionally;\n"
      "                            totals are extrapolated with 95%% CIs\n"
      "  --dot=FILE                export the task dependence graph\n"
      "  --record-trace=FILE       save the run as a replayable raccd-trace\n"
      "  --trace=FILE              export a simulated-time event timeline as\n"
      "                            Chrome Trace Event JSON (open in Perfetto\n"
      "                            or chrome://tracing; 1 cycle = 1 us)\n"
      "  --trace-filter=c1,c2      trace categories: task, coh, dram, svc,\n"
      "                            noc, all (default), or none (sink armed\n"
      "                            with every category off — overhead A/B)\n"
      "  --trace-cap=N             event buffer capacity (default 1M); when\n"
      "                            full, newest events drop with per-category\n"
      "                            accounting in the JSON footer\n"
      "  --series=FILE             write a metric time-series (occupancy vs\n"
      "                            time etc.) as JSON; see --series-metrics\n"
      "  --series-interval=N       sampling period in cycles (default %llu)\n"
      "  --series-metrics=a,b,c    metrics to sample (default: directory\n"
      "                            occupancy and its drivers)\n"
      "  --metrics=a,b,c           print selected metrics after the report\n"
      "                            (names: `raccd-report metrics`)\n"
      "  --jobs=N / -jN            accepted for uniformity with the sweep\n"
      "                            binaries; one simulation is one job\n",
      apps.c_str(), static_cast<unsigned long long>(kDefaultSeriesInterval));
}

void list_workloads() {
  const WorkloadRegistry& reg = WorkloadRegistry::instance();
  for (const std::string& family : reg.families()) {
    std::printf("[%s]\n", family.c_str());
    for (const std::string& name : reg.names(family)) {
      const WorkloadInfo* w = reg.find(name);
      std::printf("  %-12s %s\n", w->name.c_str(), w->description.c_str());
      const std::string params = w->schema.describe("      ");
      if (!params.empty()) std::printf("%s", params.c_str());
    }
  }
  std::printf("\nrun one with: simulate <name> [--set key=value ...] "
              "or simulate '<name>:k=v,...'\n");
}

/// Parse a numeric flag's value strictly into `out`; on a malformed or
/// out-of-range value print why and the usage, and return false.
template <typename T>
bool number_flag(const char* flag, const char* text, T lo, T hi, T& out) {
  const std::string err = parse_number(text, lo, hi, out);
  if (err.empty()) return true;
  std::fprintf(stderr, "%s: %s\n", flag, err.c_str());
  usage();
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  RunSpec spec;
  spec.app = "jacobi";
  spec.mode = CohMode::kRaCCD;
  WorkloadParams params;
  std::string dot_path;
  std::string trace_path;
  std::string series_path;
  std::string metrics_list;
  std::string obs_trace_path;
  obs::TraceConfig obs_cfg;
  const auto apply_set = [&params](const char* text) {
    WorkloadParams p;
    const std::string err = WorkloadParams::parse(text, p);
    if (!err.empty()) {
      std::fprintf(stderr, "--set %s: %s\n", text, err.c_str());
      return false;
    }
    for (const auto& e : p.entries()) params.set(e.key, e.value);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage();
      return 0;
    } else if (std::strcmp(a, "--list") == 0) {
      list_workloads();
      return 0;
    } else if (std::strncmp(a, "--set=", 6) == 0) {
      if (!apply_set(a + 6)) return 1;
    } else if (std::strcmp(a, "--set") == 0 && i + 1 < argc) {
      if (!apply_set(argv[++i])) return 1;
    } else if (std::strncmp(a, "--mode=", 7) == 0) {
      const std::string m = a + 7;
      if (m == "fullcoh") spec.mode = CohMode::kFullCoh;
      else if (m == "pt") spec.mode = CohMode::kPT;
      else if (m == "raccd") spec.mode = CohMode::kRaCCD;
      else if (m == "wbnc") spec.mode = CohMode::kWbNC;
      else { usage(); return 1; }
    } else if (std::strncmp(a, "--size=", 7) == 0) {
      const std::string s = a + 7;
      if (s == "tiny") spec.size = SizeClass::kTiny;
      else if (s == "small") spec.size = SizeClass::kSmall;
      else if (s == "medium") spec.size = SizeClass::kMedium;
      else if (s == "paper") spec.size = SizeClass::kPaper;
      else if (s == "large") spec.size = SizeClass::kLarge;
      else { usage(); return 1; }
    } else if (std::strncmp(a, "--dir-ratio=", 12) == 0) {
      if (!number_flag("--dir-ratio", a + 12, 1u, 1u << 30, spec.dir_ratio)) return 1;
    } else if (std::strcmp(a, "--adr") == 0) {
      spec.adr = true;
    } else if (std::strcmp(a, "--paper") == 0) {
      spec.paper_machine = true;
    } else if (std::strncmp(a, "--sched=", 8) == 0) {
      const std::string s = a + 8;
      if (s == "fifo") spec.sched = SchedPolicy::kFifo;
      else if (s == "lifo") spec.sched = SchedPolicy::kLifo;
      else if (s == "worksteal") spec.sched = SchedPolicy::kWorkSteal;
      else { usage(); return 1; }
    } else if (std::strncmp(a, "--ncrt-entries=", 15) == 0) {
      if (!number_flag("--ncrt-entries", a + 15, 1u, 1u << 16, spec.ncrt_entries)) return 1;
    } else if (std::strncmp(a, "--ncrt-latency=", 15) == 0) {
      // RunSpec::key() prints the latency as a 32-bit unsigned.
      if (!number_flag("--ncrt-latency", a + 15, Cycle{0}, Cycle{0xFFFFFFFF},
                       spec.ncrt_latency)) {
        return 1;
      }
    } else if (std::strcmp(a, "--fragmented") == 0) {
      spec.alloc = AllocPolicy::kFragmented;
    } else if (std::strncmp(a, "--topology=", 11) == 0) {
      spec.topo = a + 11;
    } else if (std::strncmp(a, "--dram=", 7) == 0) {
      spec.dram = a + 7;
    } else if (std::strncmp(a, "--alloc=", 8) == 0) {
      const std::string p = a + 8;
      if (p == "cont" || p == "contiguous") spec.alloc = AllocPolicy::kContiguous;
      else if (p == "frag" || p == "fragmented") spec.alloc = AllocPolicy::kFragmented;
      else if (p == "ft" || p == "firsttouch") spec.alloc = AllocPolicy::kFirstTouch;
      else if (p == "il" || p == "interleave") spec.alloc = AllocPolicy::kInterleave;
      else { usage(); return 1; }
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      if (!number_flag("--seed", a + 7, std::uint64_t{0}, ~std::uint64_t{0}, spec.seed)) {
        return 1;
      }
    } else if (std::strncmp(a, "--sample=", 9) == 0) {
      spec.sampling = a + 9;
    } else if (std::strncmp(a, "--dot=", 6) == 0) {
      dot_path = a + 6;
    } else if (std::strncmp(a, "--record-trace=", 15) == 0) {
      trace_path = a + 15;
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      obs_trace_path = a + 8;
    } else if (std::strncmp(a, "--trace-filter=", 15) == 0) {
      std::string ferr;
      obs_cfg.categories = obs::parse_trace_filter(a + 15, &ferr);
      if (!ferr.empty()) {
        std::fprintf(stderr, "--trace-filter: %s\n", ferr.c_str());
        return 1;
      }
    } else if (std::strncmp(a, "--trace-cap=", 12) == 0) {
      if (!number_flag("--trace-cap", a + 12, std::size_t{1}, ~std::size_t{0},
                       obs_cfg.max_events)) {
        return 1;
      }
    } else if (std::strncmp(a, "--series=", 9) == 0) {
      series_path = a + 9;
    } else if (std::strncmp(a, "--series-interval=", 18) == 0) {
      if (!number_flag("--series-interval", a + 18, Cycle{1}, ~Cycle{0},
                       spec.series_interval)) {
        return 1;
      }
    } else if (std::strncmp(a, "--series-metrics=", 17) == 0) {
      spec.series_metrics = a + 17;
    } else if (std::strncmp(a, "--metrics=", 10) == 0) {
      metrics_list = a + 10;
    } else if (std::strncmp(a, "--jobs=", 7) == 0 ||
               (std::strncmp(a, "-j", 2) == 0 && a[2] >= '0' && a[2] <= '9')) {
      // One workload, one simulation: nothing to fan out. Accepted so
      // scripts can pass a uniform -jN to every raccd binary.
    } else if (a[0] != '-') {
      if (const std::string err = spec.set_workload_ref(a); !err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
      }
    } else {
      usage();
      return 1;
    }
  }
  // Merge --set overrides under any ref-inline params ("jacobi:n=256" wins).
  if (!params.empty()) {
    WorkloadParams own;
    (void)WorkloadParams::parse(spec.params, own);
    for (const auto& e : own.entries()) params.set(e.key, e.value);
    spec.params = params.canonical();
  }

  // Validate the topology/DRAM tokens and the directory size before
  // config_for() would abort on them.
  {
    SimConfig probe =
        spec.paper_machine ? SimConfig::paper(spec.mode) : SimConfig::scaled(spec.mode);
    if (const std::string terr = probe.apply_topology(spec.topo); !terr.empty()) {
      std::fprintf(stderr, "--topology=%s: %s\n", spec.topo.c_str(), terr.c_str());
      return 1;
    }
    // A directory needs at least one full set.
    const std::uint32_t max_ratio = probe.fabric.llc.lines_per_bank / probe.fabric.dir.ways;
    if (!is_pow2(spec.dir_ratio) || spec.dir_ratio > max_ratio) {
      std::fprintf(stderr, "--dir-ratio=%u: must be a power of two in [1, %u]\n",
                   spec.dir_ratio, max_ratio);
      usage();
      return 1;
    }
    if (const std::string derr = probe.apply_dram(spec.dram); !derr.empty()) {
      std::fprintf(stderr, "--dram=%s: %s\n", spec.dram.c_str(), derr.c_str());
      return 1;
    }
    if (!spec.sampling.empty()) {
      if (const std::string serr = probe.apply_sampling(spec.sampling);
          !serr.empty()) {
        std::fprintf(stderr, "--sample=%s: %s\n", spec.sampling.c_str(),
                     serr.c_str());
        return 1;
      }
    }
  }

  if (obs_trace_path.empty() &&
      (obs_cfg.categories != obs::kAllCats ||
       obs_cfg.max_events != obs::TraceConfig{}.max_events)) {
    std::fprintf(stderr,
                 "--trace-filter/--trace-cap have no effect without --trace=FILE\n");
    return 1;
  }

  // Validate metric selections up front (the sampler would abort later).
  if (series_path.empty() &&
      (spec.series_interval != 0 || !spec.series_metrics.empty())) {
    std::fprintf(stderr,
                 "--series-interval/--series-metrics have no effect without "
                 "--series=FILE\n");
    return 1;
  }
  if (!series_path.empty() && spec.series_interval == 0) {
    spec.series_interval = kDefaultSeriesInterval;
  }
  std::vector<const MetricDesc*> selection;
  if (!spec.series_metrics.empty()) {
    if (const std::string merr =
            MetricSchema::instance().parse_selection(spec.series_metrics, selection);
        !merr.empty()) {
      std::fprintf(stderr, "--series-metrics: %s\n", merr.c_str());
      return 1;
    }
  }
  if (!metrics_list.empty()) {
    if (const std::string merr =
            MetricSchema::instance().parse_selection(metrics_list, selection);
        !merr.empty()) {
      std::fprintf(stderr, "--metrics: %s\n", merr.c_str());
      return 1;
    }
  }

  AppConfig acfg;
  acfg.size = spec.size;
  acfg.seed = spec.seed;
  if (const std::string err = WorkloadParams::parse(spec.params, acfg.params);
      !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  std::string err;
  auto app = WorkloadRegistry::instance().create(spec.app, acfg, &err);
  if (app == nullptr) {
    std::fprintf(stderr, "%s\n(see `simulate --list` for workload parameters)\n",
                 err.c_str());
    return 1;
  }
  // Sampled simulation fast-forwards task timing, which would silently corrupt
  // the per-request latency distributions service workloads exist to measure.
  if (const WorkloadInfo* info = WorkloadRegistry::instance().find(spec.app);
      info != nullptr && info->family == "service" && !spec.sampling.empty()) {
    std::fprintf(stderr,
                 "--sample is incompatible with open-loop service workloads "
                 "(per-request latency needs detailed timing)\n");
    return 1;
  }

  const SimConfig cfg = config_for(spec);
  print_config(cfg);
  Machine machine(cfg);
  std::optional<TraceCapture> capture;
  if (!trace_path.empty()) capture.emplace(machine);
  // Event tracing attaches before the app runs so task creation and every
  // simulated event lands on the timeline. Pure observation: the same run
  // with no sink produces byte-identical stats.
  std::optional<obs::TraceSink> obs_sink;
  if (!obs_trace_path.empty()) {
    obs_sink.emplace(obs_cfg);
    machine.set_obs_trace(&*obs_sink);
  }
  std::printf("\napp: %s — %s (scheduler: %s)\n", std::string(app->name()).c_str(),
              app->problem().c_str(), to_string(spec.sched));
  app->run(machine);
  const std::string verr = app->verify(machine);
  std::printf("verification: %s\n", verr.empty() ? "PASS" : verr.c_str());
  std::printf("TDG: %zu tasks, %llu edges, critical path %zu (avg parallelism %.1f)\n\n",
              machine.runtime().task_count(),
              static_cast<unsigned long long>(machine.runtime().tdg().edge_count()),
              machine.runtime().tdg().critical_path_length(),
              static_cast<double>(machine.runtime().task_count()) /
                  static_cast<double>(machine.runtime().tdg().critical_path_length()));
  if (!dot_path.empty()) {
    std::ofstream out(dot_path);
    out << machine.runtime().tdg().to_dot();
    std::printf("TDG exported to %s\n", dot_path.c_str());
  }
  if (capture.has_value()) {
    TraceFile tf;
    std::string terr = capture->finish(tf);
    if (terr.empty()) terr = tf.save(trace_path);
    if (terr.empty()) {
      std::printf("trace recorded to %s (%zu regions, %zu tasks) — replay with "
                  "`simulate tracereplay --set file=%s`\n",
                  trace_path.c_str(), tf.regions.size(), tf.tasks.size(),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace recording failed: %s\n", terr.c_str());
    }
  }
  const SimStats stats = machine.collect();
  print_report(stats);
  if (obs_sink.has_value()) {
    if (obs_sink->write_json(obs_trace_path)) {
      std::printf("trace: %zu events written to %s (open in ui.perfetto.dev "
                  "or chrome://tracing)\n",
                  obs_sink->events().size(), obs_trace_path.c_str());
      if (obs_sink->dropped_total() > 0) {
        std::printf("trace: %llu events dropped at the %zu-event cap "
                    "(raise with --trace-cap=N)\n",
                    static_cast<unsigned long long>(obs_sink->dropped_total()),
                    obs_sink->config().max_events);
      }
    } else {
      std::fprintf(stderr, "warning: could not write %s\n",
                   obs_trace_path.c_str());
    }
  }
  if (!metrics_list.empty()) {
    std::printf("\nmetrics:\n");
    print_metrics(stats, selection);
  }
  if (!series_path.empty() && machine.series() != nullptr) {
    std::ofstream out(series_path);
    const std::pair<std::string, const Series*> entry{spec.key(), machine.series()};
    out << series_map_json({&entry, 1});
    if (out) {
      std::printf("series: %zu samples every %llu cycles written to %s\n",
                  machine.series()->samples().size(),
                  static_cast<unsigned long long>(machine.series()->interval()),
                  series_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", series_path.c_str());
    }
  }
  return verr.empty() ? 0 : 1;
}
