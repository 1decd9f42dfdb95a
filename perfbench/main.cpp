// raccd-sim benchmark: four fixed workloads, host end-to-end metrics,
// an exact correctness oracle, and (with --trace 1) host spans plus a
// per-layer replay ledger. See README.md in this directory for the workload
// rationale, the metric table and the layer -> metric -> workload map.
//
//   raccd_perfbench --workload replay_hit --seed 42 --seconds 24 --trace 0
//                   --pins pins.txt --workdir DIR [--trace-out FILE]
//   raccd_perfbench --write-pins pins.txt --workdir DIR
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Everything before it is a human-readable report.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "ledger.hpp"
#include "raccd/apps/registry.hpp"
#include "raccd/exec/sweep_executor.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/harness/sweep_cache.hpp"
#include "raccd/metrics/emit.hpp"
#include "raccd/metrics/metric_schema.hpp"
#include "raccd/obs/profiler.hpp"
#include "raccd/obs/trace_validate.hpp"
#include "spans.hpp"

namespace fs = std::filesystem;
using namespace raccd;
using perfbench::Clock;
using perfbench::seconds_since;
using perfbench::SpanLog;
using perfbench::Timed;

namespace {

// -- Workloads -----------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<RunSpec> specs;
  bool sweep = false;  ///< run through the parallel sweep executor
};

RunSpec make_spec(const char* app, const char* params, SizeClass size, CohMode mode,
                  const char* topo, const char* dram, std::uint32_t dir_ratio,
                  std::uint64_t seed) {
  RunSpec s;
  s.app = app;
  s.params = params;
  s.size = size;
  s.mode = mode;
  s.topo = topo;
  s.dram = dram;
  s.dir_ratio = dir_ratio;
  s.seed = seed;
  return s;
}

// The definitions are hard-coded on purpose: no environment variable or
// option of the simulator's own bench front end can change what is measured.
std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  const auto pair = [&](const char* app, const char* params, SizeClass size,
                        const char* topo, const char* dram, CohMode first, CohMode second) {
    w.specs.push_back(make_spec(app, params, size, first, topo, dram, 1, seed));
    w.specs.push_back(make_spec(app, params, size, second, topo, dram, 1, seed));
  };
  if (name == "replay_hit") {
    pair("jacobi", "", SizeClass::kSmall, "flat", "simple", CohMode::kFullCoh, CohMode::kRaCCD);
  } else if (name == "miss_numa_ddr") {
    pair("synthetic", "footprint_kb=4096", SizeClass::kTiny, "numa2", "ddr", CohMode::kFullCoh,
         CohMode::kRaCCD);
  } else if (name == "service_open") {
    pair("service", "load=0.3,requests=16384", SizeClass::kSmall, "flat", "simple",
         CohMode::kRaCCD, CohMode::kFullCoh);
  } else if (name == "paper_sweep") {
    w.sweep = true;
    for (const std::string& app : paper_app_names()) {
      for (const CohMode m : {CohMode::kFullCoh, CohMode::kPT, CohMode::kRaCCD, CohMode::kWbNC}) {
        w.specs.push_back(
            make_spec(app.c_str(), "", SizeClass::kSmall, m, "flat", "simple", 256, seed));
      }
    }
  } else {
    return std::nullopt;
  }
  return w;
}

const char* const kWorkloadNames[] = {"replay_hit", "miss_numa_ddr", "service_open",
                                      "paper_sweep"};

// -- Simulated counts: the correctness oracle -------------------------------------

const char* const kCountNames[] = {
    "cycles",
    "runtime.accesses_replayed",
    "runtime.tasks",
    "runtime.edges",
    "tlb.lookups",
    "tlb.misses",
    "fabric.l1_accesses",
    "fabric.l1_hit_rate",
    "fabric.llc_lookups",
    "fabric.llc_hit_rate",
    "fabric.dir_accesses",
    "fabric.mem_reads",
    "fabric.mem_writes",
    "noc.messages",
    "noc.flit_hops.cross_socket",
    "dram.row_hit_rate",
    "dram.queue_wait_cycles",
    "ncrt.lookups",
    "ncrt.hits",
    "service.requests",
    "service.queue.p99",
    "service.e2e.p50",
    "service.e2e.p99",
};
constexpr std::size_t kNumCounts = std::size(kCountNames);

using Counts = std::vector<MetricValue>;

Counts counts_of(const SimStats& s) {
  Counts c;
  c.reserve(kNumCounts);
  for (const char* name : kCountNames) c.push_back(MetricSchema::instance().get(name).value(s));
  return c;
}

bool same_value(const MetricValue& a, const MetricValue& b) {
  if (a.is_int != b.is_int) return false;
  if (a.is_int) return a.u == b.u;
  if (std::isnan(a.d) || std::isnan(b.d)) return std::isnan(a.d) && std::isnan(b.d);
  return a.d == b.d;
}

std::string format_value(const MetricValue& v) {
  char buf[64];
  if (v.is_int) {
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v.u));
  } else if (std::isnan(v.d)) {
    std::snprintf(buf, sizeof buf, "nan");
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v.d);
  }
  return buf;
}

/// "" when equal, else the first differing count.
std::string diff_counts(const Counts& want, const Counts& got) {
  for (std::size_t i = 0; i < kNumCounts; ++i) {
    if (!same_value(want[i], got[i])) {
      return std::string(kCountNames[i]) + ": expected " + format_value(want[i]) + ", got " +
             format_value(got[i]);
    }
  }
  return {};
}

using Pins = std::map<std::string, Counts>;  // RunSpec::key() -> counts

constexpr const char* kPinsHeader = "# raccd-perfbench pins v1";

/// Pins file: a header line, then "<spec key> <count name> <value>" lines.
std::string load_pins(const std::string& path, Pins& out) {
  std::ifstream is(path);
  if (!is) return "cannot open pins file " + path;
  std::string line;
  if (!std::getline(is, line) || line.rfind(kPinsHeader, 0) != 0) {
    return "pins file " + path + ": missing header";
  }
  std::map<std::string, std::map<std::string, std::string>> raw;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, name, value;
    if (!(ls >> key >> name >> value)) return "pins file: malformed line '" + line + "'";
    raw[key][name] = value;
  }
  for (const auto& [key, values] : raw) {
    Counts c;
    for (const char* name : kCountNames) {
      const auto it = values.find(name);
      if (it == values.end()) return "pins file: " + key + " lacks " + name;
      const MetricDesc& d = MetricSchema::instance().get(name);
      const bool is_int = d.kind == MetricKind::kCounter || d.kind == MetricKind::kCycles;
      const char* text = it->second.c_str();
      char* end = nullptr;
      errno = 0;
      const MetricValue v = is_int ? MetricValue::of(static_cast<std::uint64_t>(
                                         std::strtoull(text, &end, 10)))
                                   : MetricValue::of(std::strtod(text, &end));
      if (errno != 0 || end == text || *end != '\0') {
        return "pins file: bad value '" + it->second + "' for " + key + " " + name;
      }
      c.push_back(v);
    }
    out[key] = std::move(c);
  }
  return {};
}

/// Every simulation (and every cached read-back) is checked here: run or
/// verify error, mismatch against the pinned counts (default seed), and
/// disagreement with an earlier repeat of the same spec.
class Oracle {
 public:
  explicit Oracle(const Pins* pins) : pins_(pins) {}

  /// Returns true when the observation passed.
  bool record(const RunSpec& spec, const std::optional<SimStats>& stats,
              const std::string& error) {
    ++ops_;
    const std::string key = spec.key();
    if (!stats.has_value()) return fail(key, error.empty() ? "run failed" : error);
    const Counts c = counts_of(*stats);
    if (pins_ != nullptr) {
      const auto it = pins_->find(key);
      if (it == pins_->end()) return fail(key, "no pinned counts for this spec");
      if (std::string d = diff_counts(it->second, c); !d.empty()) {
        return fail(key, "pin mismatch: " + d);
      }
    }
    const auto [it, fresh] = seen_.try_emplace(key, c);
    if (!fresh) {
      if (std::string d = diff_counts(it->second, c); !d.empty()) {
        return fail(key, "repeat disagrees: " + d);
      }
    }
    if (!sample_.has_value()) sample_.emplace(spec, *stats);
    return true;
  }

  /// Replays the first accepted observation through fresh oracles whose pin
  /// (or earlier repeat) has one count perturbed: both must report a
  /// failure. Returns "" or what went unreported.
  [[nodiscard]] std::string self_check() const {
    if (!sample_.has_value()) return "no accepted observation to self-check";
    const auto& [spec, stats] = *sample_;
    const std::string key = spec.key();
    Pins bad_pins{{key, counts_of(stats)}};
    bad_pins[key][1].u += 1;  // runtime.accesses_replayed
    if (Oracle probe(&bad_pins); probe.record(spec, stats, {})) {
      return "a perturbed pin was not reported";
    }
    Oracle repeat(nullptr);
    repeat.seen_[key] = counts_of(stats);
    repeat.seen_[key][0].u += 1;  // cycles
    if (repeat.record(spec, stats, {})) return "a disagreeing repeat was not reported";
    return {};
  }

  [[nodiscard]] std::uint64_t ops() const noexcept { return ops_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept { return errors_; }
  [[nodiscard]] const std::map<std::string, Counts>& seen() const noexcept { return seen_; }

 private:
  bool fail(const std::string& key, const std::string& why) {
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(key + ": " + why);
    return false;
  }

  const Pins* pins_;
  std::map<std::string, Counts> seen_;
  std::optional<std::pair<RunSpec, SimStats>> sample_;
  std::uint64_t ops_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// -- One simulation, timed per layer call ---------------------------------------

/// Host time in the calls that replay accesses (sim_maccess_per_s).
struct SimTimes {
  double run_s = 0.0, collect_s = 0.0;
};

/// RunSpec -> registry create -> Machine -> App::run -> App::verify ->
/// Machine::collect, each call under its own span when `log` is set; the
/// run and collect times add into `t`. `before_run` / `after_collect` see
/// the live machine (trace capture and ledger replay use them).
std::optional<SimStats> simulate(const RunSpec& spec, SpanLog* log, std::uint32_t sim,
                                 SimTimes& t, std::string& error,
                                 const std::function<void(Machine&)>& before_run = {},
                                 const std::function<void(Machine&)>& after_collect = {}) {
  Timed whole(log, "sim", sim);
  std::unique_ptr<App> app;
  {
    Timed tc(log, "apps.create", sim);
    AppConfig acfg(spec.size, spec.seed);
    error = WorkloadParams::parse(spec.params, acfg.params);
    if (error.empty()) app = WorkloadRegistry::instance().create(spec.app, acfg, &error);
  }
  if (app == nullptr) return std::nullopt;
  std::optional<Machine> m;
  {
    Timed tb(log, "sim.build", sim);
    m.emplace(config_for(spec));
  }
  if (before_run) before_run(*m);
  {
    Timed tr(log, "sim.run", sim);
    app->run(*m);
    t.run_s += tr.stop();
  }
  {
    Timed tv(log, "apps.verify", sim);
    error = app->verify(*m);
  }
  if (!error.empty()) {
    error = "verification failed: " + error;
    return std::nullopt;
  }
  std::optional<SimStats> stats;
  {
    Timed tl(log, "sim.collect", sim);
    stats = m->collect();
    t.collect_s += tl.stop();
  }
  if (after_collect) after_collect(*m);
  return stats;
}

/// Host time from RunSpec to a ready App and Machine, summed over `specs`.
double setup_pass(const std::vector<RunSpec>& specs) {
  double total = 0.0;
  for (const RunSpec& spec : specs) {
    const Clock::time_point t0 = Clock::now();
    AppConfig acfg(spec.size, spec.seed);
    (void)WorkloadParams::parse(spec.params, acfg.params);
    std::unique_ptr<App> app = WorkloadRegistry::instance().create(spec.app, acfg);
    Machine m(config_for(spec));
    total += seconds_since(t0);
  }
  return total;
}

// -- One repeat of a workload ------------------------------------------------------

struct Rep {
  double wall_s = 0.0;
  double sim_s = 0.0;  ///< denominator of sim_maccess_per_s
  std::uint64_t accesses = 0;
  SimTimes times;
  /// Executor profile: paper_sweep's uncached pass, else the cached pass.
  obs::SweepProfile sweep;

  [[nodiscard]] double maccess_per_s() const {
    return sim_s > 0.0 ? static_cast<double>(accesses) / sim_s / 1e6 : 0.0;
  }
};

/// Moves the calling thread to the next CPU of the process's starting
/// affinity set. On a shared host the CPUs run at different speeds at the
/// same moment (identical simulations started together on four CPUs took
/// 1.4-2.6 s), and the scheduler tends to leave a single thread on one CPU
/// for a whole run, so a serial run that never moves measures one CPU.
/// Rotating per simulation (and per set-up pass) makes every run sample all
/// of them.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    (void)sched_setaffinity(0, sizeof set, &set);  // best effort
  }

  /// Back to the starting affinity set (threads created later inherit it).
  void release() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Every repeat ends the way a figure binary does: it emits every metric of
/// each result, then reads all results back through the harness cache with
/// the sweep executor, as the next binary would. `cache` already holds them.
void emit_and_read_back(const Workload& w, const std::vector<std::optional<SimStats>>& results,
                        Oracle& oracle, SpanLog* log, const fs::path& workdir,
                        const RunOptions& opts, Rep& r) {
  std::vector<RunSpec> ok;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].has_value()) ok.push_back(w.specs[i]);
  }
  {
    Timed t(log, "metrics.emit");
    std::vector<const MetricDesc*> sel;
    for (const MetricDesc& d : MetricSchema::instance().all()) sel.push_back(&d);
    std::ofstream os(workdir / "emit.jsonl", std::ios::trunc);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].has_value()) continue;
      os << "{\"key\": \"" << json_escape(w.specs[i].key()) << "\", "
         << metrics_json_fields(sel, *results[i]) << "}\n";
    }
  }
  {
    Timed t(log, "harness.cached_pass");
    SweepExecutor ex(opts);
    const std::vector<SimStats> cached = ex.run(ok);
    t.stop();
    const bool hit = obs::last_sweep_profile().cached == ok.size() && ex.failures().empty();
    for (std::size_t i = 0; i < ok.size(); ++i) {
      oracle.record(ok[i], hit ? std::optional<SimStats>(cached[i]) : std::nullopt,
                    hit ? std::string() : "cached pass did not read back every spec");
    }
  }
  // Serial workloads make no other executor pass; theirs describes this one.
  if (!w.sweep) r.sweep = obs::last_sweep_profile();
}

RunOptions cache_options(const fs::path& cache, unsigned jobs) {
  std::error_code ec;
  fs::remove_all(cache, ec);
  RunOptions opts;
  opts.jobs = jobs;
  opts.use_cache = true;
  opts.cache_dir = cache.string();
  opts.verbose = false;
  return opts;
}

/// The workload's simulations back to back on the calling thread, stored
/// into a private cache as run_all would store them.
Rep serial_rep(const Workload& w, Oracle& oracle, SpanLog* log, const fs::path& workdir,
               std::uint32_t rep_index, std::uint32_t& sim_id, CpuRotation& cpus) {
  Rep r;
  const fs::path cache = workdir / ("cache-" + std::to_string(rep_index));
  const RunOptions opts = cache_options(cache, 1);
  Timed wall(log, "workload.rep");
  std::vector<std::optional<SimStats>> results;
  for (const RunSpec& spec : w.specs) {
    cpus.next();
    std::string error;
    results.push_back(simulate(spec, log, ++sim_id, r.times, error));
    if (!oracle.record(spec, results.back(), error)) {
      results.back().reset();
      continue;
    }
    r.accesses += results.back()->accesses_replayed;
    if (!cache_store(opts.cache_dir, spec.key(), *results.back())) results.back().reset();
  }
  emit_and_read_back(w, results, oracle, log, workdir, opts, r);
  r.wall_s = wall.stop();
  r.sim_s = r.times.run_s + r.times.collect_s;
  std::error_code ec;
  fs::remove_all(cache, ec);
  return r;
}

/// Uncached pass through the work-stealing sweep executor into an empty
/// private cache, then emission and the cached read-back pass.
Rep sweep_rep(const Workload& w, Oracle& oracle, SpanLog* log, const fs::path& workdir,
              std::uint32_t rep_index, unsigned jobs) {
  Rep r;
  const fs::path cache = workdir / ("cache-" + std::to_string(rep_index));
  const RunOptions opts = cache_options(cache, jobs);
  Timed wall(log, "workload.rep");
  std::vector<std::optional<SimStats>> results;
  {
    Timed t(log, "harness.uncached_pass");
    SweepExecutor ex(opts);
    const std::vector<SimStats> stats = ex.run(w.specs);
    r.sim_s = t.stop();
    std::map<std::string, std::string> failed;
    for (const SweepFailure& f : ex.failures()) failed[f.key] = f.error;
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
      const auto it = failed.find(w.specs[i].key());
      const bool ok = it == failed.end() && oracle.record(w.specs[i], stats[i], {});
      if (it != failed.end()) oracle.record(w.specs[i], std::nullopt, it->second);
      results.push_back(ok ? std::optional<SimStats>(stats[i]) : std::nullopt);
      if (ok) r.accesses += stats[i].accesses_replayed;
    }
  }
  r.sweep = obs::last_sweep_profile();
  emit_and_read_back(w, results, oracle, log, workdir, opts, r);
  r.wall_s = wall.stop();
  std::error_code ec;
  fs::remove_all(cache, ec);
  return r;
}

// -- Helpers -------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool integer = false;
};

std::string json_metric_value(const Metric& m) {
  char buf[64];
  if (m.integer) {
    std::snprintf(buf, sizeof buf, "%.0f", m.value);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
  }
  return buf;
}

void print_result(bool correct, const Oracle& oracle, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(oracle.ops()) +
                    ", \"failed\": " + std::to_string(oracle.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_metric_value(m) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void print_metric_line(const Metric& m) {
  std::printf("  %-32s %18s %s\n", m.name.c_str(), json_metric_value(m).c_str(),
              m.unit.c_str());
}

/// Simulated counts aggregated over a workload's specs: counters and cycle
/// totals are summed, ratios and latency percentiles averaged over the specs
/// where they are defined (0 when none is).
std::vector<Metric> aggregate_counts(const Workload& w, const Oracle& oracle) {
  std::vector<Metric> out;
  for (std::size_t i = 0; i < kNumCounts; ++i) {
    const MetricDesc& d = MetricSchema::instance().get(kCountNames[i]);
    const bool sum = d.kind == MetricKind::kCounter || d.kind == MetricKind::kCycles;
    double acc = 0.0;
    std::uint64_t n = 0;
    for (const RunSpec& spec : w.specs) {
      const auto it = oracle.seen().find(spec.key());
      if (it == oracle.seen().end()) continue;
      const double v = it->second[i].as_double();
      if (!std::isfinite(v)) continue;
      acc += v;
      ++n;
    }
    const double value = sum || n == 0 ? acc : acc / static_cast<double>(n);
    std::string unit = sum ? (d.kind == MetricKind::kCycles ? "cycles" : "count") : "ratio";
    if (d.kind == MetricKind::kDistribution) unit = "cycles";
    out.push_back(Metric{kCountNames[i], value, unit, sum});
  }
  return out;
}

// -- Command line ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 24.0;
  bool trace = false;
  std::string pins;
  std::string write_pins;
  std::string workdir;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "raccd_perfbench: %s\n"
               "usage: raccd_perfbench --workload W --seed N --seconds S --trace 0|1 "
               "--pins FILE --workdir DIR [--trace-out FILE]\n"
               "       raccd_perfbench --write-pins FILE --workdir DIR\n"
               "workloads: replay_hit miss_numa_ddr service_open paper_sweep\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("--seed takes a non-negative integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--pins") {
      a.pins = v;
    } else if (k == "--write-pins") {
      a.write_pins = v;
    } else if (k == "--workdir") {
      a.workdir = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workdir.empty()) usage("--workdir is required");
  if (a.write_pins.empty()) {
    if (a.workload.empty()) usage("--workload is required");
    if (a.pins.empty()) usage("--pins is required");
  }
  return a;
}

/// Run every spec of every workload once at the default seed and write the
/// pins file the oracle checks against.
int write_pins(const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  os << kPinsHeader << ": simulated counts per spec at seed 42\n";
  for (const char* name : kWorkloadNames) {
    const Workload w = *make_workload(name, 42);
    for (const RunSpec& spec : w.specs) {
      SimTimes t;
      std::string error;
      const std::optional<SimStats> stats = simulate(spec, nullptr, 0, t, error);
      if (!stats.has_value()) {
        std::fprintf(stderr, "%s: %s\n", spec.key().c_str(), error.c_str());
        return 1;
      }
      const Counts c = counts_of(*stats);
      for (std::size_t i = 0; i < kNumCounts; ++i) {
        os << spec.key() << ' ' << kCountNames[i] << ' ' << format_value(c[i]) << '\n';
      }
      std::fprintf(stderr, "pinned %s\n", spec.key().c_str());
    }
  }
  return os ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  // Paths are taken relative to the invocation directory, before the chdir.
  for (std::string* p : {&args.pins, &args.write_pins, &args.trace_out}) {
    if (!p->empty()) *p = fs::absolute(*p).string();
  }
  if (std::getenv("RACCD_LEGACY_STRUCTURES") != nullptr) {
    std::fprintf(stderr,
                 "raccd_perfbench: RACCD_LEGACY_STRUCTURES is set; that selects a different "
                 "program (the legacy host structures). Unset it to benchmark.\n");
    return 2;
  }
  // A private working directory: the sweep cache and emitted files live
  // there, so nothing reads or writes results/ of the source tree.
  std::error_code ec;
  const fs::path workdir = fs::absolute(args.workdir);
  fs::create_directories(workdir, ec);
  fs::current_path(workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot enter %s: %s\n", workdir.c_str(), ec.message().c_str());
    return 2;
  }
  if (!args.write_pins.empty()) return write_pins(args.write_pins);

  const std::optional<Workload> wl = make_workload(args.workload, args.seed);
  if (!wl.has_value()) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *wl;

  // Pins are for the default seed; a held-out seed checks verify and
  // repeat agreement only.
  Pins pins;
  const bool pinned = args.seed == 42;
  if (pinned) {
    if (const std::string err = load_pins(args.pins, pins); !err.empty()) {
      std::fprintf(stderr, "raccd_perfbench: %s\n", err.c_str());
      return 2;
    }
  }
  Oracle oracle(pinned ? &pins : nullptr);
  const unsigned jobs = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

  std::printf("raccd-perfbench workload=%s seed=%llu seconds=%g trace=%d (%zu specs%s)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, w.specs.size(),
              w.sweep ? (", sweep -j" + std::to_string(jobs)).c_str() : ", serial");
  std::fflush(stdout);

  // Set-up time: set-up-only passes over the workload's specs (at least 7,
  // and at least half a second of them), each on the next CPU; median of the
  // per-pass sums.
  CpuRotation cpus;
  std::vector<double> setups;
  for (double spent = 0.0; setups.size() < 7 || (spent < 0.5 && setups.size() < 1001);) {
    cpus.next();
    setups.push_back(setup_pass(w.specs));
    spent += setups.back();
  }
  // Only serial workloads rotate during repeats: the sweep's pool threads
  // would inherit a pinned affinity from the thread that creates them.
  if (w.sweep) cpus.release();

  SpanLog spans;
  std::uint32_t sim_id = 0;
  std::uint32_t rep_index = 0;
  const auto rep = [&](SpanLog* log) {
    return w.sweep ? sweep_rep(w, oracle, log, workdir, rep_index++, jobs)
                   : serial_rep(w, oracle, log, workdir, rep_index++, sim_id, cpus);
  };
  // One untimed warm-up repeat (host caches, allocator, page faults). The
  // modelled caches start cold in every simulation regardless.
  (void)rep(nullptr);

  // Timed repeats until the next one would end past --seconds, but at least
  // three (two for the long paper_sweep repeat). The traced run alternates
  // untraced and traced repeats, at least one of each, so the tracing
  // overhead is measured in one process.
  const std::size_t min_reps = args.trace ? 1 : (w.sweep ? 2 : 3);
  std::vector<Rep> plain, traced;
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    plain.push_back(rep(nullptr));
    if (args.trace) traced.push_back(rep(&spans));
    const double elapsed = seconds_since(t0);
    const double per_round = elapsed / static_cast<double>(plain.size());
    if (plain.size() >= min_reps && elapsed + per_round > args.seconds) break;
  }

  std::vector<double> walls, rates;
  for (const Rep& r : plain) {
    walls.push_back(r.wall_s);
    rates.push_back(r.maccess_per_s());
  }
  const double wall_s = median(walls);
  const double failed_frac =
      oracle.ops() > 0 ? static_cast<double>(oracle.failed()) / static_cast<double>(oracle.ops())
                       : 1.0;
  const std::vector<Metric> e2e = {
      {"wall_s", wall_s, "s", false},
      {"sim_maccess_per_s", median(rates), "Maccess/s", false},
      {"setup_s", median(setups), "s", false},
      {"peak_rss_mb", peak_rss_mb(), "MB", false},
  };
  std::printf("end-to-end (median of %zu repeats, %zu set-up passes):\n", plain.size(),
              setups.size());
  for (const Metric& m : e2e) print_metric_line(m);
  std::printf("  %-32s %18.6f ratio (ops=%llu, failed=%llu)\n", "failed_frac", failed_frac,
              static_cast<unsigned long long>(oracle.ops()),
              static_cast<unsigned long long>(oracle.failed()));

  bool correct = oracle.failed() == 0;
  for (const std::string& e : oracle.errors()) std::printf("  FAIL %s\n", e.c_str());
  std::printf("repeat wall_s:");
  for (const Rep& r : plain) std::printf(" %.4f", r.wall_s);
  if (args.trace) {
    std::printf(" | traced:");
    for (const Rep& r : traced) std::printf(" %.4f", r.wall_s);
  }
  std::printf("\n");

  std::vector<Metric> layer;
  if (args.trace) {
    // Replay ledger: capture each ledger spec's access stream and replay it
    // through the layer entry points. paper_sweep uses its nine RaCCD specs,
    // run serially, which also supply its per-simulation host spans (the
    // sweep pool's worker threads carry none).
    std::vector<RunSpec> ledger_specs;
    for (const RunSpec& s : w.specs) {
      if (!w.sweep || s.mode == CohMode::kRaCCD) ledger_specs.push_back(s);
    }
    std::map<std::string, perfbench::LayerCost> ledger;
    std::uint64_t fabric_in_run = 0, deps_in_run = 0, tlb_in_run = 0, noc_in_run = 0,
                  mem_in_run = 0;
    SimTimes ledger_times;
    {
      Timed tl(&spans, "ledger.pass");
      for (const RunSpec& spec : ledger_specs) {
        perfbench::Capture cap;
        std::string error;
        const std::uint32_t id = ++sim_id;
        const std::optional<SimStats> stats = simulate(
            spec, w.sweep ? &spans : nullptr, id, ledger_times, error,
            [&](Machine& m) { cap.attach(m); },
            [&](Machine& m) { perfbench::replay(cap, m, ledger, &spans, id); });
        if (!oracle.record(spec, stats, error) || !stats.has_value()) continue;
        fabric_in_run += cap.records_in_run();
        deps_in_run += cap.deps_in_run();
        tlb_in_run += stats->tlb.lookups;
        noc_in_run += static_cast<std::uint64_t>(metric_value(*stats, "noc.messages"));
        mem_in_run += stats->accesses_replayed;
      }
    }

    // Host spans, per repeat.
    const auto totals = spans.totals();
    const auto span_s = [&](const char* name, double reps) {
      const auto it = totals.find(name);
      return it == totals.end() || reps <= 0.0 ? 0.0 : it->second.total_s / reps;
    };
    const double n_traced = static_cast<double>(traced.size());
    const double sim_reps = w.sweep ? 1.0 : n_traced;
    const double run_s = span_s("sim.run", sim_reps);
    double util = 0.0, steals = 0.0, idle = 0.0;
    for (const Rep& r : traced) {
      util += r.sweep.utilization() / n_traced;
      steals += static_cast<double>(r.sweep.steals) / n_traced;
      double busy = 0.0;
      for (const obs::WorkerProfile& wp : r.sweep.workers) busy += wp.busy_s;
      idle += (static_cast<double>(r.sweep.jobs) * r.sweep.wall_s - busy) / n_traced;
    }
    std::vector<double> traced_walls;
    for (const Rep& r : traced) traced_walls.push_back(r.wall_s);
    const double overhead_pct = (median(traced_walls) / wall_s - 1.0) * 100.0;

    layer = {
        {"apps.create_s", span_s("apps.create", sim_reps), "s", false},
        {"sim.build_s", span_s("sim.build", sim_reps), "s", false},
        {"sim.run_s", run_s, "s", false},
        {"apps.verify_s", span_s("apps.verify", sim_reps), "s", false},
        {"sim.collect_s", span_s("sim.collect", sim_reps), "s", false},
        {"metrics.emit_s", span_s("metrics.emit", n_traced), "s", false},
        {"harness.cached_pass_s", span_s("harness.cached_pass", n_traced), "s", false},
        {"exec.utilization", util, "ratio", false},
        {"exec.steals", steals, "count", false},
        {"exec.idle_s", idle, "s", false},
        {"bench.trace_overhead_pct", overhead_pct, "%", false},
    };
    const std::map<std::string, std::uint64_t> in_run = {
        {"tlb", tlb_in_run},           {"coherence.fabric", fabric_in_run},
        {"topo.route", noc_in_run},    {"runtime.dep", deps_in_run},
        {"mem", mem_in_run},
    };
    for (const char* name : perfbench::kLedgerLayers) {
      const perfbench::LayerCost& c = ledger[name];
      const double ns = c.calls > 0 ? c.seconds * 1e9 / static_cast<double>(c.calls) : 0.0;
      layer.push_back({std::string(name) + ".ns", ns, "ns", false});
      layer.push_back({std::string(name) + ".calls", static_cast<double>(c.calls), "count", true});
      if (const auto it = in_run.find(name); it != in_run.end()) {
        // ns/op x in-run ops = share of the ledger specs' App::run host time.
        const double share = ledger_times.run_s > 0.0
                                 ? ns * 1e-9 * static_cast<double>(it->second) / ledger_times.run_s
                                 : 0.0;
        layer.push_back({std::string(name) + ".share", share, "ratio", false});
      }
    }
    for (Metric& m : aggregate_counts(w, oracle)) layer.push_back(std::move(m));

    std::printf("per-layer (traced: %zu traced repeats, ledger over %zu specs):\n",
                traced.size(), ledger_specs.size());
    for (const Metric& m : layer) print_metric_line(m);
    std::printf("span self time (s, whole traced run):\n");
    for (const auto& [name, t] : totals) {
      std::printf("  %-32s total %10.4f  self %10.4f  n=%llu\n", name.c_str(), t.total_s,
                  t.self_s, static_cast<unsigned long long>(t.count));
    }

    const std::string trace_path =
        args.trace_out.empty() ? (workdir / "trace.json").string() : args.trace_out;
    if (const std::string err = spans.write_json(trace_path); !err.empty()) {
      std::printf("  FAIL trace export: %s\n", err.c_str());
      correct = false;
    } else {
      const obs::TraceValidation v = obs::validate_trace_file(trace_path);
      std::printf("trace %s: %s (%llu spans)\n", trace_path.c_str(), v.ok ? "valid" : "INVALID",
                  static_cast<unsigned long long>(v.spans));
      for (const std::string& e : v.errors) std::printf("  FAIL trace: %s\n", e.c_str());
      correct = correct && v.ok;
    }
  }

  if (const std::string err = oracle.self_check(); !err.empty()) {
    std::printf("  FAIL oracle self-check: %s\n", err.c_str());
    correct = false;
  }
  correct = correct && oracle.failed() == 0;
  print_result(correct, oracle, args.trace ? layer : e2e);
  return 0;
}
