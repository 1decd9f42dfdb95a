#include "raccd/metrics/diff.hpp"

#include <cmath>
#include <fstream>
#include <limits>

#include "raccd/common/format.hpp"
#include "raccd/common/json.hpp"
#include "raccd/metrics/metric_schema.hpp"

namespace raccd {
namespace {

[[nodiscard]] double tolerance_pct_for(const std::string& key,
                                       const DiffTolerances& tol, bool& absolute,
                                       double& abs_band) {
  absolute = false;
  abs_band = 0.0;
  const MetricDesc* m = MetricSchema::instance().find(key);
  if (m == nullptr) return tol.default_pct;
  switch (m->kind) {
    case MetricKind::kCounter: return tol.counter_pct;
    case MetricKind::kCycles: return tol.cycles_pct;
    case MetricKind::kEnergy: return tol.energy_pct;
    case MetricKind::kRatio:
      absolute = true;
      abs_band = tol.ratio_abs;
      return 0.0;
    case MetricKind::kDistribution: return tol.cycles_pct;  // latency summaries
  }
  return tol.default_pct;
}

}  // namespace

std::string parse_bench_json(std::string_view text, BenchLog& out) {
  out.clear();
  json::Value root;
  if (std::string err = json::parse(text, root); !err.empty()) return err;
  if (root.kind != json::Value::Kind::kObject) return "expected an object of runs";
  for (const json::Member& run : root.object) {
    if (run.value.kind != json::Value::Kind::kObject) {
      return strprintf("run '%s' is not an object", run.key.c_str());
    }
    // Numbers keep their value, null reads as NaN, booleans as 1/0; strings,
    // arrays and nested objects are not metrics and are skipped.
    MetricMap metrics;
    for (const json::Member& m : run.value.object) {
      switch (m.value.kind) {
        case json::Value::Kind::kNumber: metrics[m.key] = m.value.number; break;
        case json::Value::Kind::kNull:
          metrics[m.key] = std::numeric_limits<double>::quiet_NaN();
          break;
        case json::Value::Kind::kBool: metrics[m.key] = m.value.boolean ? 1.0 : 0.0; break;
        default: break;
      }
    }
    out[run.key] = std::move(metrics);
  }
  return "";
}

std::string load_bench_json(const std::string& path, BenchLog& out) {
  std::ifstream in(path);
  if (!in) return strprintf("cannot open %s", path.c_str());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string err = parse_bench_json(text, out);
  if (!err.empty()) return strprintf("%s: %s", path.c_str(), err.c_str());
  return "";
}

BenchDiff diff_bench_logs(const BenchLog& base, const BenchLog& cand,
                          const DiffTolerances& tol) {
  BenchDiff d;
  for (const auto& [key, base_metrics] : base) {
    // Double-underscore entries (__profile__) carry host-side telemetry —
    // nondeterministic by nature, never part of the gate.
    if (key.rfind("__", 0) == 0) continue;
    const auto cit = cand.find(key);
    if (cit == cand.end()) {
      d.only_in_base.push_back(key);
      continue;
    }
    ++d.keys_compared;
    for (const auto& [metric, bval] : base_metrics) {
      const auto mit = cit->second.find(metric);
      DiffEntry e{key, metric, bval, 0.0, 0.0, false};
      if (mit == cit->second.end()) {
        // Candidate dropped a metric the baseline had: schema shrank.
        e.cand = std::numeric_limits<double>::quiet_NaN();
        e.out_of_tolerance = true;
        d.exceeded.push_back(std::move(e));
        continue;
      }
      ++d.metrics_compared;
      e.cand = mit->second;
      const bool bnan = std::isnan(bval), cnan = std::isnan(e.cand);
      if (bnan || cnan) {
        e.out_of_tolerance = bnan != cnan;  // null vs value is a change
      } else {
        e.delta_pct = bval == 0.0
                          ? (e.cand == 0.0 ? 0.0 : std::numeric_limits<double>::infinity())
                          : 100.0 * (e.cand - bval) / bval;
        bool absolute = false;
        double abs_band = 0.0;
        const double pct = tolerance_pct_for(metric, tol, absolute, abs_band);
        // CI-aware widening: a sampled run publishes `<metric>_ci95` beside
        // the metric it prices — the statistical half-width joins the band,
        // so extrapolation noise inside the reported CI never fails a gate.
        double ci = 0.0;
        const std::string ci_key = metric + "_ci95";
        if (const auto bci = base_metrics.find(ci_key);
            bci != base_metrics.end() && !std::isnan(bci->second)) {
          ci = std::max(ci, bci->second);
        }
        if (const auto cci = cit->second.find(ci_key);
            cci != cit->second.end() && !std::isnan(cci->second)) {
          ci = std::max(ci, cci->second);
        }
        if (absolute) {
          e.out_of_tolerance = std::fabs(e.cand - bval) > std::max(abs_band, ci);
        } else {
          const double band = std::max(std::fabs(bval) * pct / 100.0, ci);
          e.out_of_tolerance = std::fabs(e.cand - bval) > band;
        }
      }
      if (e.out_of_tolerance) d.exceeded.push_back(std::move(e));
    }
  }
  for (const auto& [key, metrics] : cand) {
    (void)metrics;
    if (key.rfind("__", 0) == 0) continue;
    if (base.find(key) == base.end()) d.only_in_candidate.push_back(key);
  }
  return d;
}

std::string BenchDiff::report(bool markdown) const {
  std::string out;
  const bool ok = regressions() == 0;
  if (markdown) {
    out += strprintf("%s **perf gate %s** — %zu spec keys, %zu metrics compared, "
                     "%zu out of tolerance, %zu baseline keys missing, %zu new keys\n\n",
                     ok ? "✅" : "❌", ok ? "PASS" : "FAIL", keys_compared,
                     metrics_compared, exceeded.size(), only_in_base.size(),
                     only_in_candidate.size());
  } else {
    out += strprintf("perf gate %s: %zu spec keys, %zu metrics compared, %zu out of "
                     "tolerance, %zu baseline keys missing, %zu new keys\n",
                     ok ? "PASS" : "FAIL", keys_compared, metrics_compared,
                     exceeded.size(), only_in_base.size(), only_in_candidate.size());
  }
  if (!exceeded.empty()) {
    if (markdown) {
      out += "| spec | metric | baseline | candidate | delta |\n|---|---|---|---|---|\n";
      for (const DiffEntry& e : exceeded) {
        out += strprintf("| `%s` | %s | %g | %g | %+.3f%% |\n", e.key.c_str(),
                         e.metric.c_str(), e.base, e.cand, e.delta_pct);
      }
    } else {
      for (const DiffEntry& e : exceeded) {
        out += strprintf("  %-70s %-28s %14g -> %14g (%+.3f%%)\n", e.key.c_str(),
                         e.metric.c_str(), e.base, e.cand, e.delta_pct);
      }
    }
  }
  for (const std::string& k : only_in_base) {
    out += strprintf(markdown ? "- missing from candidate: `%s`\n"
                              : "  missing from candidate: %s\n",
                     k.c_str());
  }
  for (const std::string& k : only_in_candidate) {
    out += strprintf(markdown ? "- new in candidate: `%s`\n"
                              : "  new in candidate: %s\n",
                     k.c_str());
  }
  return out;
}

}  // namespace raccd
