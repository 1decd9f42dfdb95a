// Self-describing metric schema over SimStats.
//
// Every quantity the simulator can report — raw counters, derived ratios,
// cycle totals and energies — is a MetricDesc: a canonical dotted name
// ("fabric.dir_accesses", "noc.flit_hops.cross_socket", "energy.dir_dyn_pj"),
// the flat key the machine-readable emitters use ("dir_accesses",
// "noc_cross_socket_flit_hops", "dir_dyn_energy_pj" — the spelling
// results/BENCH_grid.json has always used), a unit, a kind (which fixes the
// emitter formatting; MetricKind lives in common/stat_fields.hpp), a doc
// string, and an accessor over SimStats.
//
// Emitters (emit.hpp), the per-bench tables, the time-series sampler
// (series.hpp) and the raccd-report diff tool (diff.hpp) all select metrics
// from this one registry by name. Raw counters come from the stats field
// lists (one row per counter, next to each stats struct); only derived
// ratios and totals are written out in metric_schema.cpp. Adding a counter
// is therefore one list row plus its name in the schema-completeness test
// (tests/test_metrics.cpp), which fails until both agree.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "raccd/sim/stats.hpp"

namespace raccd {

/// A metric sample: integer-valued kinds keep full 64-bit precision.
struct MetricValue {
  double d = 0.0;
  std::uint64_t u = 0;
  bool is_int = false;

  [[nodiscard]] static MetricValue of(std::uint64_t v) noexcept {
    return MetricValue{static_cast<double>(v), v, true};
  }
  [[nodiscard]] static MetricValue of(double v) noexcept { return MetricValue{v, 0, false}; }
  [[nodiscard]] double as_double() const noexcept { return is_int ? static_cast<double>(u) : d; }
};

struct MetricDesc {
  const char* name;  ///< canonical dotted name ("fabric.dir_accesses")
  const char* key;   ///< flat emitter key ("dir_accesses"); the BENCH/CSV spelling
  const char* unit;  ///< "", "cycles", "pJ", "flit-hops", ...
  MetricKind kind;
  const char* doc;  ///< one line; shown by `raccd-report metrics`
  MetricValue (*get)(const SimStats&);

  [[nodiscard]] MetricValue value(const SimStats& s) const { return get(s); }
  /// Kind-determined text form (counters/cycles as integers, ratios %.6f,
  /// energies %.3f) — the formatting every emitter has always used.
  [[nodiscard]] std::string format(const SimStats& s) const;
};

class MetricSchema {
 public:
  /// The process-wide registry (built once, immutable).
  [[nodiscard]] static const MetricSchema& instance();

  [[nodiscard]] std::span<const MetricDesc> all() const noexcept { return metrics_; }
  /// Lookup by dotted name or flat key; nullptr when unknown.
  [[nodiscard]] const MetricDesc* find(std::string_view name_or_key) const;
  /// Lookup that aborts with the requested name and the full name list.
  [[nodiscard]] const MetricDesc& get(std::string_view name_or_key) const;
  /// Resolve a by-name selection in order; aborts on any unknown name.
  [[nodiscard]] std::vector<const MetricDesc*> select(
      std::span<const std::string> names) const;
  [[nodiscard]] std::vector<const MetricDesc*> select(
      std::initializer_list<const char*> names) const;
  /// Split a comma-separated name list ("cycles,dir.avg_occupancy") and
  /// resolve it; returns "" or an error naming the unknown metric.
  [[nodiscard]] std::string parse_selection(std::string_view csv,
                                            std::vector<const MetricDesc*>& out) const;

  /// Human/markdown table of every metric (name, kind, unit, doc).
  [[nodiscard]] std::string describe(bool markdown = false) const;

 private:
  MetricSchema();
  std::vector<MetricDesc> metrics_;
  std::unordered_map<std::string_view, const MetricDesc*> index_;
};

/// The BENCH_grid.json payload selection, in its historical field order —
/// emitted byte-compatibly by bench_metrics_json() (emit.hpp).
[[nodiscard]] std::span<const char* const> bench_metric_keys() noexcept;

/// The ResultSet CSV/JSON headline selection (a superset ordering of the
/// historical CSV columns).
[[nodiscard]] std::span<const char* const> csv_metric_keys() noexcept;

/// Default time-series subset (directory occupancy and its drivers).
[[nodiscard]] std::span<const char* const> default_series_metrics() noexcept;

/// Metric value by name — the one-line entry point tables and reports use
/// to select what they print ("dir.avg_occupancy") instead of reaching into
/// SimStats fields. Aborts (with the full name list) on unknown names.
[[nodiscard]] inline double metric_value(const SimStats& s, std::string_view name) {
  return MetricSchema::instance().get(name).value(s).as_double();
}

}  // namespace raccd
