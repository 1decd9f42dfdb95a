#include "raccd/metrics/metric_schema.hpp"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "raccd/common/assert.hpp"
#include "raccd/common/format.hpp"

namespace raccd {
namespace {

// Derived metrics, one per line: dotted name, flat emitter key, unit, kind,
// doc, accessor expression over `s`. The lambda decays to a plain function
// pointer, so the table stays POD-cheap.
#define RACCD_METRIC(NAME, KEY, UNIT, KIND, DOC, EXPR)        \
  MetricDesc {                                                \
    NAME, KEY, UNIT, MetricKind::KIND, DOC,                   \
        [](const SimStats& s) { return MetricValue::of(EXPR); } \
  }

template <class T>
[[nodiscard]] MetricValue raw_value(T v) noexcept {
  if constexpr (std::is_floating_point_v<T>) {
    return MetricValue::of(static_cast<double>(v));
  } else {
    return MetricValue::of(static_cast<std::uint64_t>(v));
  }
}

[[nodiscard]] std::vector<MetricDesc> build_table() {
  // Raw counters: every field-list row that names a metric, in list order.
  std::vector<MetricDesc> table;
  SimStats::for_each_field([&](const StatField& f, auto field) {
    using Field = decltype(field);
    if (f.name == nullptr) return;
    table.push_back(MetricDesc{f.name, f.key, f.unit, f.kind, f.doc, [](const SimStats& s) {
                                 return raw_value(Field{}(s));
                               }});
  });
  // Derived ratios and totals.
  table.insert(
      table.end(),
      {
          RACCD_METRIC("fabric.l1_hit_rate", "l1_hit_rate", "", kRatio,
                       "l1_hits / l1_accesses (derived)",
                       s.fabric.l1_accesses == 0
                           ? 0.0
                           : static_cast<double>(s.fabric.l1_hits) /
                                 static_cast<double>(s.fabric.l1_accesses)),
          RACCD_METRIC("fabric.llc_hit_rate", "llc_hit_rate", "", kRatio,
                       "llc_hits / llc_lookups (paper Fig. 7b)", s.llc_hit_ratio()),
          RACCD_METRIC("dram.row_hit_rate", "dram_row_hit_rate", "", kRatio,
                       "row-buffer hits / serviced DRAM requests",
                       s.fabric.dram_row_hit_ratio()),
          RACCD_METRIC("noc.messages", "noc_messages", "", kCounter, "NoC messages",
                       s.noc.total_messages()),
          RACCD_METRIC("noc.flits", "noc_flits", "flits", kCounter, "NoC flits injected",
                       s.noc.total_flits()),
          RACCD_METRIC("noc.flit_hops", "noc_flit_hops", "flit-hops", kCounter,
                       "flits x links traversed (paper Fig. 7c)", s.noc.total_flit_hops()),
          RACCD_METRIC("noc.flit_hops.on_socket", "noc_on_socket_flit_hops", "flit-hops",
                       kCounter, "flit-hops on intra-socket links",
                       s.noc.on_socket_flit_hops()),
      });
  return table;
}

#undef RACCD_METRIC

constexpr const char* kBenchKeys[] = {
    // The results/BENCH_grid.json payload, in its historical field order.
    "cycles",
    "dir_accesses",
    "llc_hit_rate",
    "noc_flit_hops",
    "noc_on_socket_flit_hops",
    "noc_cross_socket_flit_hops",
    "dir_reqs_cross_socket",
    "dir_dyn_energy_pj",
    "llc_dyn_energy_pj",
    "noc_dyn_energy_pj",
    "dir_leak_energy_pj",
    "nc_block_fraction",
    "avg_dir_occupancy",
    "tasks",
};

constexpr const char* kCsvKeys[] = {
    "cycles",
    "dir_accesses",
    "llc_hit_rate",
    "noc_flit_hops",
    "noc_cross_socket_flit_hops",
    "dir_dyn_energy_pj",
    "nc_block_fraction",
    "avg_dir_occupancy",
    "tasks",
};

constexpr const char* kSeriesDefaults[] = {
    "dir.avg_occupancy", "dir.avg_active_frac", "fabric.dir_accesses",
    "fabric.llc_hit_rate", "noc.flit_hops",
};

}  // namespace

std::string MetricDesc::format(const SimStats& s) const {
  const MetricValue v = value(s);
  switch (kind) {
    case MetricKind::kCounter:
    case MetricKind::kCycles:
      return strprintf("%llu", static_cast<unsigned long long>(v.u));
    case MetricKind::kRatio:
      return strprintf("%.6f", v.d);
    case MetricKind::kEnergy:
      return strprintf("%.3f", v.d);
    case MetricKind::kDistribution:
      return strprintf("%.1f", v.d);
  }
  return "?";
}

MetricSchema::MetricSchema() : metrics_(build_table()) {
  for (const MetricDesc& m : metrics_) {
    const auto [it, inserted] = index_.try_emplace(m.name, &m);
    RACCD_ASSERT(inserted, "duplicate metric name in schema");
    if (std::string_view(m.key) != m.name) {
      const auto [kit, kinserted] = index_.try_emplace(m.key, &m);
      RACCD_ASSERT(kinserted, "metric key collides with another name/key");
    }
  }
}

const MetricSchema& MetricSchema::instance() {
  static const MetricSchema schema;
  return schema;
}

const MetricDesc* MetricSchema::find(std::string_view name_or_key) const {
  const auto it = index_.find(name_or_key);
  return it == index_.end() ? nullptr : it->second;
}

const MetricDesc& MetricSchema::get(std::string_view name_or_key) const {
  const MetricDesc* m = find(name_or_key);
  if (m == nullptr) {
    std::fprintf(stderr, "unknown metric '%.*s'; known metrics:\n",
                 static_cast<int>(name_or_key.size()), name_or_key.data());
    for (const MetricDesc& d : metrics_) std::fprintf(stderr, "  %s\n", d.name);
    RACCD_ASSERT(false, "metric name not present in schema");
  }
  return *m;
}

std::vector<const MetricDesc*> MetricSchema::select(
    std::span<const std::string> names) const {
  std::vector<const MetricDesc*> out;
  out.reserve(names.size());
  for (const std::string& n : names) out.push_back(&get(n));
  return out;
}

std::vector<const MetricDesc*> MetricSchema::select(
    std::initializer_list<const char*> names) const {
  std::vector<const MetricDesc*> out;
  out.reserve(names.size());
  for (const char* n : names) out.push_back(&get(n));
  return out;
}

std::string MetricSchema::parse_selection(std::string_view csv,
                                          std::vector<const MetricDesc*>& out) const {
  out.clear();
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string_view::npos) comma = csv.size();
    const std::string_view name = csv.substr(pos, comma - pos);
    if (!name.empty()) {
      const MetricDesc* m = find(name);
      if (m == nullptr) {
        return strprintf("unknown metric '%.*s' (see `raccd-report metrics`)",
                         static_cast<int>(name.size()), name.data());
      }
      out.push_back(m);
    }
    pos = comma + 1;
  }
  if (out.empty()) return "empty metric selection";
  return "";
}

std::string MetricSchema::describe(bool markdown) const {
  std::size_t name_w = 0, key_w = 0, kind_w = 0, unit_w = 0;
  for (const MetricDesc& m : metrics_) {
    name_w = std::max(name_w, std::string_view(m.name).size());
    key_w = std::max(key_w, std::string_view(m.key).size());
    kind_w = std::max(kind_w, std::string_view(to_string(m.kind)).size());
    unit_w = std::max(unit_w, std::string_view(m.unit).size());
  }
  std::string out;
  if (markdown) {
    out += "| metric | key | kind | unit | description |\n";
    out += "|---|---|---|---|---|\n";
    for (const MetricDesc& m : metrics_) {
      out += strprintf("| `%s` | `%s` | %s | %s | %s |\n", m.name, m.key,
                       to_string(m.kind), m.unit, m.doc);
    }
    return out;
  }
  out += strprintf("%-*s  %-*s  %-*s  %-*s  %s\n", static_cast<int>(name_w), "metric",
                   static_cast<int>(key_w), "key", static_cast<int>(kind_w), "kind",
                   static_cast<int>(unit_w), "unit", "description");
  for (const MetricDesc& m : metrics_) {
    out += strprintf("%-*s  %-*s  %-*s  %-*s  %s\n", static_cast<int>(name_w), m.name,
                     static_cast<int>(key_w), m.key, static_cast<int>(kind_w),
                     to_string(m.kind), static_cast<int>(unit_w), m.unit, m.doc);
  }
  return out;
}

std::span<const char* const> bench_metric_keys() noexcept { return kBenchKeys; }
std::span<const char* const> csv_metric_keys() noexcept { return kCsvKeys; }
std::span<const char* const> default_series_metrics() noexcept { return kSeriesDefaults; }

}  // namespace raccd
