// Metrics layer tests: schema completeness (every metric-bearing stats field
// reachable by name — a new field-list row must also join the static list
// below),
// kind-based formatting, selection parsing, emitter escaping, and the
// byte-compatibility + round-trip guarantees of the BENCH_grid.json payload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <vector>

#include "raccd/harness/grid.hpp"
#include "raccd/metrics/diff.hpp"
#include "raccd/metrics/emit.hpp"
#include "raccd/metrics/histogram.hpp"
#include "raccd/metrics/metric_schema.hpp"

namespace raccd {
namespace {

// Every metric the schema must expose, by canonical dotted name. This list
// is deliberately spelled out: adding a counter means one row in its stats
// struct's field list (common/stat_fields.hpp) AND its name here; a derived
// quantity means a descriptor in metric_schema.cpp AND its name here. That
// pairing is what keeps "silently unreported counter" impossible.
const char* const kExpectedNames[] = {
    "cycles", "time.busy_cycles", "time.core_utilization",
    // L1
    "fabric.l1_accesses", "fabric.l1_hits", "fabric.l1_misses", "fabric.l1_hit_rate",
    "fabric.l1_evictions", "fabric.l1_wb_coh", "fabric.l1_wb_nc",
    "fabric.l1_invals_sharer", "fabric.l1_invals_recall", "fabric.l1_flush_nc_lines",
    "fabric.l1_flush_nc_wbs", "fabric.l1_flush_page_lines", "fabric.l1_flush_page_wbs",
    // LLC
    "fabric.llc_lookups", "fabric.llc_hits", "fabric.llc_misses", "fabric.llc_hit_rate",
    "fabric.llc_nc_lookups", "fabric.llc_nc_hits", "fabric.llc_fills",
    "fabric.llc_evictions", "fabric.llc_inval_by_dir", "fabric.llc_wb_mem",
    "fabric.llc_touches",
    // Directory
    "fabric.dir_accesses", "fabric.dir_lookups", "fabric.dir_hits",
    "fabric.dir_misses", "fabric.dir_allocs", "fabric.dir_evictions",
    "fabric.dir_recall_msgs", "fabric.dir_wb_updates", "fabric.dir_nc_to_coh",
    "fabric.dir_coh_to_nc",
    // Transactions
    "fabric.coh_reads", "fabric.coh_writes", "fabric.upgrades", "fabric.nc_reads",
    "fabric.nc_writes", "fabric.owner_probes", "fabric.dir_reqs.cross_socket",
    "fabric.nc_reqs.cross_socket", "fabric.mem_reads", "fabric.mem_writes",
    "fabric.mem_wb_wait_cycles",
    // DRAM
    "dram.row_hits", "dram.row_misses", "dram.row_conflicts", "dram.row_hit_rate",
    "dram.queue_wait_cycles",
    // NoC
    "noc.messages", "noc.flits", "noc.flit_hops", "noc.flit_hops.on_socket",
    "noc.flit_hops.cross_socket", "noc.messages.cross_socket",
    "noc.flits.cross_socket", "noc.socket_link_flits",
    "noc.request.messages", "noc.request.flits", "noc.request.flit_hops",
    "noc.data.messages", "noc.data.flits", "noc.data.flit_hops",
    "noc.inval.messages", "noc.inval.flits", "noc.inval.flit_hops",
    "noc.ack.messages", "noc.ack.flits", "noc.ack.flit_hops",
    "noc.writeback.messages", "noc.writeback.flits", "noc.writeback.flit_hops",
    // NCRT / TLB / PT
    "ncrt.lookups", "ncrt.hits", "ncrt.inserts", "ncrt.overflows", "ncrt.clears",
    "tlb.lookups", "tlb.hits", "tlb.misses", "tlb.shootdowns", "tlb.evictions",
    "pt.first_touches", "pt.transitions",
    // ADR
    "adr.polls", "adr.grows", "adr.shrinks", "adr.entries_moved",
    "adr.entries_displaced", "adr.blocked_cycles",
    // Runtime
    "runtime.tasks", "runtime.edges", "runtime.accesses_replayed",
    "runtime.create_cycles", "runtime.schedule_cycles", "runtime.wakeup_cycles",
    "runtime.register_cycles", "runtime.invalidate_cycles",
    "runtime.flushed_nc_lines", "runtime.flushed_nc_wbs",
    // Blocks / occupancy / energy
    "blocks.touched", "blocks.noncoherent", "blocks.nc_fraction",
    "dir.avg_occupancy", "dir.avg_active_frac",
    "energy.dir_dyn_pj", "energy.llc_dyn_pj", "energy.noc_dyn_pj",
    "energy.mem_dyn_pj", "energy.mem_act_pj", "energy.mem_rd_pj",
    "energy.mem_wr_pj", "energy.mem_pre_pj", "energy.l1_dyn_pj",
    "energy.dir_leak_pj",
    "sampling.windows", "sampling.measured_tasks", "sampling.warmup_tasks",
    "sampling.ffwd_tasks", "sampling.measured_accesses", "sampling.ffwd_accesses",
    "sampling.scale", "sampling.cycles_ci95", "sampling.dir_accesses_ci95",
    "sampling.llc_hits_ci95", "sampling.noc_flits_ci95",
    "sampling.noc_flit_hops_ci95", "sampling.dram_row_hits_ci95",
    "sampling.dram_row_hit_rate_ci95", "sampling.dir_occupancy_ci95",
    // Open-loop service (per-request latency distributions)
    "service.requests",
    "service.queue.mean", "service.queue.p50", "service.queue.p95",
    "service.queue.p99", "service.queue.max",
    "service.svc.mean", "service.svc.p50", "service.svc.p95",
    "service.svc.p99", "service.svc.max",
    "service.e2e.mean", "service.e2e.p50", "service.e2e.p95",
    "service.e2e.p99", "service.e2e.max",
};

[[nodiscard]] SimStats distinctive_stats() {
  SimStats s;
  s.cycles = 123456789;
  s.fabric.dir_accesses = 42;
  s.fabric.llc_lookups = 1000;
  s.fabric.llc_hits = 250;
  s.fabric.dir_reqs_cross_socket = 17;
  s.noc.per_class[0].flit_hops = 7;
  s.noc.per_class[1].flit_hops = 5;
  s.noc.cross_socket.flit_hops = 3;
  s.dir_dyn_energy_pj = 1.5;
  s.llc_dyn_energy_pj = 2.25;
  s.noc_dyn_energy_pj = 0.125;
  s.dir_leak_energy_pj = 10.0;
  s.noncoherent_block_fraction = 0.5;
  s.avg_dir_occupancy = 0.125;
  s.tasks = 99;
  return s;
}

TEST(MetricSchema, EveryExpectedNameResolvesAndNothingElseExists) {
  const MetricSchema& schema = MetricSchema::instance();
  std::set<std::string> expected(std::begin(kExpectedNames), std::end(kExpectedNames));
  EXPECT_EQ(schema.all().size(), expected.size());
  for (const char* name : kExpectedNames) {
    const MetricDesc* m = schema.find(name);
    ASSERT_NE(m, nullptr) << "schema lacks " << name;
    EXPECT_STREQ(m->name, name);
    EXPECT_NE(m->doc[0], '\0') << name << " has no doc string";
  }
  // Every descriptor must be in the expected list (no unreviewed additions).
  for (const MetricDesc& m : schema.all()) {
    EXPECT_TRUE(expected.count(m.name)) << "unexpected metric " << m.name;
  }
}

TEST(MetricSchema, FlatKeysResolveAndAreUnique) {
  const MetricSchema& schema = MetricSchema::instance();
  std::set<std::string> keys;
  for (const MetricDesc& m : schema.all()) {
    EXPECT_TRUE(keys.insert(m.key).second) << "duplicate key " << m.key;
    EXPECT_EQ(schema.find(m.key), &m) << m.key;
  }
  // The legacy BENCH/CSV spellings are all reachable.
  for (const char* key : bench_metric_keys()) EXPECT_NE(schema.find(key), nullptr);
  for (const char* key : csv_metric_keys()) EXPECT_NE(schema.find(key), nullptr);
  for (const char* n : default_series_metrics()) EXPECT_NE(schema.find(n), nullptr);
}

TEST(MetricSchema, AccessorsReadTheRightFields) {
  const SimStats s = distinctive_stats();
  const MetricSchema& schema = MetricSchema::instance();
  EXPECT_EQ(schema.get("cycles").value(s).u, 123456789u);
  EXPECT_EQ(schema.get("fabric.dir_accesses").value(s).u, 42u);
  EXPECT_DOUBLE_EQ(schema.get("fabric.llc_hit_rate").value(s).d, 0.25);
  EXPECT_EQ(schema.get("noc.flit_hops").value(s).u, 12u);
  EXPECT_EQ(schema.get("noc.flit_hops.on_socket").value(s).u, 9u);
  EXPECT_DOUBLE_EQ(schema.get("energy.dir_dyn_pj").value(s).d, 1.5);
  // Lookup by flat key hits the same descriptor.
  EXPECT_EQ(&schema.get("dir_accesses"), &schema.get("fabric.dir_accesses"));
}

TEST(MetricSchema, KindFormatting) {
  const SimStats s = distinctive_stats();
  const MetricSchema& schema = MetricSchema::instance();
  EXPECT_EQ(schema.get("cycles").format(s), "123456789");
  EXPECT_EQ(schema.get("fabric.llc_hit_rate").format(s), "0.250000");
  EXPECT_EQ(schema.get("energy.llc_dyn_pj").format(s), "2.250");
}

TEST(MetricSchema, ParseSelection) {
  const MetricSchema& schema = MetricSchema::instance();
  std::vector<const MetricDesc*> sel;
  EXPECT_EQ(schema.parse_selection("cycles,dir.avg_occupancy,llc_hit_rate", sel), "");
  ASSERT_EQ(sel.size(), 3u);
  EXPECT_STREQ(sel[1]->name, "dir.avg_occupancy");
  EXPECT_STREQ(sel[2]->name, "fabric.llc_hit_rate");  // flat key resolved
  EXPECT_NE(schema.parse_selection("cycles,nope", sel), "");
  EXPECT_NE(schema.parse_selection("", sel), "");
  EXPECT_NE(schema.describe().find("dir.avg_occupancy"), std::string::npos);
  EXPECT_NE(schema.describe(true).find("| `cycles` |"), std::string::npos);
}

TEST(MetricSchema, DistributionKindFormatsWithOneDecimal) {
  SimStats s;
  s.service.requests = 7;
  s.service.e2e = {7, 1234.56, 1000.0, 2000.0, 3000.0, 3500.0};
  const MetricSchema& schema = MetricSchema::instance();
  const MetricDesc& m = schema.get("service.e2e.mean");
  EXPECT_EQ(m.kind, MetricKind::kDistribution);
  EXPECT_STREQ(to_string(m.kind), "distribution");
  EXPECT_EQ(m.format(s), "1234.6");
  EXPECT_EQ(schema.get("service_e2e_p99").format(s), "3000.0");
  EXPECT_EQ(schema.get("service.requests").value(s).u, 7u);
}

TEST(Histogram, ExactStatsAndBoundedPercentileError) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  // Empty distribution -> NaN (the emitters' null convention), never a
  // fake 0-cycle latency.
  EXPECT_TRUE(std::isnan(h.percentile(0.99)));
  EXPECT_TRUE(std::isnan(h.mean()));
  const DistSummary empty = h.summary();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_TRUE(std::isnan(empty.mean));
  EXPECT_TRUE(std::isnan(empty.p50));
  EXPECT_TRUE(std::isnan(empty.max));
  std::uint64_t sum = 0, mx = 0;
  // A wide, deterministic spread: values across many octaves.
  std::uint64_t v = 1;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 2000; ++i) {
    v = v * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t x = (v >> 20) % 10'000'000;
    values.push_back(x);
    h.add(x);
    sum += x;
    mx = std::max(mx, x);
  }
  EXPECT_EQ(h.count(), 2000u);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(sum) / 2000.0);
  EXPECT_EQ(h.max_value(), mx);
  // Percentiles come from log-spaced buckets (32 per octave): relative
  // error vs the exact order statistic stays within one sub-bucket (~3.2%).
  std::sort(values.begin(), values.end());
  for (const double q : {0.50, 0.95, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(std::ceil(q * 2000.0)) - 1;
    const double exact = static_cast<double>(values[rank]);
    EXPECT_NEAR(h.percentile(q), exact, 0.04 * exact + 1.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.percentile(1.0), static_cast<double>(mx));
  const DistSummary ds = h.summary();
  EXPECT_EQ(ds.count, 2000u);
  EXPECT_DOUBLE_EQ(ds.max, static_cast<double>(mx));
  EXPECT_DOUBLE_EQ(ds.p50, h.percentile(0.50));
}

TEST(Histogram, InsertionOrderDoesNotMatter) {
  Histogram fwd, rev;
  std::vector<std::uint64_t> values;
  for (std::uint64_t i = 0; i < 500; ++i) values.push_back(i * i * 37 % 100000);
  for (const std::uint64_t x : values) fwd.add(x);
  std::reverse(values.begin(), values.end());
  for (const std::uint64_t x : values) rev.add(x);
  EXPECT_DOUBLE_EQ(fwd.percentile(0.5), rev.percentile(0.5));
  EXPECT_DOUBLE_EQ(fwd.percentile(0.99), rev.percentile(0.99));
  EXPECT_DOUBLE_EQ(fwd.mean(), rev.mean());
  EXPECT_EQ(fwd.max_value(), rev.max_value());
}

TEST(Emitters, ServiceBlockAppendsOnlyForServiceRuns) {
  SimStats s = distinctive_stats();
  ASSERT_EQ(s.service.requests, 0u);  // batch runs stay byte-identical
  EXPECT_EQ(bench_metrics_json(s).find("service_"), std::string::npos);
  s.service.requests = 3;
  s.service.e2e = {3, 10.0, 8.0, 12.0, 12.0, 12.0};
  const std::string payload = bench_metrics_json(s);
  EXPECT_NE(payload.find("\"service_requests\": 3"), std::string::npos);
  EXPECT_NE(payload.find("\"service_e2e_p99\": 12.0"), std::string::npos);
  BenchLog log;
  EXPECT_EQ(parse_bench_json("{\"k\": {" + payload + "}}", log), "");
  EXPECT_DOUBLE_EQ(log.at("k").at("service_e2e_p50"), 8.0);
}

TEST(Emitters, CsvCellQuoting) {
  EXPECT_EQ(csv_cell("plain"), "plain");
  EXPECT_EQ(csv_cell("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_cell("shape=pipeline,width=64"), "\"shape=pipeline,width=64\"");
  EXPECT_EQ(csv_cell("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_cell("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_cell("forced", true), "\"forced\"");
}

TEST(Emitters, JsonEscaping) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(Emitters, NonFiniteValuesEmitAsNull) {
  SimStats s;
  s.avg_dir_occupancy = std::nan("");
  s.dir_dyn_energy_pj = std::numeric_limits<double>::infinity();
  const std::string payload = bench_metrics_json(s);
  EXPECT_NE(payload.find("\"avg_dir_occupancy\": null"), std::string::npos);
  EXPECT_NE(payload.find("\"dir_dyn_energy_pj\": null"), std::string::npos);
  // Still a valid JSON object for the diff loader.
  BenchLog log;
  EXPECT_EQ(parse_bench_json("{\"k\": {" + payload + "}}", log), "");
  EXPECT_TRUE(std::isnan(log.at("k").at("avg_dir_occupancy")));
}

TEST(Emitters, BenchPayloadIsByteCompatibleWithTheLegacyFormat) {
  const SimStats s = distinctive_stats();
  // The exact string the pre-schema hand-rolled emitter produced.
  const std::string legacy =
      "\"cycles\": 123456789, \"dir_accesses\": 42, \"llc_hit_rate\": 0.250000, "
      "\"noc_flit_hops\": 12, \"noc_on_socket_flit_hops\": 9, "
      "\"noc_cross_socket_flit_hops\": 3, \"dir_reqs_cross_socket\": 17, "
      "\"dir_dyn_energy_pj\": 1.500, \"llc_dyn_energy_pj\": 2.250, "
      "\"noc_dyn_energy_pj\": 0.125, \"dir_leak_energy_pj\": 10.000, "
      "\"nc_block_fraction\": 0.500000, \"avg_dir_occupancy\": 0.125000, "
      "\"tasks\": 99";
  EXPECT_EQ(bench_metrics_json(s), legacy);
}

TEST(Emitters, BenchJsonRoundTripsThroughTheDiffLoader) {
  const std::string dir = "test_metrics_tmp";
  std::filesystem::remove_all(dir);
  RunSpec spec;
  spec.app = "histo";
  spec.size = SizeClass::kTiny;
  const SimStats s = distinctive_stats();
  const ResultSet rs({spec}, {s});
  const std::string path = dir + "/BENCH.json";
  ASSERT_TRUE(rs.append_bench_json(path));
  BenchLog log;
  ASSERT_EQ(load_bench_json(path, log), "");
  ASSERT_EQ(log.size(), 1u);
  const MetricMap& m = log.at(spec.key());
  const MetricSchema& schema = MetricSchema::instance();
  EXPECT_EQ(m.size(), bench_metric_keys().size());
  for (const char* key : bench_metric_keys()) {
    ASSERT_TRUE(m.count(key)) << key;
    // Written with kind-fixed precision, so parse-back matches to 1e-6 rel.
    EXPECT_NEAR(m.at(key), schema.get(key).value(s).as_double(),
                1e-6 * (1.0 + std::fabs(schema.get(key).value(s).as_double())))
        << key;
  }
  std::filesystem::remove_all(dir);
}

TEST(Emitters, CsvEscapesParameterizedWorkloadRefs) {
  const std::string dir = "test_metrics_csv_tmp";
  std::filesystem::remove_all(dir);
  RunSpec spec;
  ASSERT_EQ(spec.set_workload_ref("synthetic:shape=pipeline,width=64"), "");
  const ResultSet rs({spec}, {distinctive_stats()});
  const std::string path = dir + "/out.csv";
  ASSERT_TRUE(rs.write_csv(path));
  std::ifstream in(path);
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  // The comma-bearing params cell arrives quoted; header cells are schema keys.
  EXPECT_NE(row.find("\"shape=pipeline,width=64\""), std::string::npos);
  EXPECT_NE(header.find("avg_dir_occupancy"), std::string::npos);
  // Same column count in header and row (quoted commas don't split).
  const auto count_cells = [](const std::string& line) {
    std::size_t cells = 1;
    bool quoted = false;
    for (const char c : line) {
      if (c == '"') quoted = !quoted;
      else if (c == ',' && !quoted) ++cells;
    }
    return cells;
  };
  EXPECT_EQ(count_cells(header), count_cells(row));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace raccd
