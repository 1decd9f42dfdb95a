// Workload SDK tests: registry registration/lookup/duplicate rejection,
// WorkloadParams parsing round-trips (defaults, overrides, bad values),
// schema validation, workload references, trace-file round-trips, and
// synthetic-workload determinism (same params+seed -> byte-identical stats,
// in every coherence mode).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "raccd/apps/registry.hpp"
#include "raccd/apps/trace_capture.hpp"
#include "raccd/harness/experiment.hpp"
#include "raccd/harness/sweep_cache.hpp"
#include "raccd/runtime/trace_file.hpp"

namespace raccd {
namespace {

TEST(Registry, AllBuiltinWorkloadsAreRegistered) {
  const WorkloadRegistry& reg = WorkloadRegistry::instance();
  for (const auto& name : paper_app_names()) {
    const WorkloadInfo* w = reg.find(name);
    ASSERT_NE(w, nullptr) << name;
    EXPECT_EQ(w->family, "paper");
    EXPECT_FALSE(w->description.empty());
  }
  ASSERT_NE(reg.find("cholesky"), nullptr);
  ASSERT_NE(reg.find("synthetic"), nullptr);
  EXPECT_EQ(reg.find("synthetic")->family, "synthetic");
  ASSERT_NE(reg.find("tracereplay"), nullptr);
  EXPECT_EQ(reg.find("tracereplay")->family, "trace");
  // One family per workload kind, discoverable for CI smoke enumeration.
  const auto families = reg.families();
  EXPECT_NE(std::find(families.begin(), families.end(), "paper"), families.end());
  EXPECT_NE(std::find(families.begin(), families.end(), "synthetic"), families.end());
  EXPECT_NE(std::find(families.begin(), families.end(), "trace"), families.end());
}

TEST(Registry, UnknownNameReturnsNullWithHelpfulError) {
  std::string error;
  auto app = WorkloadRegistry::instance().create("nope", AppConfig{}, &error);
  EXPECT_EQ(app, nullptr);
  EXPECT_NE(error.find("unknown workload 'nope'"), std::string::npos);
  EXPECT_NE(error.find("jacobi"), std::string::npos);  // lists alternatives
  EXPECT_NE(error.find("synthetic"), std::string::npos);
  // make_app shim: prints, returns nullptr, never asserts.
  EXPECT_EQ(make_app("nope"), nullptr);
}

TEST(Registry, DuplicateAndInvalidRegistrationsAreRejected) {
  WorkloadRegistry& reg = WorkloadRegistry::instance();
  WorkloadInfo dup;
  dup.name = "jacobi";  // already taken by the real app
  dup.description = "imposter";
  dup.family = "paper";
  dup.factory = [](const AppConfig& cfg) { return make_app("gauss", cfg); };
  EXPECT_FALSE(reg.add(std::move(dup)));
  EXPECT_NE(reg.find("jacobi")->description.find("Jacobi"), std::string::npos);

  WorkloadInfo unnamed;
  unnamed.factory = [](const AppConfig& cfg) { return make_app("gauss", cfg); };
  EXPECT_FALSE(reg.add(std::move(unnamed)));

  WorkloadInfo no_factory;
  no_factory.name = "factoryless";
  EXPECT_FALSE(reg.add(std::move(no_factory)));
  EXPECT_EQ(reg.find("factoryless"), nullptr);
}

TEST(Registry, NullFactoryResultCarriesAReason) {
  WorkloadRegistry reg;  // private instance: the process-wide one stays clean
  WorkloadInfo empty;
  empty.name = "hollow";
  empty.factory = [](const AppConfig&) { return std::unique_ptr<App>{}; };
  ASSERT_TRUE(reg.add(std::move(empty)));
  std::string error;
  EXPECT_EQ(reg.create("hollow", AppConfig{}, &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(error, "workload 'hollow': factory returned no app");
}

TEST(WorkloadParams, ParseAndCanonicalRoundTrip) {
  WorkloadParams p;
  EXPECT_EQ(WorkloadParams::parse("n=512,iters=16", p), "");
  EXPECT_TRUE(p.has("n"));
  EXPECT_EQ(p.get_int("n", 0), 512);
  EXPECT_EQ(p.get_int("iters", 0), 16);
  EXPECT_EQ(p.get_int("absent", 7), 7);
  // Canonical form is sorted and stable under re-parsing.
  EXPECT_EQ(p.canonical(), "iters=16,n=512");
  WorkloadParams q;
  EXPECT_EQ(WorkloadParams::parse(p.canonical(), q), "");
  EXPECT_EQ(q.canonical(), p.canonical());
  // Later values win; empty text is fine.
  WorkloadParams r;
  EXPECT_EQ(WorkloadParams::parse("a=1,a=2", r), "");
  EXPECT_EQ(r.get_int("a", 0), 2);
  WorkloadParams empty;
  EXPECT_EQ(WorkloadParams::parse("", empty), "");
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.canonical(), "");
}

TEST(WorkloadParams, MalformedTextIsRejected) {
  WorkloadParams p;
  EXPECT_NE(WorkloadParams::parse("novalue", p), "");
  EXPECT_NE(WorkloadParams::parse("=5", p), "");
}

TEST(WorkloadParams, SchemaValidatesTypesBoundsAndChoices) {
  const ParamSchema schema = ParamSchema()
                                 .add_int("n", 512, "edge", 8, 8192)
                                 .add_double("reuse", 0.25, "fraction", 0.0, 1.0)
                                 .add_enum("shape", "forkjoin", "family",
                                           {"forkjoin", "pipeline"});
  WorkloadParams ok;
  ASSERT_EQ(WorkloadParams::parse("n=64,reuse=0.5,shape=pipeline", ok), "");
  EXPECT_EQ(schema.validate(ok), "");

  WorkloadParams unknown;
  unknown.set("bogus", "1");
  const std::string uerr = schema.validate(unknown);
  EXPECT_NE(uerr.find("unknown parameter 'bogus'"), std::string::npos);
  EXPECT_NE(uerr.find("n, reuse, shape"), std::string::npos);

  WorkloadParams bad_int;
  bad_int.set("n", "abc");
  EXPECT_NE(schema.validate(bad_int).find("not an integer"), std::string::npos);

  WorkloadParams oob;
  oob.set("n", "4");
  EXPECT_NE(schema.validate(oob).find("out of range"), std::string::npos);

  WorkloadParams oob_d;
  oob_d.set("reuse", "1.5");
  EXPECT_NE(schema.validate(oob_d).find("out of range"), std::string::npos);

  WorkloadParams bad_enum;
  bad_enum.set("shape", "ring");
  EXPECT_NE(schema.validate(bad_enum).find("forkjoin|pipeline"), std::string::npos);

  // resolve(): defaults overlaid with overrides, every declared key present.
  WorkloadParams partial;
  partial.set("n", "64");
  const WorkloadParams resolved = schema.resolve(partial);
  EXPECT_EQ(resolved.get_int("n", 0), 64);
  EXPECT_DOUBLE_EQ(resolved.get_double("reuse", -1), 0.25);
  EXPECT_EQ(resolved.get_string("shape", ""), "forkjoin");
}

TEST(WorkloadParams, InvalidParamsRejectedAtCreation) {
  AppConfig cfg;
  cfg.size = SizeClass::kTiny;
  ASSERT_EQ(WorkloadParams::parse("n=0", cfg.params), "");
  std::string error;
  auto app = WorkloadRegistry::instance().create("jacobi", cfg, &error);
  EXPECT_EQ(app, nullptr);
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

TEST(WorkloadParams, OverridesChangeTheProblem) {
  auto small = make_app("jacobi", AppConfig{SizeClass::kTiny, 1});
  AppConfig big_cfg{SizeClass::kTiny, 1};
  ASSERT_EQ(WorkloadParams::parse("n=128,iters=2", big_cfg.params), "");
  auto big = make_app("jacobi", big_cfg);
  ASSERT_NE(small, nullptr);
  ASSERT_NE(big, nullptr);
  EXPECT_NE(small->problem(), big->problem());
  EXPECT_NE(big->problem().find("16384"), std::string::npos);  // 128^2
}

TEST(Registry, WorkloadRefParsing) {
  std::string name;
  WorkloadParams params;
  EXPECT_EQ(parse_workload_ref("jacobi", name, params), "");
  EXPECT_EQ(name, "jacobi");
  EXPECT_TRUE(params.empty());
  EXPECT_EQ(parse_workload_ref("synthetic:width=8,shape=pipeline", name, params), "");
  EXPECT_EQ(name, "synthetic");
  EXPECT_EQ(params.canonical(), "shape=pipeline,width=8");
  EXPECT_EQ(format_workload_ref(name, params), "synthetic:shape=pipeline,width=8");
  EXPECT_NE(parse_workload_ref(":x=1", name, params), "");
  EXPECT_NE(parse_workload_ref("app:broken", name, params), "");
}

// Same params + seed must give byte-identical stats, in every mode, for
// every synthetic shape (the generator is the determinism stress case: its
// structure comes from an RNG-built plan).
class SyntheticDeterminism
    : public ::testing::TestWithParam<std::tuple<std::string, CohMode>> {};

TEST_P(SyntheticDeterminism, ByteIdenticalStats) {
  const auto& [shape, mode] = GetParam();
  RunSpec spec;
  spec.app = "synthetic";
  spec.size = SizeClass::kTiny;
  spec.mode = mode;
  spec.seed = 0xD37E;
  ASSERT_EQ(spec.set_workload_ref("synthetic:shape=" + shape + ",width=4,depth=3"), "");
  const std::string a = stats_to_text(run_one(spec));
  const std::string b = stats_to_text(run_one(spec));
  EXPECT_EQ(a, b);
  // A different seed must change the functional stream (but still verify).
  RunSpec other = spec;
  other.seed = 0xD37F;
  const SimStats c = run_one(other);
  EXPECT_GT(c.cycles, 0u);
}

std::string determinism_case_name(
    const ::testing::TestParamInfo<std::tuple<std::string, CohMode>>& info) {
  return std::get<0>(info.param) + "_" + to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllShapesAllModes, SyntheticDeterminism,
    ::testing::Combine(::testing::Values("forkjoin", "pipeline", "randomdag"),
                       ::testing::ValuesIn(std::vector<CohMode>(kAllBackends.begin(),
                                                                kAllBackends.end()))),
    determinism_case_name);

TEST(TraceFile, TextRoundTrip) {
  TraceFile tf;
  tf.regions = {{"a", 4096}, {"b", 256}};
  TraceTask t;
  t.name = "t0";
  t.deps.push_back({0, 0, 4096, DepKind::kIn});
  t.deps.push_back({1, 64, 128, DepKind::kInout});
  t.accesses.push_back({0, 8, 8, 3, false, 12});
  t.accesses.push_back({1, 64, 4, 1, true, 0});
  t.trailing_compute = 9;
  tf.tasks.push_back(std::move(t));

  TraceFile back;
  ASSERT_EQ(TraceFile::from_text(tf.to_text(), back), "");
  ASSERT_EQ(back.regions.size(), 2u);
  EXPECT_EQ(back.regions[0].name, "a");
  EXPECT_EQ(back.regions[1].bytes, 256u);
  ASSERT_EQ(back.tasks.size(), 1u);
  EXPECT_EQ(back.tasks[0].deps.size(), 2u);
  EXPECT_EQ(back.tasks[0].deps[1].kind, DepKind::kInout);
  ASSERT_EQ(back.tasks[0].accesses.size(), 2u);
  EXPECT_EQ(back.tasks[0].accesses[0].repeat, 3u);
  EXPECT_EQ(back.tasks[0].accesses[0].compute_gap, 12u);
  EXPECT_TRUE(back.tasks[0].accesses[1].is_write);
  EXPECT_EQ(back.tasks[0].trailing_compute, 9u);
  EXPECT_EQ(back.to_text(), tf.to_text());
}

TEST(TraceFile, RejectsMalformedInput) {
  TraceFile out;
  EXPECT_NE(TraceFile::from_text("", out), "");
  EXPECT_NE(TraceFile::from_text("bogus 1\n", out), "");
  // Access beyond its region.
  EXPECT_NE(TraceFile::from_text("raccd-trace 1\nregion r 64\ntask t\n"
                                 "a r 0 64 8 1 0\nend\n",
                                 out),
            "");
  // Misaligned access.
  EXPECT_NE(TraceFile::from_text("raccd-trace 1\nregion r 64\ntask t\n"
                                 "a r 0 4 8 1 0\nend\n",
                                 out),
            "");
  // Unterminated task.
  EXPECT_NE(TraceFile::from_text("raccd-trace 1\nregion r 64\ntask t\n", out), "");
}

TEST(TraceCaptureTest, CapturedWorkloadReplaysInEveryMode) {
  // Record histo (annotated, migrating) once, then replay the trace under
  // every backend; replay must functionally verify everywhere.
  TraceFile tf;
  ASSERT_EQ(capture_workload_trace("histo", AppConfig{SizeClass::kTiny, 11},
                                   SimConfig::scaled(CohMode::kFullCoh), tf),
            "");
  EXPECT_GT(tf.regions.size(), 0u);
  EXPECT_GT(tf.tasks.size(), 0u);
  const std::string path = "test_capture_tmp.rtrace";
  ASSERT_EQ(tf.save(path), "");
  for (const CohMode mode : kAllBackends) {
    AppConfig cfg{SizeClass::kTiny, 11};
    cfg.params.set("file", path);
    std::string error;
    auto app = WorkloadRegistry::instance().create("tracereplay", cfg, &error);
    ASSERT_NE(app, nullptr) << error;
    Machine m(SimConfig::scaled(mode));
    app->run(m);
    EXPECT_EQ(app->verify(m), "") << to_string(mode);
    const SimStats s = m.collect();
    EXPECT_EQ(s.tasks, tf.tasks.size());
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace raccd
