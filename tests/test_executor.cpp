// Exec subsystem tests: the work-stealing pool (stealing, exception
// propagation, shutdown with queued work), the mutex-guarded progress
// reporter, and the SweepExecutor's contracts — byte-identical -j1 vs -j4
// output, same-key cache races and failure containment. This binary also
// runs under the ThreadSanitizer CI job, so every test here doubles as a
// TSan workload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "raccd/apps/registry.hpp"
#include "raccd/exec/progress.hpp"
#include "raccd/exec/sweep_executor.hpp"
#include "raccd/exec/work_steal_pool.hpp"
#include "raccd/harness/grid.hpp"
#include "raccd/harness/sweep_cache.hpp"

namespace raccd {
namespace {

// -- WorkStealPool ------------------------------------------------------------

TEST(WorkStealPool, RunsEverythingSingleWorker) {
  WorkStealPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.worker_count(), 1u);
  EXPECT_EQ(pool.steal_count(), 0u);  // nobody to steal from
}

// Termination of this test *requires* stealing: workers 0 and 1 are wedged
// on a gate that only opens once all the short tasks — pinned to worker 0's
// deque — have run, which only workers 2/3 can do, by stealing them.
TEST(WorkStealPool, IdleWorkersStealFromLoadedDeque) {
  constexpr int kShort = 32;
  WorkStealPool pool(4);
  std::mutex m;
  std::condition_variable cv;
  int shorts_done = 0;
  const auto gate = [&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return shorts_done == kShort; });
  };
  pool.submit(gate, /*worker_hint=*/0);
  pool.submit(gate, /*worker_hint=*/1);
  // Give the blockers a moment to occupy their workers so the short tasks
  // below genuinely sit behind them in deque 0 (not strictly required for
  // correctness — any interleaving terminates — but it makes the steal
  // assertion robust).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < kShort; ++i) {
    pool.submit(
        [&] {
          const std::lock_guard<std::mutex> lock(m);
          if (++shorts_done == kShort) cv.notify_all();
        },
        /*worker_hint=*/0);
  }
  pool.wait();
  EXPECT_EQ(shorts_done, kShort);
  EXPECT_GT(pool.steal_count(), 0u);
}

TEST(WorkStealPool, ExceptionPropagatesToWait) {
  WorkStealPool pool(2);
  std::atomic<int> survivors{0};
  pool.submit([] { throw std::runtime_error("boom from worker"); });
  for (int i = 0; i < 8; ++i) pool.submit([&] { ++survivors; });
  try {
    pool.wait();
    FAIL() << "wait() should rethrow the worker exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom from worker");
  }
  // One task throwing does not poison the pool: the rest ran, and the pool
  // remains usable for new work.
  EXPECT_EQ(survivors.load(), 8);
  pool.submit([&] { ++survivors; });
  pool.wait();  // must not rethrow again
  EXPECT_EQ(survivors.load(), 9);
}

TEST(WorkStealPool, ShutdownWithQueuedWorkDoesNotHang) {
  std::atomic<int> executed{0};
  std::atomic<int> started{0};
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  {
    WorkStealPool pool(2);
    const auto blocker = [&] {
      ++started;
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return open; });
      ++executed;
    };
    pool.submit(blocker, 0);
    pool.submit(blocker, 1);
    // Wait until both blockers are genuinely in flight — queued-but-unstarted
    // tasks are fair game for the destructor's cancel(), in-flight ones are
    // guaranteed to drain.
    while (started.load() < 2) std::this_thread::yield();
    for (int i = 0; i < 64; ++i) pool.submit([&] { ++executed; });
    {
      const std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
    // Destructor: cancels whatever is still queued, drains the in-flight
    // blockers, joins. Must terminate (the test would hang otherwise).
  }
  EXPECT_GE(executed.load(), 2);  // both in-flight blockers always complete
}

TEST(WorkStealPool, CancelDropsQueuedKeepsRunning) {
  WorkStealPool pool(1);
  std::atomic<int> executed{0};
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return open; });
    ++executed;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it start
  for (int i = 0; i < 50; ++i) pool.submit([&] { ++executed; });
  pool.cancel();  // drops the 50 queued tasks; the in-flight one drains
  {
    const std::lock_guard<std::mutex> lock(m);
    open = true;
  }
  cv.notify_all();
  pool.wait();
  EXPECT_EQ(executed.load(), 1);
}

// -- ProgressReporter ---------------------------------------------------------

struct CapturedStream {
  std::FILE* f = nullptr;
  CapturedStream() { f = std::tmpfile(); }
  ~CapturedStream() {
    if (f != nullptr) std::fclose(f);
  }
  [[nodiscard]] std::string text() const {
    std::fflush(f);
    std::rewind(f);
    std::string out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    return out;
  }
};

TEST(ProgressReporter, PlainLinesWhenNotATty) {
  CapturedStream cap;
  ProgressReporter p(2, 4, /*enabled=*/true, cap.f, /*force_tty=*/0);
  p.run_started(0, "spec-a");
  p.run_finished(0, "spec-a");
  p.run_started(1, "spec-b");
  p.run_finished(1, "spec-b");
  p.finish();
  const std::string out = cap.text();
  EXPECT_NE(out.find("[1/2] spec-a"), std::string::npos);
  EXPECT_NE(out.find("[2/2] spec-b"), std::string::npos);
  EXPECT_NE(out.find("runs/s"), std::string::npos);
  EXPECT_NE(out.find("sweep: 2 run, 0 cached, 0 failed"), std::string::npos);
  EXPECT_EQ(out.find('\r'), std::string::npos) << "CI logs must stay append-only";
}

TEST(ProgressReporter, SummaryCountsCachedAndFailedSeparately) {
  CapturedStream cap;
  ProgressReporter p(3, 2, /*enabled=*/true, cap.f, /*force_tty=*/0,
                     /*cached=*/5);
  p.run_started(0, "spec-a");
  p.run_finished(0, "spec-a");
  p.run_started(1, "spec-b");
  p.run_failed(1, "spec-b", "boom");
  p.set_summary_extra("sim 1.0s");
  p.finish();
  const std::string out = cap.text();
  // Cached preload hits are reported but never counted as finished runs (the
  // rate/ETA estimate would otherwise start wildly optimistic).
  EXPECT_NE(out.find("sweep: 1 run, 5 cached, 1 failed | sim 1.0s"),
            std::string::npos);
  EXPECT_EQ(p.done(), 2u);
}

TEST(ProgressReporter, RepaintsInPlaceOnTty) {
  CapturedStream cap;
  ProgressReporter p(2, 2, /*enabled=*/true, cap.f, /*force_tty=*/1);
  p.run_started(0, "averyveryveryverylongspeckey-tiny-raccd");
  p.run_finished(0, "averyveryveryverylongspeckey-tiny-raccd");
  p.finish();
  const std::string out = cap.text();
  EXPECT_NE(out.find('\r'), std::string::npos);
  EXPECT_NE(out.find("w0:"), std::string::npos);  // per-worker state strip
  EXPECT_NE(out.find("w1:"), std::string::npos);
  // finish() leaves the cursor on a fresh line.
  EXPECT_EQ(out.back(), '\n');
}

TEST(ProgressReporter, FailuresPrintEvenWhenDisabled) {
  CapturedStream cap;
  ProgressReporter p(1, 2, /*enabled=*/false, cap.f, /*force_tty=*/0);
  p.run_started(0, "spec-a");
  p.run_failed(0, "spec-a", "verification failed: checksum");
  p.finish();
  const std::string out = cap.text();
  EXPECT_NE(out.find("FAILED spec-a"), std::string::npos);
  EXPECT_NE(out.find("checksum"), std::string::npos);
}

TEST(ProgressReporter, ConcurrentReportersNeverTear) {
  CapturedStream cap;
  ProgressReporter p(64, 4, /*enabled=*/true, cap.f, /*force_tty=*/0);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 16; ++i) {
        char key[32];
        std::snprintf(key, sizeof key, "w%u-run%d", w, i);
        p.run_started(w, key);
        p.run_finished(w, key);
      }
    });
  }
  for (auto& t : threads) t.join();
  p.finish();
  EXPECT_EQ(p.done(), 64u);
  // Every line is complete: starts with '[' (or is the final summary line),
  // ends where the next starts.
  const std::string out = cap.text();
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t eol = out.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    if (out.compare(pos, 6, "sweep:") == 0) {
      pos = eol + 1;
      continue;
    }
    EXPECT_EQ(out[pos], '[') << "torn line: " << out.substr(pos, eol - pos);
    pos = eol + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 64u);
}

// -- SweepExecutor: determinism -----------------------------------------------

/// ~12 tiny specs spanning three workloads and all four coherence systems.
[[nodiscard]] std::vector<RunSpec> tiny_grid_specs() {
  return Grid()
      .workloads({"histo", "jacobi", "synthetic"})
      .size(SizeClass::kTiny)
      .modes(kAllBackends)
      .specs();
}

[[nodiscard]] std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(SweepExecutor, J1AndJ4ProduceByteIdenticalOutputs) {
  const std::string dir = "test_exec_determinism";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<RunSpec> specs = tiny_grid_specs();
  ASSERT_EQ(specs.size(), 12u);

  const auto emit = [&](unsigned jobs, const std::string& tag) {
    RunOptions opts;
    opts.jobs = jobs;
    opts.use_cache = false;  // fully uncached: every spec actually simulates
    ResultSet rs = ResultSet::run(specs, opts);
    EXPECT_TRUE(rs.write_csv(dir + "/" + tag + ".csv"));
    EXPECT_TRUE(rs.write_json(dir + "/" + tag + ".json"));
    EXPECT_TRUE(rs.append_bench_json(dir + "/" + tag + "_grid.json"));
  };
  emit(1, "j1");
  emit(4, "j4");

  // The determinism guarantee: commit-by-spec-index makes every emitted
  // artifact byte-identical regardless of worker count or completion order.
  EXPECT_EQ(slurp(dir + "/j1.csv"), slurp(dir + "/j4.csv"));
  EXPECT_EQ(slurp(dir + "/j1.json"), slurp(dir + "/j4.json"));
  EXPECT_EQ(slurp(dir + "/j1_grid.json"), slurp(dir + "/j4_grid.json"));
  EXPECT_GT(slurp(dir + "/j1_grid.json").size(), 100u);
  std::filesystem::remove_all(dir);
}

TEST(SweepExecutor, DuplicateSpecsSimulateOnceAndAgree) {
  std::vector<RunSpec> specs;
  RunSpec base;
  base.app = "histo";
  base.size = SizeClass::kTiny;
  base.mode = CohMode::kRaCCD;
  for (int i = 0; i < 6; ++i) specs.push_back(base);  // all share one key
  RunOptions opts;
  opts.jobs = 4;
  opts.use_cache = false;
  const auto results = run_all(specs, opts);
  ASSERT_EQ(results.size(), 6u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(stats_to_text(results[0]), stats_to_text(results[i]));
  }
}

// -- SweepExecutor: cache races -----------------------------------------------

// Two run_all invocations race the same uncached key in one shared cache
// directory (the multi-process --shard scenario, compressed into threads):
// both must succeed, and the surviving entry must be a complete, loadable
// stats file — the unique-temp-name + rename store guarantees no torn write.
TEST(SweepExecutor, ConcurrentSweepsRacingSameKeyLeaveValidCache) {
  const std::string dir = "test_exec_cache_race";
  std::filesystem::remove_all(dir);
  RunSpec spec;
  spec.app = "histo";
  spec.size = SizeClass::kTiny;
  spec.mode = CohMode::kPT;
  std::vector<SimStats> a;
  std::vector<SimStats> b;
  {
    RunOptions opts;
    opts.jobs = 2;
    opts.cache_dir = dir;
    std::thread t1([&] { a = run_all({spec, spec}, opts); });
    std::thread t2([&] { b = run_all({spec, spec}, opts); });
    t1.join();
    t2.join();
  }
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(stats_to_text(a[0]), stats_to_text(b[0]));
  const auto cached = cache_load(dir, spec.key());
  ASSERT_TRUE(cached.has_value()) << "racing writers must leave a loadable entry";
  EXPECT_EQ(stats_to_text(*cached), stats_to_text(a[0]));
  std::filesystem::remove_all(dir);
}

// Within one sweep, a sampling spec and a plain spec share a cache key but
// dedup separately (a series only exists if the run executes): two workers
// therefore *store* the same key concurrently. Deterministic model ⇒ both
// write identical bytes; the store must never tear.
TEST(SweepExecutor, SamplingAndPlainVariantRaceOneKey) {
  const std::string dir = "test_exec_cache_race2";
  std::filesystem::remove_all(dir);
  RunSpec plain;
  plain.app = "histo";
  plain.size = SizeClass::kTiny;
  plain.mode = CohMode::kRaCCD;
  RunSpec sampling = plain;
  sampling.series_interval = 2000;
  ASSERT_EQ(plain.key(), sampling.key());
  RunOptions opts;
  opts.jobs = 2;
  opts.cache_dir = dir;
  std::vector<Series> series;
  const auto results = run_all({plain, sampling}, opts, &series);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(stats_to_text(results[0]), stats_to_text(results[1]));
  EXPECT_TRUE(series[0].samples().empty());
  EXPECT_FALSE(series[1].samples().empty());
  const auto cached = cache_load(dir, plain.key());
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(stats_to_text(*cached), stats_to_text(results[0]));
  std::filesystem::remove_all(dir);
}

// -- SweepExecutor: failure containment ---------------------------------------

TEST(SweepExecutor, RunOneCheckedReportsInsteadOfAborting) {
  RunSpec bad;
  bad.app = "no-such-workload";
  bad.size = SizeClass::kTiny;
  std::string err;
  EXPECT_FALSE(run_one_checked(bad, nullptr, &err).has_value());
  EXPECT_FALSE(err.empty());

  RunSpec good;
  good.app = "histo";
  good.size = SizeClass::kTiny;
  err.clear();
  const auto stats = run_one_checked(good, nullptr, &err);
  ASSERT_TRUE(stats.has_value()) << err;
  EXPECT_GT(stats->cycles, 0u);
}

// Two workloads that order a -j2 sweep deterministically: "gate-good" opens
// a gate as it is created, then runs as histo; "gate-bad" waits at the gate
// and then fails to create. So the failure that cancels the queue always
// comes after the good spec has started, however the workers are timed.
struct StartGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
};
StartGate& start_gate() {
  static StartGate gate;
  return gate;
}

const WorkloadRegistrar kGateGood{{
    "gate-good",
    "test: histo that opens the start gate as it is created",
    "test",
    ParamSchema(),
    [](const AppConfig& cfg) -> std::unique_ptr<App> {
      {
        const std::lock_guard<std::mutex> lock(start_gate().mutex);
        start_gate().open = true;
      }
      start_gate().cv.notify_all();
      return WorkloadRegistry::instance().find("histo")->factory(cfg);
    },
}};

const WorkloadRegistrar kGateBad{{
    "gate-bad",
    "test: waits for the start gate, then fails to create",
    "test",
    ParamSchema(),
    [](const AppConfig&) -> std::unique_ptr<App> {
      std::unique_lock<std::mutex> lock(start_gate().mutex);
      // Bounded so a broken pool fails the test instead of hanging it.
      start_gate().cv.wait_for(lock, std::chrono::seconds(60),
                               [] { return start_gate().open; });
      return nullptr;
    },
}};

TEST(SweepExecutor, FailedSpecIsCollectedAndSweepDrains) {
  {
    const std::lock_guard<std::mutex> lock(start_gate().mutex);
    start_gate().open = false;
  }
  std::vector<RunSpec> specs;
  RunSpec good;
  good.app = "gate-good";
  good.size = SizeClass::kTiny;
  RunSpec bad = good;
  bad.app = "gate-bad";
  specs.push_back(good);
  specs.push_back(bad);
  RunOptions opts;
  opts.jobs = 2;
  opts.use_cache = false;
  SweepExecutor executor(opts);
  const auto results = executor.run(specs);
  ASSERT_EQ(executor.failures().size(), 1u);
  EXPECT_EQ(executor.failures()[0].key, bad.key());
  EXPECT_NE(executor.failures()[0].error.find("cannot run"), std::string::npos);
  // The failed slot keeps zeroed stats; the good run was in flight when the
  // failure cancelled the queue, so it drained normally.
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].cycles, 0u);
  EXPECT_EQ(results[1].cycles, 0u);
  EXPECT_EQ(executor.statuses(),
            (std::vector<SlotStatus>{SlotStatus::kRan, SlotStatus::kFailed}));
  EXPECT_TRUE(executor.dropped().empty());
}

TEST(SweepExecutor, CancelledSpecsAreMarkedDroppedAndListed) {
  // Serial sweep: the failing first spec cancels the rest before they start.
  RunSpec bad;
  bad.app = "no-such-workload";
  bad.size = SizeClass::kTiny;
  RunSpec good = bad;
  good.app = "histo";
  RunSpec good_dup = good;
  const std::vector<RunSpec> specs{bad, good, good_dup};
  RunOptions opts;
  opts.jobs = 1;
  opts.use_cache = false;
  opts.verbose = true;
  SweepExecutor executor(opts);
  testing::internal::CaptureStderr();
  const auto results = executor.run(specs);
  const std::string err = testing::internal::GetCapturedStderr();
  ASSERT_EQ(executor.failures().size(), 1u);
  EXPECT_EQ(executor.statuses(),
            (std::vector<SlotStatus>{SlotStatus::kFailed, SlotStatus::kDropped,
                                     SlotStatus::kDropped}));
  EXPECT_EQ(executor.dropped(), std::vector<std::string>{good.key()});
  EXPECT_EQ(results[1].cycles, 0u);
  EXPECT_NE(err.find("dropped: " + good.key()), std::string::npos) << err;
}

TEST(SweepExecutor, OutOfShardSpecsAreMarkedNotDropped) {
  RunSpec a;
  a.app = "histo";
  a.size = SizeClass::kTiny;
  RunSpec b = a;
  b.seed = a.seed + 1;
  RunOptions opts;
  opts.jobs = 1;
  opts.use_cache = false;
  opts.shard_index = 0;
  opts.shard_count = 2;
  SweepExecutor executor(opts);
  const auto results = executor.run({a, b});
  EXPECT_EQ(executor.statuses(),
            (std::vector<SlotStatus>{SlotStatus::kRan, SlotStatus::kOtherShard}));
  EXPECT_TRUE(executor.dropped().empty());
  EXPECT_GT(results[0].cycles, 0u);
}

TEST(SweepExecutorDeathTest, RunAllReportsFailingKeyThenAborts) {
  RunSpec bad;
  bad.app = "no-such-workload";
  bad.size = SizeClass::kTiny;
  RunOptions opts;
  opts.jobs = 1;
  opts.use_cache = false;
  EXPECT_DEATH((void)run_all({bad}, opts), "no-such-workload");
}

}  // namespace
}  // namespace raccd
