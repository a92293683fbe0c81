/**
 * @file
 * Tests of the parallel sweep execution layer: the ParallelExecutor
 * pool itself, the Rng::split purity the determinism contract rests
 * on, the FatalError contract, and the headline properties - a
 * SweepRunner sweep is bit-identical for every --threads value, and
 * one broken cell yields a diagnostic while the rest of the sweep
 * completes.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dvfs/hierarchical.hh"
#include "expect_fatal.hh"
#include "obs/context.hh"
#include "obs/metrics.hh"
#include "sim/parallel_executor.hh"
#include "store/result_store.hh"
#include "sweep_runner.hh"

using namespace pcstall;

namespace
{

// ---------------------------------------------------------------- //
// ParallelExecutor                                                  //
// ---------------------------------------------------------------- //

TEST(ParallelExecutor, RunsEveryIndexExactlyOnce)
{
    sim::ParallelExecutor pool(4);
    constexpr std::size_t n = 200;
    std::vector<std::atomic<int>> hits(n);
    pool.forEach(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelExecutor, SingleThreadRunsInline)
{
    sim::ParallelExecutor pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    const auto main_id = std::this_thread::get_id();
    bool all_inline = true;
    pool.forEach(8, [&](std::size_t) {
        if (std::this_thread::get_id() != main_id)
            all_inline = false;
    });
    EXPECT_TRUE(all_inline);
}

TEST(ParallelExecutor, MapReturnsSubmissionOrder)
{
    sim::ParallelExecutor pool(4);
    const auto out = pool.map<std::size_t>(
        64, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelExecutor, ThrowingTaskDoesNotPoisonBatch)
{
    sim::ParallelExecutor pool(4);
    constexpr std::size_t n = 32;
    std::vector<std::atomic<int>> ran(n);
    bool threw = false;
    std::string what;
    try {
        pool.forEach(n, [&](std::size_t i) {
            ran[i].fetch_add(1);
            if (i == 7 || i == 19)
                throw std::runtime_error("task " + std::to_string(i));
        });
    } catch (const std::runtime_error &e) {
        threw = true;
        what = e.what();
    }
    EXPECT_TRUE(threw);
    // The lowest-index exception is the one rethrown ...
    EXPECT_EQ(what, "task 7");
    // ... and every other index still executed.
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(ran[i].load(), 1) << "index " << i;
}

TEST(ParallelExecutor, ReusableAcrossBatches)
{
    sim::ParallelExecutor pool(2);
    for (int round = 0; round < 3; ++round) {
        std::atomic<int> sum{0};
        pool.forEach(10, [&](std::size_t i) {
            sum.fetch_add(static_cast<int>(i));
        });
        EXPECT_EQ(sum.load(), 45);
    }
}

// ---------------------------------------------------------------- //
// Determinism primitives                                            //
// ---------------------------------------------------------------- //

TEST(RngSplit, IsAPureFunctionOfItsArguments)
{
    const std::uint64_t a = Rng::split(42, "comd", "PCSTALL", 0).next();
    const std::uint64_t b = Rng::split(42, "comd", "PCSTALL", 0).next();
    EXPECT_EQ(a, b);
    EXPECT_NE(a, Rng::split(43, "comd", "PCSTALL", 0).next());
    EXPECT_NE(a, Rng::split(42, "lulesh", "PCSTALL", 0).next());
    EXPECT_NE(a, Rng::split(42, "comd", "STALL", 0).next());
    EXPECT_NE(a, Rng::split(42, "comd", "PCSTALL", 1).next());
}

TEST(FatalContract, FatalThrowsTypedExceptionInsteadOfExiting)
{
    EXPECT_FATAL(fatal("boom"), "boom");
    EXPECT_FATAL(fatalIf(true, "guarded"), "guarded");
    EXPECT_NO_THROW(fatalIf(false, "not taken"));
}

// ---------------------------------------------------------------- //
// SweepRunner                                                       //
// ---------------------------------------------------------------- //

bench::BenchOptions
smallOptions(unsigned threads)
{
    bench::BenchOptions opts;
    opts.cus = 4;
    opts.scale = 0.25;
    opts.threads = threads;
    return opts;
}

bench::ControllerFactory
cappedPcstallFactory()
{
    return [](const sim::RunConfig &rc) {
        dvfs::HierarchicalConfig hier;
        hier.powerCap = 40.0;
        hier.reviewEpochs = 10;
        return std::make_unique<dvfs::HierarchicalPowerManager>(
            bench::makeController("PCSTALL", rc), hier);
    };
}

std::vector<bench::SweepCell>
determinismGrid(bench::SweepRunner &runner,
                const std::vector<std::string> &workloads)
{
    std::vector<bench::SweepCell> cells;
    for (const std::string &w : workloads) {
        cells.push_back(runner.cell(w, "STALL", true));
        cells.push_back(runner.cell(w, "PCSTALL"));
        bench::SweepCell capped = runner.cell(w, "PCSTALL+CAP");
        capped.factory = cappedPcstallFactory();
        cells.push_back(capped);
    }
    return cells;
}

void
expectIdenticalOutcome(const bench::RunOutcome &serial,
                       const bench::RunOutcome &parallel,
                       const std::string &label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(serial.ok, parallel.ok);
    if (!serial.ok)
        return;
    const sim::RunResult &a = serial.result;
    const sim::RunResult &b = parallel.result;
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.energy, b.energy); // exact: same arithmetic, same order
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.predictionAccuracy, b.predictionAccuracy);
    EXPECT_EQ(a.transitions, b.transitions);
    EXPECT_EQ(a.completed, b.completed);
}

TEST(SweepRunner, ThreadCountDoesNotChangeResults)
{
    const std::vector<std::string> workloads{"comd", "BwdBN", "dgemm"};

    bench::SweepRunner serial(smallOptions(1));
    ASSERT_EQ(serial.threads(), 1u);
    const auto base = serial.run(determinismGrid(serial, workloads));

    bench::SweepRunner parallel(smallOptions(4));
    ASSERT_EQ(parallel.threads(), 4u);
    const auto par = parallel.run(determinismGrid(parallel, workloads));

    ASSERT_EQ(base.size(), par.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        expectIdenticalOutcome(base[i].run, par[i].run,
                               "cell " + std::to_string(i));
        EXPECT_TRUE(base[i].run.ok) << base[i].run.error;
    }
    // The STALL cells asked for baselines; those must agree too.
    for (std::size_t i = 0; i < base.size(); i += 3) {
        expectIdenticalOutcome(base[i].baseline, par[i].baseline,
                               "baseline " + std::to_string(i));
        EXPECT_TRUE(base[i].baseline.ok) << base[i].baseline.error;
    }
}

TEST(SweepRunner, RepeatedCellsGetDistinctCapturePaths)
{
    bench::BenchOptions opts = smallOptions(2);
    opts.traceOut = ::testing::TempDir() + "pcstall_repeat_" +
                    std::to_string(static_cast<long>(::getpid())) +
                    ".pctrace";
    bench::SweepRunner runner(opts);
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "PCSTALL"));
    cells.push_back(runner.cell("comd", "PCSTALL"));
    const auto out = runner.run(std::move(cells));
    ASSERT_EQ(out.size(), 2u);
    ASSERT_TRUE(out[0].run.ok) << out[0].run.error;
    ASSERT_TRUE(out[1].run.ok) << out[1].run.error;

    // Repeats gain a run-index suffix, so the second capture does not
    // silently overwrite the first.
    const std::string first = ::testing::TempDir() +
                              "pcstall_repeat_" +
                              std::to_string(
                                  static_cast<long>(::getpid())) +
                              "-comd-PCSTALL.pctrace";
    const std::string second = ::testing::TempDir() +
                               "pcstall_repeat_" +
                               std::to_string(
                                   static_cast<long>(::getpid())) +
                               "-comd-PCSTALL-r1.pctrace";
    std::ifstream a(first), b(second);
    EXPECT_TRUE(a.good()) << first;
    EXPECT_TRUE(b.good()) << second;
    std::remove(first.c_str());
    std::remove(second.c_str());
}

TEST(SweepRunner, BrokenCellDoesNotTakeDownTheSweep)
{
    bench::SweepRunner runner(smallOptions(4));
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL"));
    bench::SweepCell bad = runner.cell("comd", "PCSTALL");
    bad.opts.cusPerDomain = 3; // 4 CUs: does not divide evenly
    cells.push_back(bad);
    cells.push_back(runner.cell("comd", "ORACLE"));
    bench::SweepCell unknown = runner.cell("comd", "NO-SUCH-DESIGN");
    cells.push_back(unknown);

    const auto out = runner.run(std::move(cells));
    ASSERT_EQ(out.size(), 4u);
    EXPECT_TRUE(out[0].run.ok) << out[0].run.error;
    EXPECT_FALSE(out[1].run.ok);
    EXPECT_FALSE(out[1].run.error.empty());
    EXPECT_TRUE(out[2].run.ok) << out[2].run.error;
    EXPECT_FALSE(out[3].run.ok);
    EXPECT_FALSE(out[3].run.error.empty());
}

std::uint64_t
collectedCounter(const std::string &name)
{
    const obs::MetricsSnapshot snap = obs::collectedSnapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(SweepRunner, SharedBaselineIsOneRunSlotPerSweep)
{
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        obs::resetAll();
        obs::setMetricsEnabled(true);
        const std::filesystem::path dir =
            std::filesystem::path(::testing::TempDir()) /
            ("pcstall_shared_baseline_" +
             std::to_string(static_cast<long>(::getpid())) + "_" +
             std::to_string(threads));
        std::filesystem::remove_all(dir);
        bench::BenchOptions opts = smallOptions(threads);
        opts.storeDir = dir.string();
        bench::SweepRunner runner(opts);
        ASSERT_NE(runner.store(), nullptr);
        const auto grid = [&runner] {
            std::vector<bench::SweepCell> cells;
            cells.push_back(runner.cell("comd", "STALL", true));
            cells.push_back(runner.cell("comd", "PCSTALL", true));
            return cells;
        };

        const auto out = runner.run(grid());
        ASSERT_EQ(out.size(), 2u);
        ASSERT_TRUE(out[0].baseline.ok) << out[0].baseline.error;
        ASSERT_TRUE(out[1].baseline.ok) << out[1].baseline.error;
        expectIdenticalOutcome(out[0].baseline, out[1].baseline,
                               "shared baseline");
        // Both cells share one baseline run: three store lookups, three
        // runs and three checkpoints (two cells and the baseline).
        EXPECT_EQ(runner.store()->entryCount(), 3u);
        EXPECT_EQ(collectedCounter("farm.cells.miss"), 3u);
        EXPECT_EQ(collectedCounter("run.count"), 3u);

        // A second sweep on the same runner serves all three runs from
        // the store and collects each one's shard again, the
        // "baseline: comd" shard included.
        const auto again = runner.run(grid());
        ASSERT_EQ(again.size(), 2u);
        ASSERT_TRUE(again[0].baseline.ok) << again[0].baseline.error;
        expectIdenticalOutcome(out[0].baseline, again[0].baseline,
                               "served baseline");
        EXPECT_EQ(runner.store()->entryCount(), 3u);
        EXPECT_EQ(collectedCounter("farm.cells.hit"), 3u);
        EXPECT_EQ(collectedCounter("run.count"), 6u);
        std::filesystem::remove_all(dir);
    }
    obs::resetAll();
}

TEST(SweepRunner, MapContainsFatalErrorsPerIndex)
{
    bench::SweepRunner runner(smallOptions(4));
    const auto out = runner.map<int>(8, [](std::size_t i) {
        fatalIf(i == 3, "index 3 is broken");
        return static_cast<int>(i) + 1;
    });
    ASSERT_EQ(out.size(), 8u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i == 3 ? 0 : static_cast<int>(i) + 1);
}

TEST(SweepRunner, ContainedFailuresAreTallied)
{
    const std::uint64_t before = bench::sweepFailureCount();
    bench::SweepRunner runner(smallOptions(2));
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL"));
    cells.push_back(runner.cell("comd", "NO-SUCH-DESIGN"));
    const auto out = runner.run(std::move(cells));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].run.ok);
    EXPECT_FALSE(out[1].run.ok);
    EXPECT_EQ(bench::sweepFailureCount() - before, 1u);
}

TEST(GuardedMain, ConvertsContainedFailuresToExitOne)
{
    // A clean body exits with its own return value.
    EXPECT_EQ(bench::guardedMain([] { return 0; }), 0);
    EXPECT_EQ(bench::guardedMain([] { return 3; }), 3);
    // A body whose sweep contained a failure exits 1 even though the
    // sweep itself completed.
    EXPECT_EQ(bench::guardedMain([] {
                  bench::noteSweepFailure();
                  return 0;
              }),
              1);
    // Failures recorded before the body (e.g. by an earlier test) do
    // not leak into this body's verdict.
    EXPECT_EQ(bench::guardedMain([] { return 0; }), 0);
    // An uncaught FatalError still exits 1.
    EXPECT_EQ(bench::guardedMain([]() -> int {
                  fatal("escaped the sweep");
              }),
              1);
}

} // namespace
