/**
 * @file
 * Tests of the replay trace library (docs/replay_studies.md): the
 * cache-key schema (what must miss, what may hit), publication and
 * sidecar guarding, corrupt-entry quarantine with live recapture, and
 * the SweepRunner determinism contract - a cached-replay sweep is
 * result-identical to a fresh-simulation sweep at any thread count.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "store/atomic_file.hh"
#include "sweep_runner.hh"
#include "trace/library.hh"

using namespace pcstall;

namespace
{

namespace fs = std::filesystem;

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
        ("pcstall_tlib_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

bench::BenchOptions
smallOptions(unsigned threads, const std::string &cache_dir = "")
{
    bench::BenchOptions opts;
    opts.cus = 4;
    opts.scale = 0.25;
    opts.threads = threads;
    opts.traceCacheDir = cache_dir;
    return opts;
}

trace::LibraryKey
keyFor(const bench::BenchOptions &opts, const std::string &design,
       bool shared = false)
{
    trace::LibraryKey key;
    key.harness = "test";
    key.workload = "comd";
    key.workloadDigest = "0123456789abcdef";
    key.design = design;
    key.runIndex = 0;
    key.fingerprint = bench::simConfigFingerprint(opts);
    key.shared = shared;
    return key;
}

std::vector<bench::SweepCell>
smallGrid(bench::SweepRunner &runner)
{
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL", true));
    cells.push_back(runner.cell("comd", "PCSTALL"));
    cells.push_back(runner.cell("dgemm", "STALL"));
    cells.push_back(runner.cell("dgemm", "PCSTALL"));
    return cells;
}

void
expectSameResult(const bench::RunOutcome &a, const bench::RunOutcome &b,
                 const std::string &what)
{
    ASSERT_TRUE(a.ok) << what << ": " << a.error;
    ASSERT_TRUE(b.ok) << what << ": " << b.error;
    EXPECT_EQ(a.result.execTime, b.result.execTime) << what;
    EXPECT_EQ(a.result.energy, b.result.energy) << what;
    EXPECT_EQ(a.result.instructions, b.result.instructions) << what;
    EXPECT_EQ(a.result.predictionAccuracy,
              b.result.predictionAccuracy) << what;
    EXPECT_EQ(a.result.transitions, b.result.transitions) << what;
    EXPECT_EQ(a.result.freqTimeShare, b.result.freqTimeShare) << what;
}

// ---------------------------------------------------------------- //
// Cache-key schema                                                  //
// ---------------------------------------------------------------- //

TEST(LibraryKey, SimulationAffectingConfigChangesMiss)
{
    // Anything that alters the epoch stream must alter the
    // fingerprint - a hit across these would replay the wrong run.
    const bench::BenchOptions base = smallOptions(1);

    bench::BenchOptions epoch = base;
    epoch.epochLen *= 2;
    EXPECT_NE(bench::simConfigFingerprint(base),
              bench::simConfigFingerprint(epoch));

    bench::BenchOptions seed = base;
    seed.seed += 1;
    EXPECT_NE(bench::simConfigFingerprint(base),
              bench::simConfigFingerprint(seed));

    bench::BenchOptions fault_seed = base;
    fault_seed.faults.telemetry.enabled = true;
    EXPECT_NE(bench::simConfigFingerprint(base),
              bench::simConfigFingerprint(fault_seed));

    bench::BenchOptions knob = base;
    knob.scale = 0.5;
    EXPECT_NE(bench::simConfigFingerprint(base),
              bench::simConfigFingerprint(knob));

    bench::BenchOptions cus = base;
    cus.cus = 8;
    EXPECT_NE(bench::simConfigFingerprint(base),
              bench::simConfigFingerprint(cus));

    const auto misses = [&](const char *what, auto &&edit) {
        bench::BenchOptions changed = base;
        edit(changed);
        EXPECT_NE(bench::simConfigFingerprint(base),
                  bench::simConfigFingerprint(changed))
            << what;
    };
    using Opts = bench::BenchOptions;
    misses("objective",
           [](Opts &o) { o.objective = dvfs::Objective::Edp; });
    misses("perfDegradationLimit",
           [](Opts &o) { o.perfDegradationLimit = 0.10; });
    misses("cusPerDomain", [](Opts &o) { o.cusPerDomain = 2; });
    misses("collectTrace", [](Opts &o) { o.collectTrace = true; });
    misses("watchdog", [](Opts &o) { o.watchdog = true; });
    misses("ecc", [](Opts &o) { o.ecc = true; });
    misses("faults.dvfs.granularity",
           [](Opts &o) { o.faults.dvfs.granularity = 100 * freqMHz; });
    misses("faults.storage.upsetsPerEpoch",
           [](Opts &o) { o.faults.storage.upsetsPerEpoch = 0.5; });
}

TEST(LibraryKey, ObservabilityOnlyChangesHit)
{
    // Metrics/timeline sinks never alter the simulated stream, so
    // they must not invalidate cached traces.
    const bench::BenchOptions base = smallOptions(1);
    bench::BenchOptions obs = base;
    obs.metricsOut = "/tmp/never-written.json";
    obs.threads = 8;
    EXPECT_EQ(bench::simConfigFingerprint(base),
              bench::simConfigFingerprint(obs));

    const auto hits = [&](const char *what, auto &&edit) {
        bench::BenchOptions changed = base;
        edit(changed);
        EXPECT_EQ(bench::simConfigFingerprint(base),
                  bench::simConfigFingerprint(changed))
            << what;
    };
    using Opts = bench::BenchOptions;
    hits("oracleThreads", [](Opts &o) { o.oracleThreads = 4; });
    hits("auditRegret", [](Opts &o) { o.auditRegret = true; });
    hits("provenanceOut",
         [](Opts &o) { o.provenanceOut = "/tmp/never-written.pcpv"; });
    hits("storeDir", [](Opts &o) { o.storeDir = "/tmp/never-a-store"; });
    hits("traceCacheDir",
         [](Opts &o) { o.traceCacheDir = "/tmp/never-a-library"; });
    hits("progress", [](Opts &o) { o.progress = true; });
}

TEST(LibraryKey, ExactTierMissesAcrossControllersSharedTierHits)
{
    const bench::BenchOptions opts = smallOptions(1);
    const trace::LibraryKey a = keyFor(opts, "PCSTALL");
    const trace::LibraryKey b = keyFor(opts, "STALL");
    EXPECT_NE(a.digest(), b.digest());

    // The shared what-if tier blanks the design slot: a
    // controller-only change resolves to the same stream.
    const trace::LibraryKey sa = keyFor(opts, "PCSTALL", true);
    const trace::LibraryKey sb = keyFor(opts, "STALL", true);
    EXPECT_EQ(sa.text(), sb.text());
    EXPECT_EQ(sa.digest(), sb.digest());
    // ...but never to an exact-tier entry.
    EXPECT_NE(sa.digest(), a.digest());
}

TEST(LibraryKey, DigestIsDeterministic)
{
    const trace::LibraryKey key = keyFor(smallOptions(1), "PCSTALL");
    EXPECT_EQ(key.digest(), key.digest());
    EXPECT_EQ(key.digest().size(), 32u);
}

// ---------------------------------------------------------------- //
// Library publication, sidecars, quarantine                         //
// ---------------------------------------------------------------- //

TEST(TraceLibrary, MissThenPublishThenHit)
{
    const std::string dir = scratchDir("publish");
    trace::TraceLibrary lib(dir);
    ASSERT_TRUE(lib.ok()) << lib.error();

    const trace::LibraryKey key = keyFor(smallOptions(1), "PCSTALL");
    EXPECT_EQ(lib.get(key).status,
              trace::TraceLibrary::GetStatus::Miss);

    // A trace alone (sidecar not yet published) is still a miss: the
    // sidecar is the commit point of the entry as a whole.
    ASSERT_EQ(store::writeFileAtomic(lib.entryPath(key), "bytes"), "");
    EXPECT_EQ(lib.get(key).status,
              trace::TraceLibrary::GetStatus::Miss);

    ASSERT_EQ(lib.publishKey(key), "");
    const trace::TraceLibrary::GetResult got = lib.get(key);
    EXPECT_EQ(got.status, trace::TraceLibrary::GetStatus::Hit);
    EXPECT_EQ(got.tracePath, lib.entryPath(key));
    EXPECT_EQ(lib.entryCount(), 1u);
}

TEST(TraceLibrary, SidecarMismatchIsAMissNotAHit)
{
    // A digest collision (or schema drift) surfaces as sidecar text
    // that differs from the probe key: must read as a miss, never as
    // someone else's trace.
    const std::string dir = scratchDir("collide");
    trace::TraceLibrary lib(dir);
    ASSERT_TRUE(lib.ok()) << lib.error();

    const trace::LibraryKey key = keyFor(smallOptions(1), "PCSTALL");
    ASSERT_EQ(store::writeFileAtomic(lib.entryPath(key), "bytes"), "");
    ASSERT_EQ(store::writeFileAtomic(lib.keyPath(key), "not the key"),
              "");
    EXPECT_EQ(lib.get(key).status,
              trace::TraceLibrary::GetStatus::Miss);
}

TEST(TraceLibrary, QuarantineMovesEntryAside)
{
    const std::string dir = scratchDir("quarantine");
    trace::TraceLibrary lib(dir);
    ASSERT_TRUE(lib.ok()) << lib.error();

    const trace::LibraryKey key = keyFor(smallOptions(1), "PCSTALL");
    ASSERT_EQ(store::writeFileAtomic(lib.entryPath(key), "garbage"),
              "");
    ASSERT_EQ(lib.publishKey(key), "");
    ASSERT_EQ(lib.get(key).status,
              trace::TraceLibrary::GetStatus::Hit);

    lib.quarantine(key, "decode failed (test)");
    EXPECT_EQ(lib.get(key).status,
              trace::TraceLibrary::GetStatus::Miss);
    EXPECT_EQ(lib.entryCount(), 0u);
    EXPECT_GE(lib.quarantinedCount(), 1u);
}

TEST(TraceLibrary, GcCollectsOrphansAndTemps)
{
    const std::string dir = scratchDir("gc");
    trace::TraceLibrary lib(dir);
    ASSERT_TRUE(lib.ok()) << lib.error();

    // A complete entry (kept), an orphan trace, a dangling sidecar
    // and a staging temp (all removed).
    const trace::LibraryKey keep = keyFor(smallOptions(1), "PCSTALL");
    ASSERT_EQ(store::writeFileAtomic(lib.entryPath(keep), "bytes"), "");
    ASSERT_EQ(lib.publishKey(keep), "");

    const trace::LibraryKey orphan = keyFor(smallOptions(1), "STALL");
    ASSERT_EQ(store::writeFileAtomic(lib.entryPath(orphan), "bytes"),
              "");
    const trace::LibraryKey dangling =
        keyFor(smallOptions(1), "GPHT");
    ASSERT_EQ(lib.publishKey(dangling), "");
    { std::ofstream(dir + "/stale.tmp.123") << "partial"; }

    EXPECT_EQ(lib.gcOrphans(), 3u);
    EXPECT_EQ(lib.entryCount(), 1u);
    EXPECT_EQ(lib.get(keep).status,
              trace::TraceLibrary::GetStatus::Hit);
}

// ---------------------------------------------------------------- //
// SweepRunner determinism contract                                  //
// ---------------------------------------------------------------- //

TEST(ReplaySweep, ColdWarmAndUncachedRunsAreResultIdentical)
{
    // Reference: no cache at all.
    bench::SweepRunner fresh(smallOptions(2));
    const auto want = fresh.run(smallGrid(fresh));

    const std::string dir = scratchDir("coldwarm");
    // Cold pass captures on miss...
    {
        bench::SweepRunner cold(smallOptions(2, dir));
        ASSERT_NE(cold.traceCache(), nullptr);
        const auto out = cold.run(smallGrid(cold));
        ASSERT_EQ(out.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            expectSameResult(want[i].run, out[i].run,
                             "cold cell " + std::to_string(i));
        }
        // 4 cells + the one wanted baseline captured.
        EXPECT_EQ(cold.traceCache()->entryCount(), 5u);
    }
    // ...warm pass replays, at one thread and at four.
    for (const unsigned threads : {1u, 4u}) {
        bench::SweepRunner warm(smallOptions(threads, dir));
        const auto out = warm.run(smallGrid(warm));
        ASSERT_EQ(out.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            expectSameResult(want[i].run, out[i].run,
                             "warm t" + std::to_string(threads) +
                                 " cell " + std::to_string(i));
        }
        expectSameResult(want[0].baseline, out[0].baseline,
                         "warm baseline");
        // Replays must not have re-captured anything.
        EXPECT_EQ(warm.traceCache()->entryCount(), 5u);
    }
}

TEST(ReplaySweep, ConfigChangeMissesInsteadOfReplayingStaleTrace)
{
    const std::string dir = scratchDir("configmiss");
    {
        bench::SweepRunner first(smallOptions(1, dir));
        auto cells = smallGrid(first);
        first.run(std::move(cells));
        EXPECT_EQ(first.traceCache()->entryCount(), 5u);
    }
    // A changed epoch length is a different stream: every cell (and
    // baseline) must capture anew rather than hit the stale entries.
    bench::BenchOptions changed = smallOptions(1, dir);
    changed.epochLen *= 2;
    bench::SweepRunner second(changed);
    auto cells = smallGrid(second);
    const auto out = second.run(std::move(cells));
    for (const bench::CellOutcome &cell : out)
        EXPECT_TRUE(cell.run.ok) << cell.run.error;
    EXPECT_EQ(second.traceCache()->entryCount(), 10u);
}

TEST(ReplaySweep, CorruptEntryIsQuarantinedAndRecapturedNotIngested)
{
    bench::SweepRunner fresh(smallOptions(1));
    const auto want = fresh.run(smallGrid(fresh));

    const std::string dir = scratchDir("selfheal");
    {
        bench::SweepRunner cold(smallOptions(1, dir));
        auto cells = smallGrid(cold);
        cold.run(std::move(cells));
    }
    // Truncate every published trace to garbage.
    std::size_t clobbered = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".pctrace") {
            std::ofstream(entry.path(), std::ios::trunc) << "xx";
            ++clobbered;
        }
    }
    ASSERT_EQ(clobbered, 5u);

    // The warm pass must detect the corruption, quarantine, recapture
    // live and still produce the uncached results exactly.
    bench::SweepRunner healed(smallOptions(1, dir));
    const auto out = healed.run(smallGrid(healed));
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        expectSameResult(want[i].run, out[i].run,
                         "healed cell " + std::to_string(i));
    }
    EXPECT_EQ(healed.traceCache()->entryCount(), 5u);
    EXPECT_GE(healed.traceCache()->quarantinedCount(), 5u);

    // And the recaptured entries replay cleanly afterwards.
    bench::SweepRunner warm(smallOptions(1, dir));
    const auto again = warm.run(smallGrid(warm));
    for (std::size_t i = 0; i < want.size(); ++i) {
        expectSameResult(want[i].run, again[i].run,
                         "post-heal cell " + std::to_string(i));
    }
}

TEST(ReplaySweep, WhatIfTierSharesOneCaptureAcrossControllers)
{
    const std::string dir = scratchDir("whatif");
    bench::BenchOptions opts = smallOptions(2, dir);
    opts.traceWhatIf = true;

    bench::SweepRunner runner(opts);
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "PCSTALL"));
    cells.push_back(runner.cell("comd", "STALL"));
    cells.push_back(runner.cell("comd", "GPHT"));
    const auto out = runner.run(std::move(cells));
    for (const bench::CellOutcome &cell : out)
        EXPECT_TRUE(cell.run.ok) << cell.run.error;
    // Three controllers collapse onto one shared stream capture.
    EXPECT_EQ(runner.traceCache()->entryCount(), 1u);

    // A second pass replays it for everyone, bit-identically.
    bench::SweepRunner warm(opts);
    std::vector<bench::SweepCell> again;
    again.push_back(warm.cell("comd", "PCSTALL"));
    again.push_back(warm.cell("comd", "STALL"));
    again.push_back(warm.cell("comd", "GPHT"));
    const auto rep = warm.run(std::move(again));
    for (std::size_t i = 0; i < out.size(); ++i) {
        expectSameResult(out[i].run, rep[i].run,
                         "what-if cell " + std::to_string(i));
    }
    EXPECT_EQ(warm.traceCache()->entryCount(), 1u);
}

} // namespace
