/**
 * @file
 * Tests of the crash-resumable sweep layer (docs/sweep_farm.md): the
 * atomic-file helpers, the content-addressed results store, the cell
 * payload codec, and the SweepRunner robustness behaviors - kill-and-
 * resume equivalence, shard-union-equals-full-enumeration, corruption
 * quarantine, recompute of an edited kernel script, the cell
 * watchdog, and the transient-retry policy.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/context.hh"
#include "store/atomic_file.hh"
#include "store/cell_codec.hh"
#include "store/result_store.hh"
#include "sweep_runner.hh"
#include "trace/sealed.hh"

using namespace pcstall;

namespace
{

namespace fs = std::filesystem;

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
        ("pcstall_store_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------- //
// atomic_file                                                       //
// ---------------------------------------------------------------- //

TEST(AtomicFile, WriteFileAtomicPublishesExactBytesAndNoTemp)
{
    const std::string dir = scratchDir("atomic");
    const std::string path = dir + "/artifact.bin";
    const std::string bytes("hello\0world\n\xff", 13);
    EXPECT_EQ(store::writeFileAtomic(path, bytes), "");
    EXPECT_EQ(readFile(path), bytes);
    // The staging temp must be gone and unregistered.
    EXPECT_FALSE(fs::exists(store::tempPathFor(path)));
    EXPECT_EQ(store::registeredTempFileCount(), 0u);

    // Overwrite is atomic too: the new content fully replaces the old.
    EXPECT_EQ(store::writeFileAtomic(path, "v2"), "");
    EXPECT_EQ(readFile(path), "v2");
}

TEST(AtomicFile, WriteToUnwritableDirectoryFailsWithoutArtifact)
{
    const std::string path =
        "/nonexistent-root-dir/sub/never/artifact.json";
    const std::string err = store::writeFileAtomic(path, "data");
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(fs::exists(path));
    EXPECT_EQ(store::registeredTempFileCount(), 0u);
}

TEST(AtomicFile, CommitTempFileRenamesStreamedBytes)
{
    const std::string dir = scratchDir("commit");
    const std::string path = dir + "/streamed.trace";
    const std::string temp = store::tempPathFor(path);
    {
        std::ofstream os(temp, std::ios::binary);
        store::registerTempFile(temp);
        os << "streamed-payload";
    }
    EXPECT_EQ(store::registeredTempFileCount(), 1u);
    EXPECT_EQ(store::commitTempFile(temp, path), "");
    EXPECT_EQ(readFile(path), "streamed-payload");
    EXPECT_FALSE(fs::exists(temp));
    EXPECT_EQ(store::registeredTempFileCount(), 0u);
}

TEST(AtomicFile, CleanupRemovesRegisteredTemps)
{
    const std::string dir = scratchDir("cleanup");
    const std::string temp = dir + "/orphan.tmp.123";
    {
        std::ofstream os(temp);
        os << "half-written";
    }
    store::registerTempFile(temp);
    EXPECT_GE(store::registeredTempFileCount(), 1u);
    EXPECT_GE(store::cleanupTempFiles(), 1u);
    EXPECT_FALSE(fs::exists(temp));
    EXPECT_EQ(store::registeredTempFileCount(), 0u);
}

// ---------------------------------------------------------------- //
// result_store                                                      //
// ---------------------------------------------------------------- //

store::CellKey
sampleKey(std::uint64_t run_index = 0)
{
    store::CellKey key;
    key.harness = "test_harness";
    key.workload = "comd";
    key.design = "PCSTALL";
    key.fingerprint = "4|0.25|1000|1|42";
    key.runIndex = run_index;
    return key;
}

TEST(ResultStore, KeyDigestIsStableAndCollisionResistant)
{
    const std::string a = store::keyDigest(sampleKey(0));
    EXPECT_EQ(a.size(), 32u);
    EXPECT_EQ(a, store::keyDigest(sampleKey(0)));
    EXPECT_NE(a, store::keyDigest(sampleKey(1)));
    store::CellKey other = sampleKey(0);
    other.design = "STALL";
    EXPECT_NE(a, store::keyDigest(other));
}

TEST(ResultStore, PutGetRoundTrip)
{
    store::ResultStore rs(scratchDir("roundtrip"));
    ASSERT_TRUE(rs.ok()) << rs.error();
    EXPECT_EQ(rs.entryCount(), 0u);

    const std::string payload("\x01payload\x00with-nul", 18);
    EXPECT_EQ(rs.put(sampleKey(), payload), "");
    EXPECT_EQ(rs.entryCount(), 1u);

    const auto got = rs.get(sampleKey());
    ASSERT_EQ(got.status, store::ResultStore::GetStatus::Hit);
    EXPECT_EQ(got.payload, payload);

    EXPECT_EQ(rs.get(sampleKey(7)).status,
              store::ResultStore::GetStatus::Miss);
}

TEST(ResultStore, TruncatedEntryIsQuarantinedAndRecomputable)
{
    store::ResultStore rs(scratchDir("trunc"));
    ASSERT_TRUE(rs.ok()) << rs.error();
    ASSERT_EQ(rs.put(sampleKey(), "full payload bytes"), "");

    fs::resize_file(rs.entryPath(sampleKey()), 6);
    const auto got = rs.get(sampleKey());
    EXPECT_EQ(got.status, store::ResultStore::GetStatus::Corrupt);
    EXPECT_FALSE(got.error.empty());
    // Quarantined: entry gone from the store, preserved in .corrupt/.
    EXPECT_FALSE(fs::exists(rs.entryPath(sampleKey())));
    EXPECT_EQ(rs.quarantinedCount(), 1u);
    // The caller recomputes: next lookup is a clean Miss, and a fresh
    // put restores the entry.
    EXPECT_EQ(rs.get(sampleKey()).status,
              store::ResultStore::GetStatus::Miss);
    EXPECT_EQ(rs.put(sampleKey(), "full payload bytes"), "");
    EXPECT_EQ(rs.get(sampleKey()).status,
              store::ResultStore::GetStatus::Hit);
}

TEST(ResultStore, FlippedPayloadByteFailsChecksum)
{
    store::ResultStore rs(scratchDir("corrupt"));
    ASSERT_TRUE(rs.ok()) << rs.error();
    ASSERT_EQ(rs.put(sampleKey(), "checksummed payload"), "");

    const std::string path = rs.entryPath(sampleKey());
    std::string bytes = readFile(path);
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream(path, std::ios::binary).write(bytes.data(),
        static_cast<std::streamsize>(bytes.size()));

    EXPECT_EQ(rs.get(sampleKey()).status,
              store::ResultStore::GetStatus::Corrupt);
    EXPECT_EQ(rs.quarantinedCount(), 1u);
}

TEST(ResultStore, RepeatedQuarantinesOfOneKeyKeepEveryFile)
{
    store::ResultStore rs(scratchDir("requarantine"));
    ASSERT_TRUE(rs.ok()) << rs.error();
    for (const char *payload : {"first bad bytes", "second bad bytes"}) {
        ASSERT_EQ(rs.put(sampleKey(), payload), "");
        fs::resize_file(rs.entryPath(sampleKey()), 6);
        EXPECT_EQ(rs.get(sampleKey()).status,
                  store::ResultStore::GetStatus::Corrupt);
    }
    // Both bad images survive for post-mortems: the second quarantine
    // of the same entry in the same process must not replace the
    // first.
    EXPECT_EQ(rs.quarantinedCount(), 2u);
}

TEST(ResultStore, DigestCollisionReadsAsMissNotWrongPayload)
{
    store::ResultStore rs(scratchDir("collide"));
    ASSERT_TRUE(rs.ok()) << rs.error();
    ASSERT_EQ(rs.put(sampleKey(), "payload of the real key"), "");
    // Simulate a digest collision: copy the valid entry to the path
    // another key would hash to. The stored key text must reject it.
    store::CellKey other = sampleKey();
    other.workload = "hacc";
    fs::copy_file(rs.entryPath(sampleKey()), rs.entryPath(other));
    EXPECT_EQ(rs.get(other).status,
              store::ResultStore::GetStatus::Miss);
}

TEST(ResultStore, UnusableRootIsRecoverable)
{
    // A regular file where a directory component must go defeats
    // create_directories even when running as root.
    const std::string dir = scratchDir("badroot");
    { std::ofstream(dir + "/blocker") << "not a directory"; }
    store::ResultStore rs(dir + "/blocker/store");
    EXPECT_FALSE(rs.ok());
    EXPECT_FALSE(rs.error().empty());
    EXPECT_EQ(rs.get(sampleKey()).status,
              store::ResultStore::GetStatus::Miss);
    EXPECT_FALSE(rs.put(sampleKey(), "x").empty());
}

// ---------------------------------------------------------------- //
// cell_codec                                                        //
// ---------------------------------------------------------------- //

store::StoredCell
sampleCell()
{
    store::StoredCell cell;
    sim::RunResult &r = cell.run.result;
    r.controller = "PCSTALL";
    r.workload = "comd";
    r.completed = true;
    r.epochs = 321;
    r.execTime = 123456789;
    r.energy = 0.1 + 0.2; // deliberately non-representable exactly
    r.instructions = 987654321123ULL;
    r.predictionAccuracy = 0.87654321;
    r.transitions = 4242;
    r.transitionEnergy = 1e-7;
    r.freqTimeShare = {0.25, 0.5, 0.125, 0.125};
    r.finalTemperature = 341.15;
    r.faults.telemetryPerturbations = 3;
    r.faults.transitionExtraLatency = 777;
    r.faults.fallbackEpochs = 2;
    sim::EpochTraceEntry e;
    e.start = 1000;
    e.domainState = {0, 3, 2, 1};
    e.domainCommitted = {12.5, 0.0, 99.75, 3.25};
    e.faults.tableBitFlips = 1;
    e.faults.fallbackActive = true;
    r.trace.push_back(e);
    e.start = 2000;
    e.faults.fallbackActive = false;
    r.trace.push_back(e);
    cell.run.ok = true;

    obs::Registry reg;
    reg.counter("run.epochs").add(321);
    reg.gauge("run.final_temp_k").set(341.15);
    reg.histogram("run.exec_us").record(14.25);
    reg.histogram("run.exec_us").record(26.6);
    cell.metrics = reg.snapshot();
    return cell;
}

TEST(CellCodec, RoundTripIsExact)
{
    const store::StoredCell cell = sampleCell();
    const std::string payload = store::encodeStoredCell(cell);

    store::StoredCell out;
    std::string err;
    ASSERT_TRUE(store::decodeStoredCell(payload, out, err)) << err;
    EXPECT_TRUE(out.run.ok);
    const sim::RunResult &a = cell.run.result;
    const sim::RunResult &b = out.run.result;
    EXPECT_EQ(a.controller, b.controller);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.execTime, b.execTime);
    // Doubles travel as raw bits: bit-exact, not approximately equal.
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.predictionAccuracy, b.predictionAccuracy);
    EXPECT_EQ(a.transitions, b.transitions);
    EXPECT_EQ(a.transitionEnergy, b.transitionEnergy);
    EXPECT_EQ(a.freqTimeShare, b.freqTimeShare);
    EXPECT_EQ(a.finalTemperature, b.finalTemperature);
    EXPECT_EQ(a.faults.telemetryPerturbations,
              b.faults.telemetryPerturbations);
    EXPECT_EQ(a.faults.transitionExtraLatency,
              b.faults.transitionExtraLatency);
    EXPECT_EQ(a.faults.fallbackEpochs, b.faults.fallbackEpochs);
    ASSERT_EQ(b.trace.size(), 2u);
    EXPECT_EQ(a.trace[0].start, b.trace[0].start);
    EXPECT_EQ(a.trace[0].domainState, b.trace[0].domainState);
    EXPECT_EQ(a.trace[0].domainCommitted, b.trace[0].domainCommitted);
    EXPECT_EQ(a.trace[0].faults.tableBitFlips,
              b.trace[0].faults.tableBitFlips);
    EXPECT_EQ(a.trace[0].faults.fallbackActive,
              b.trace[0].faults.fallbackActive);
    EXPECT_EQ(a.trace[1].faults.fallbackActive,
              b.trace[1].faults.fallbackActive);
    // The metrics shard re-encodes to identical bytes (canonical
    // ordered maps), which is what byte-identical resume rests on.
    store::StoredCell again = out;
    EXPECT_EQ(store::encodeStoredCell(again), payload);
}

TEST(CellCodec, EveryTruncationFailsCleanly)
{
    const std::string payload =
        store::encodeStoredCell(sampleCell());
    for (std::size_t len = 0; len < payload.size(); ++len) {
        store::StoredCell out;
        std::string err;
        EXPECT_FALSE(store::decodeStoredCell(
            payload.substr(0, len), out, err))
            << "prefix of " << len << " bytes decoded";
        EXPECT_FALSE(err.empty());
    }
    // Trailing garbage is rejected too (strict framing).
    store::StoredCell out;
    std::string err;
    EXPECT_FALSE(store::decodeStoredCell(payload + "x", out, err));
}

TEST(CellCodec, TimingMetricsAreDroppedFromTheShard)
{
    store::StoredCell cell;
    cell.run.ok = true;
    obs::Registry reg;
    reg.counter("run.epochs").add(10);
    reg.counter("profile.oracle_ns", obs::MetricKind::Timing)
        .add(123456);
    cell.metrics = reg.snapshot();

    store::StoredCell out;
    std::string err;
    ASSERT_TRUE(store::decodeStoredCell(
        store::encodeStoredCell(cell), out, err)) << err;
    EXPECT_EQ(out.metrics.counters.count("run.epochs"), 1u);
    EXPECT_EQ(out.metrics.counters.count("profile.oracle_ns"), 0u);
}

// ---------------------------------------------------------------- //
// SweepRunner robustness                                            //
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

TEST(SweepStore, ResumeFromStoreReproducesFreshRunExactly)
{
    // Reference: no store, everything computed live.
    bench::SweepRunner fresh(smallOptions(2));
    const auto want = fresh.run(smallGrid(fresh));

    const std::string dir = scratchDir("resume");
    bench::BenchOptions with_store = smallOptions(2);
    with_store.storeDir = dir;

    // First pass populates the store...
    {
        bench::SweepRunner writer(with_store);
        const auto out = writer.run(smallGrid(writer));
        ASSERT_NE(writer.store(), nullptr);
        EXPECT_GE(writer.store()->entryCount(), 5u); // 4 cells + base
        for (std::size_t i = 0; i < want.size(); ++i) {
            expectSameResult(want[i].run, out[i].run,
                             "first pass cell " +
                                 std::to_string(i));
        }
    }
    // ...second pass replays it, bit-exact (including the baseline).
    bench::SweepRunner reader(with_store);
    const auto out = reader.run(smallGrid(reader));
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        expectSameResult(want[i].run, out[i].run,
                         "resumed cell " + std::to_string(i));
    }
    expectSameResult(want[0].baseline, out[0].baseline,
                     "resumed baseline");
}

TEST(SweepStore, ShardUnionEqualsFullEnumeration)
{
    bench::SweepRunner fresh(smallOptions(2));
    const auto want = fresh.run(smallGrid(fresh));

    const std::string dir = scratchDir("shards");
    // Two shard workers, each computing its half of the grid.
    for (unsigned shard = 0; shard < 2; ++shard) {
        bench::BenchOptions opts = smallOptions(2);
        opts.storeDir = dir;
        opts.shardIndex = shard;
        opts.shardCount = 2;
        bench::SweepRunner worker(opts);
        const auto out = worker.run(smallGrid(worker));
        ASSERT_EQ(out.size(), want.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (i % 2 == shard) {
                EXPECT_TRUE(out[i].run.ok) << out[i].run.error;
                EXPECT_FALSE(out[i].run.skipped);
            } else {
                EXPECT_TRUE(out[i].run.skipped);
                EXPECT_FALSE(out[i].run.ok);
            }
        }
    }
    // The unsharded merge pass over the same store reproduces the
    // full enumeration exactly.
    bench::BenchOptions merge_opts = smallOptions(2);
    merge_opts.storeDir = dir;
    bench::SweepRunner merge(merge_opts);
    const auto out = merge.run(smallGrid(merge));
    for (std::size_t i = 0; i < want.size(); ++i) {
        expectSameResult(want[i].run, out[i].run,
                         "merged cell " + std::to_string(i));
        EXPECT_FALSE(out[i].run.skipped);
    }
    expectSameResult(want[0].baseline, out[0].baseline,
                     "merged baseline");
}

/** Pool size of a store-backed sweep: one publisher thread per pool
 *  thread writes its entries. */
class SweepStoreThreads : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SweepStoreThreads, KillMidSweepThenResumeMatchesFreshRun)
{
    bench::SweepRunner fresh(smallOptions(GetParam()));
    const auto want = fresh.run(smallGrid(fresh));

    const std::string dir =
        scratchDir("kill_t" + std::to_string(GetParam()));
    bench::BenchOptions with_store = smallOptions(GetParam());
    with_store.storeDir = dir;

    // Child: same sweep, but the store's test hook SIGKILLs the
    // process right after the second successful put - a mid-sweep
    // crash with the store half-populated.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setenv("PCSTALL_TEST_CRASH_AFTER_PUTS", "2", 1);
        bench::SweepRunner victim(with_store);
        victim.run(smallGrid(victim));
        ::_exit(0); // not reached: the put hook kills us first
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child should have been SIGKILLed mid-sweep";

    // Whatever the publishers had queued died with the child; the
    // hook's lock left exactly the two entries it counted.
    store::ResultStore peek(dir);
    EXPECT_EQ(peek.entryCount(), 2u) << "crash left a partial store";

    // Resume: only the missing cells are recomputed, and the merged
    // outcome matches the uninterrupted run exactly.
    bench::SweepRunner resumed(with_store);
    const auto out = resumed.run(smallGrid(resumed));
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        expectSameResult(want[i].run, out[i].run,
                         "post-crash cell " + std::to_string(i));
    }
    expectSameResult(want[0].baseline, out[0].baseline,
                     "post-crash baseline");
}

INSTANTIATE_TEST_SUITE_P(
    Pool, SweepStoreThreads, ::testing::Values(1u, 4u),
    [](const ::testing::TestParamInfo<unsigned> &info) {
        return "threads" + std::to_string(info.param);
    });

TEST(SweepStore, FailedPutWarnsAndTheSweepCompletes)
{
    // A store whose directory goes away mid-sweep (or whose disk
    // fills) fails every put. The sweep must still finish with every
    // cell ok, and say once that it is no longer checkpointing.
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const std::string dir =
            scratchDir("failed_put_t" + std::to_string(threads));
        bench::BenchOptions with_store = smallOptions(threads);
        with_store.storeDir = dir;
        bench::SweepRunner runner(with_store);
        ASSERT_NE(runner.store(), nullptr);
        fs::remove_all(dir);

        ::testing::internal::CaptureStderr();
        const auto out = runner.run(smallGrid(runner));
        const std::string err = ::testing::internal::GetCapturedStderr();

        ASSERT_EQ(out.size(), 4u);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_TRUE(out[i].run.ok) << i << ": " << out[i].run.error;
        EXPECT_TRUE(out[0].baseline.ok) << out[0].baseline.error;
        const std::string marker = "was not checkpointed";
        std::size_t warnings = 0;
        for (std::size_t at = err.find(marker); at != std::string::npos;
             at = err.find(marker, at + marker.size())) {
            ++warnings;
        }
        EXPECT_EQ(warnings, 1u) << err;
        EXPECT_FALSE(fs::exists(dir));
    }
}

TEST(SweepStore, CorruptStoreEntryIsQuarantinedAndRecomputed)
{
    bench::SweepRunner fresh(smallOptions(1));
    std::vector<bench::SweepCell> ref;
    ref.push_back(fresh.cell("comd", "STALL"));
    const auto want = fresh.run(std::move(ref));

    const std::string dir = scratchDir("sweepcorrupt");
    bench::BenchOptions with_store = smallOptions(1);
    with_store.storeDir = dir;
    {
        bench::SweepRunner writer(with_store);
        std::vector<bench::SweepCell> cells;
        cells.push_back(writer.cell("comd", "STALL"));
        writer.run(std::move(cells));
    }
    // Corrupt the one entry on disk.
    store::ResultStore peek(dir);
    ASSERT_EQ(peek.entryCount(), 1u);
    std::string entry;
    for (const auto &f : fs::directory_iterator(dir)) {
        if (f.path().extension() == ".pcres")
            entry = f.path().string();
    }
    ASSERT_FALSE(entry.empty());
    fs::resize_file(entry, fs::file_size(entry) / 2);

    bench::SweepRunner reader(with_store);
    std::vector<bench::SweepCell> cells;
    cells.push_back(reader.cell("comd", "STALL"));
    const auto out = reader.run(std::move(cells));
    expectSameResult(want[0].run, out[0].run, "recomputed cell");
    EXPECT_EQ(peek.quarantinedCount(), 1u);
    // The recompute re-published a valid entry.
    EXPECT_EQ(peek.entryCount(), 1u);
}

TEST(SweepStore, V2EntryIsQuarantinedAndRecomputedNeverIngested)
{
    bench::SweepRunner fresh(smallOptions(1));
    std::vector<bench::SweepCell> ref;
    ref.push_back(fresh.cell("comd", "STALL"));
    const auto want = fresh.run(std::move(ref));

    const std::string dir = scratchDir("sweepv2");
    bench::BenchOptions with_store = smallOptions(1);
    with_store.storeDir = dir;
    {
        bench::SweepRunner writer(with_store);
        std::vector<bench::SweepCell> cells;
        cells.push_back(writer.cell("comd", "STALL"));
        writer.run(std::move(cells));
    }
    store::ResultStore peek(dir);
    ASSERT_EQ(peek.entryCount(), 1u);
    std::string entry;
    for (const auto &f : fs::directory_iterator(dir)) {
        if (f.path().extension() == ".pcres")
            entry = f.path().string();
    }
    ASSERT_FALSE(entry.empty());

    // Rewrite the entry the way format version 2 laid it out (magic,
    // version, length-prefixed key text and payload, checksum), with a
    // well-formed payload one tick off: ingesting it would show.
    const trace::SealedFormat pcrs{"PCRS", store::storeFormatVersion, 0xFF};
    const std::string v3_bytes = readFile(entry);
    const trace::Unsealed v3 = trace::unseal(v3_bytes, pcrs);
    ASSERT_TRUE(v3.ok()) << v3.error;
    ASSERT_EQ(v3.sections.size(), 2u);
    store::StoredCell cell;
    std::string err;
    ASSERT_TRUE(store::decodeStoredCell(v3.sections[1].bytes(), cell, err))
        << err;
    cell.run.result.execTime += 1;
    std::string v2("PCRS\x02\x00\x00\x00", 8);
    trace::putString(v2, v3.sections[0].bytes());
    trace::putString(v2, store::encodeStoredCell(cell));
    trace::putFixed64(v2, trace::fnv1a(trace::fnvSeed, v2.data(),
                                       v2.size()));
    std::ofstream(entry, std::ios::binary | std::ios::trunc) << v2;

    bench::SweepRunner reader(with_store);
    std::vector<bench::SweepCell> cells;
    cells.push_back(reader.cell("comd", "STALL"));
    const auto out = reader.run(std::move(cells));
    expectSameResult(want[0].run, out[0].run, "recomputed cell");
    EXPECT_EQ(peek.quarantinedCount(), 1u);
    // The recompute re-published the entry in the current format.
    EXPECT_EQ(peek.entryCount(), 1u);
    const std::string republished = readFile(entry);
    EXPECT_TRUE(trace::unseal(republished, pcrs).ok());
}

TEST(SweepStore, WhatIfResultNeverServesAClosedLoopRun)
{
    // A --trace-what-if run may replay another controller's stream
    // open-loop. Its stored result must never answer the same cell
    // run closed-loop on that store.
    const auto grid = [](bench::SweepRunner &runner) {
        std::vector<bench::SweepCell> cells;
        for (const char *design : {"PCSTALL", "STALL", "CRISP"})
            cells.push_back(runner.cell("comd", design));
        return cells;
    };
    bench::SweepRunner fresh(smallOptions(1));
    const auto want = fresh.run(grid(fresh));

    const std::string dir = scratchDir("whatif");
    bench::BenchOptions what_if = smallOptions(1);
    what_if.storeDir = dir + "/store";
    what_if.traceCacheDir = dir + "/lib";
    what_if.traceWhatIf = true;
    bench::SweepRunner writer(what_if);
    const auto open_loop = writer.run(grid(writer));
    ASSERT_TRUE(open_loop[1].run.ok) << open_loop[1].run.error;
    // Not vacuous: STALL replayed over PCSTALL's stream scores
    // differently from STALL's own closed loop.
    EXPECT_NE(open_loop[1].run.result.predictionAccuracy,
              want[1].run.result.predictionAccuracy);

    bench::BenchOptions closed = smallOptions(1);
    closed.storeDir = what_if.storeDir;
    bench::SweepRunner reader(closed);
    const auto out = reader.run(grid(reader));
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        expectSameResult(want[i].run, out[i].run,
                         "closed-loop cell " + std::to_string(i));
    }
}

TEST(SweepStore, InspectCellsBypassTheStore)
{
    const std::string dir = scratchDir("bypass");
    bench::BenchOptions opts = smallOptions(1);
    opts.storeDir = dir;
    bench::SweepRunner runner(opts);
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL"));
    cells.back().inspect = [](const dvfs::DvfsController &) {};
    const auto out = runner.run(std::move(cells));
    EXPECT_TRUE(out[0].run.ok) << out[0].run.error;
    // The inspected cell has side effects the store cannot replay, so
    // nothing was checkpointed for it.
    ASSERT_NE(runner.store(), nullptr);
    EXPECT_EQ(runner.store()->entryCount(), 0u);
}

/** The example script of docs/workload_format.md, with the trip count
 *  of its first loop as a parameter. */
std::string
stencilScript(int gather_trips)
{
    return "kernel stencil\n"
           "  grid 80 4\n"
           "  seed 11\n"
           "  region grid_in 24M\n"
           "  region table 2M\n"
           "  loop " + std::to_string(gather_trips) + "\n"
           "    load grid_in stream 16\n"
           "    load table sharedhot\n"
           "    waitcnt 0\n"
           "    valu 2 2\n"
           "  endloop\n"
           "  loop 60\n"
           "    valu 4 4\n"
           "    lds 8 1\n"
           "  endloop\n"
           "  loop 8\n"
           "    store grid_in stream 16\n"
           "  endloop\n"
           "endkernel\n"
           "app demo = stencil stencil stencil stencil\n";
}

/** Which cache the stale-edit test runs against. */
class SweepStoreStaleEdit : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SweepStoreStaleEdit, EditedKernelScriptIsRecomputedNotServedStale)
{
    // A kernel script edited in place between two runs on one cache is
    // a different cell: the rerun must equal a fresh run of the edited
    // script, never the cached result of the old one.
    const std::string dir = scratchDir("stale_" + GetParam());
    const std::string script = dir + "/w.kernel";
    bench::BenchOptions cached = smallOptions(1);
    if (GetParam() == "store")
        cached.storeDir = dir + "/cache";
    else
        cached.traceCacheDir = dir + "/cache";
    const auto runCell = [&](const bench::BenchOptions &opts) {
        bench::SweepRunner runner(opts);
        std::vector<bench::SweepCell> cells;
        cells.push_back(runner.cell(script, "PCSTALL"));
        return runner.run(std::move(cells)).at(0).run;
    };

    std::ofstream(script) << stencilScript(12);
    const bench::RunOutcome before = runCell(cached);
    ASSERT_TRUE(before.ok) << before.error;

    std::ofstream(script, std::ios::trunc) << stencilScript(20);
    const bench::RunOutcome rerun = runCell(cached);
    const bench::RunOutcome fresh = runCell(smallOptions(1));
    expectSameResult(fresh, rerun, "rerun of the edited script");
    // Not vacuous: the edit changes the simulated run.
    EXPECT_NE(before.result.execTime, fresh.result.execTime);
}

INSTANTIATE_TEST_SUITE_P(
    Caches, SweepStoreStaleEdit,
    ::testing::Values("store", "trace_cache"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(SweepWatchdog, CellTimeoutCancelsAndIsNeverRetried)
{
    bench::BenchOptions opts = smallOptions(2);
    opts.cellTimeoutSec = 1e-4; // far below any real cell's wall time
    bench::SweepRunner runner(opts);
    std::atomic<int> factory_calls{0};
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL"));
    cells.back().factory = [&](const sim::RunConfig &rc) {
        ++factory_calls;
        return bench::makeController("STALL", rc);
    };
    const auto out = runner.run(std::move(cells));
    ASSERT_FALSE(out[0].run.ok);
    EXPECT_NE(out[0].run.error.find("cell wall-time budget"),
              std::string::npos)
        << out[0].run.error;
    // Timeouts are deterministic budget exhaustion: one attempt only.
    EXPECT_EQ(factory_calls.load(), 1);
}

TEST(SweepWatchdog, SharedBaselineRunsUnderTheWatchdog)
{
    bench::BenchOptions opts = smallOptions(2);
    // The budget is far below any real run's wall time, and a
    // full-scale run crosses many epoch boundaries past its deadline.
    opts.scale = 1.0;
    opts.cellTimeoutSec = 1e-4;
    bench::SweepRunner runner(opts);
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL", true));
    const auto out = runner.run(std::move(cells));
    // The baseline is a sweep run like its cell: cancelled at an epoch
    // boundary, not left to run past the budget.
    ASSERT_FALSE(out[0].baseline.ok);
    EXPECT_NE(out[0].baseline.error.find("cell wall-time budget"),
              std::string::npos)
        << out[0].baseline.error;
    EXPECT_FALSE(out[0].run.ok);
}

std::uint64_t
collectedCounter(const std::string &name)
{
    const obs::MetricsSnapshot snap = obs::collectedSnapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(SweepWatchdog, UnexpiredDeadlineChangesNothing)
{
    // Every attempt arms a deadline it never reaches: the sweep must
    // equal the unbudgeted one, and no run may count as timed out.
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        obs::resetAll();
        obs::setMetricsEnabled(true);
        bench::SweepRunner unbudgeted(smallOptions(threads));
        const auto want = unbudgeted.run(smallGrid(unbudgeted));

        bench::BenchOptions opts = smallOptions(threads);
        opts.cellTimeoutSec = 600;
        bench::SweepRunner budgeted(opts);
        const auto out = budgeted.run(smallGrid(budgeted));
        ASSERT_EQ(out.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            expectSameResult(want[i].run, out[i].run,
                             "budgeted cell " + std::to_string(i));
        }
        expectSameResult(want[0].baseline, out[0].baseline,
                         "budgeted baseline");
        EXPECT_EQ(collectedCounter("farm.cells.timeout"), 0u);
        // Not vacuous: both sweeps' shards were collected (4 cells and
        // a baseline each).
        EXPECT_EQ(collectedCounter("run.count"), 10u);
    }
    obs::resetAll();
}

TEST(SweepRetry, TransientFailureIsRetriedThenSucceeds)
{
    const std::uint64_t failures_before = bench::sweepFailureCount();
    bench::BenchOptions opts = smallOptions(1);
    opts.cellRetries = 2;
    bench::SweepRunner runner(opts);
    std::atomic<int> attempts{0};
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL"));
    cells.back().factory = [&](const sim::RunConfig &rc)
        -> std::unique_ptr<dvfs::DvfsController> {
        if (attempts.fetch_add(1) == 0)
            throw std::runtime_error("transient I/O hiccup");
        return bench::makeController("STALL", rc);
    };
    const auto out = runner.run(std::move(cells));
    EXPECT_TRUE(out[0].run.ok) << out[0].run.error;
    EXPECT_EQ(attempts.load(), 2);
    // A retried-then-recovered cell is not a sweep failure.
    EXPECT_EQ(bench::sweepFailureCount(), failures_before);
}

TEST(SweepRetry, DeterministicFatalErrorIsNotRetried)
{
    bench::BenchOptions opts = smallOptions(1);
    opts.cellRetries = 3;
    bench::SweepRunner runner(opts);
    std::atomic<int> attempts{0};
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL"));
    cells.back().factory = [&](const sim::RunConfig &)
        -> std::unique_ptr<dvfs::DvfsController> {
        ++attempts;
        fatal("deterministically broken cell");
    };
    const auto out = runner.run(std::move(cells));
    EXPECT_FALSE(out[0].run.ok);
    EXPECT_EQ(attempts.load(), 1)
        << "FatalError cells must not burn retries";
}

TEST(SweepRetry, TransientFailureExhaustsBoundedRetries)
{
    bench::BenchOptions opts = smallOptions(1);
    opts.cellRetries = 2;
    bench::SweepRunner runner(opts);
    std::atomic<int> attempts{0};
    std::vector<bench::SweepCell> cells;
    cells.push_back(runner.cell("comd", "STALL"));
    cells.back().factory = [&](const sim::RunConfig &)
        -> std::unique_ptr<dvfs::DvfsController> {
        ++attempts;
        throw std::runtime_error("always transient");
    };
    const auto out = runner.run(std::move(cells));
    EXPECT_FALSE(out[0].run.ok);
    EXPECT_EQ(attempts.load(), 3) << "1 attempt + 2 retries";
}

// ---------------------------------------------------------------- //
// CLI validation                                                    //
// ---------------------------------------------------------------- //

bench::BenchOptions
parseArgs(std::vector<std::string> args)
{
    std::vector<char *> argv;
    args.insert(args.begin(), "test_store");
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::BenchOptions::parse(static_cast<int>(argv.size()),
                                      argv.data());
}

TEST(FarmCli, ValidShardAndFarmFlagsParse)
{
    const auto opts = parseArgs({"--shard", "1/4", "--store", "/tmp/s",
                                 "--resume", "--cell-timeout", "2.5",
                                 "--cell-retries", "5"});
    EXPECT_EQ(opts.shardIndex, 1u);
    EXPECT_EQ(opts.shardCount, 4u);
    EXPECT_EQ(opts.storeDir, "/tmp/s");
    EXPECT_DOUBLE_EQ(opts.cellTimeoutSec, 2.5);
    EXPECT_EQ(opts.cellRetries, 5u);
}

TEST(FarmCli, MalformedShardFallsBackToDefaults)
{
    // Index out of range.
    EXPECT_EQ(parseArgs({"--shard", "3/2"}).shardCount, 0u);
    // Not i/N shaped.
    EXPECT_EQ(parseArgs({"--shard", "banana"}).shardCount, 0u);
    EXPECT_EQ(parseArgs({"--shard", "1/2/3"}).shardCount, 0u);
    // Zero shards.
    EXPECT_EQ(parseArgs({"--shard", "0/0"}).shardCount, 0u);
}

TEST(FarmCli, NonPositiveOrNonFiniteScaleFallsBackToOne)
{
    // A workload scaled by zero, a negative or a non-finite factor is
    // no workload at all: each warns and the sweep runs at scale 1.
    for (const char *bad : {"0", "-1", "nan", "inf"})
        EXPECT_DOUBLE_EQ(parseArgs({"--scale", bad}).scale, 1.0) << bad;
    EXPECT_DOUBLE_EQ(parseArgs({"--scale", "0.25"}).scale, 0.25);
}

TEST(FarmCli, NegativeTimeoutAndResumeWithoutStoreAreRecoverable)
{
    EXPECT_DOUBLE_EQ(
        parseArgs({"--cell-timeout", "-1"}).cellTimeoutSec, 0.0);
    // The retired --resume flag is accepted and ignored: a --store
    // run resumes on its own.
    EXPECT_TRUE(parseArgs({"--resume"}).storeDir.empty());
}

} // namespace
