/**
 * @file
 * Tests of the decision-provenance subsystem (src/obs/provenance,
 * docs/provenance.md): the golden PCPV wire image of a small
 * synthetic run, byte-identity of sweep sidecars across --threads
 * values, live-capture vs trace-replay record identity (including
 * the hierarchical power cap), strict rejection of every truncation
 * and byte flip, the oracle-regret sign invariant, and preservation
 * of the regret rollup across a store-backed resume.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pcstall_controller.hh"
#include "dvfs/hierarchical.hh"
#include "models/reactive_controller.hh"
#include "obs/provenance.hh"
#include "sim/experiment.hh"
#include "sweep_runner.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "workloads/workloads.hh"
#include "zoo/registry.hh"

using namespace pcstall;

namespace
{

sim::RunConfig
testConfig(std::uint32_t cus = 2)
{
    sim::RunConfig cfg;
    cfg.gpu.numCus = cus;
    cfg.maxSimTime = 2 * tickMs;
    cfg.scaled();
    return cfg;
}

std::shared_ptr<const isa::Application>
app(const std::string &name, std::uint32_t cus = 2, double scale = 0.2)
{
    workloads::WorkloadParams p;
    p.numCus = cus;
    p.scale = scale;
    return std::make_shared<const isa::Application>(
        workloads::makeWorkload(name, p));
}

/** Fresh unique path under gtest's per-run temp directory. */
std::string
tempPath(const std::string &stem, const std::string &ext)
{
    static int counter = 0;
    return ::testing::TempDir() + "pcstall_" + stem + "_" +
           std::to_string(static_cast<long>(::getpid())) + "_" +
           std::to_string(counter++) + ext;
}

/** Fresh unique directory under gtest's per-run temp directory. */
std::string
tempDir(const std::string &stem)
{
    const std::string dir = tempPath(stem, "");
    // A directory left by an earlier run whose pid was the same.
    std::filesystem::remove_all(dir);
    EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
    return dir;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Run PCSTALL (from the registry) on a few epochs of @p workload with
 * a provenance sink attached, returning the populated log. Capping
 * maxSimTime at @p epochs leaves the final decision unrealized, so
 * the dangling-record path is part of every consumer test.
 */
obs::ProvenanceLog
smallAuditedRun(const std::string &workload, std::uint64_t epochs = 3)
{
    auto cfg = testConfig();
    cfg.maxSimTime = static_cast<Tick>(epochs) * cfg.epochLen;
    const auto made =
        dvfs::ControllerRegistry::instance().make("PCSTALL", cfg);
    EXPECT_TRUE(made.ok()) << made.error;
    obs::ProvenanceLog log;
    sim::ExperimentDriver driver(cfg);
    driver.setProvenance(&log);
    driver.run(app(workload), *made.controller);
    return log;
}

} // namespace

// ---------------------------------------------------------------------
// Golden wire image: the serialized PCPV bytes of a pinned synthetic
// run must never drift silently. Regenerate (and call out the format
// change in docs/provenance.md) with PCSTALL_REGEN_GOLDEN=1.
// ---------------------------------------------------------------------

TEST(Provenance, GoldenPcpvImageIsStable)
{
    const obs::ProvenanceLog log = smallAuditedRun("comd");
    ASSERT_FALSE(log.records.empty());
    const std::string bytes = obs::encodeProvenance(log);

    const std::string path = std::string(PCSTALL_TEST_DATA_DIR) +
        "/provenance_golden.pcpv";
    if (std::getenv("PCSTALL_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << bytes;
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << path << " missing; regenerate with PCSTALL_REGEN_GOLDEN=1";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(bytes, want.str())
        << "PCPV encoding drifted; if intentional, bump "
           "provenanceFormatVersion, regenerate with "
           "PCSTALL_REGEN_GOLDEN=1 and update docs/provenance.md";

    // The golden image round-trips through the strict decoder.
    const obs::ProvenanceReadResult back =
        obs::decodeProvenance(bytes);
    ASSERT_TRUE(back.ok()) << back.error;
    EXPECT_EQ(back.log->records.size(), log.records.size());
    EXPECT_EQ(back.log->meta.workload, "comd");
    EXPECT_EQ(back.log->meta.controller, "PCSTALL");
    EXPECT_EQ(obs::encodeProvenance(*back.log), bytes);
}

// ---------------------------------------------------------------------
// Thread-count independence: a sweep writing --provenance-out style
// sidecars produces byte-identical files at --threads 1 and 4.
// ---------------------------------------------------------------------

TEST(Provenance, SidecarsAreByteIdenticalAcrossThreadCounts)
{
    const std::vector<std::string> workloads = {"comd", "hacc",
                                                "xsbench"};
    const std::vector<std::string> designs = {"STALL", "PCSTALL"};

    // Distinct directories per thread count: output paths are claimed
    // process-wide, so reusing one pattern would add -rN suffixes to
    // the second sweep's files.
    auto sweep = [&](unsigned threads, const std::string &dir) {
        bench::BenchOptions opts;
        opts.cus = 4;
        opts.scale = 0.25;
        opts.threads = threads;
        bench::SweepRunner runner(opts);
        std::vector<bench::SweepCell> cells;
        for (const std::string &w : workloads) {
            for (const std::string &d : designs) {
                bench::SweepCell c = runner.cell(w, d);
                c.opts.provenanceOut = dir + "/{w}-{c}.pcpv";
                cells.push_back(c);
            }
        }
        const auto outcomes = runner.run(cells);
        for (const auto &o : outcomes)
            EXPECT_TRUE(o.run.ok) << o.run.error;
    };

    const std::string dir1 = tempDir("prov_t1");
    const std::string dir4 = tempDir("prov_t4");
    sweep(1, dir1);
    sweep(4, dir4);

    for (const std::string &w : workloads) {
        for (const std::string &d : designs) {
            const std::string name = "/" + w + "-" + d + ".pcpv";
            SCOPED_TRACE(name);
            const std::string a = readFileBytes(dir1 + name);
            const std::string b = readFileBytes(dir4 + name);
            EXPECT_FALSE(a.empty());
            EXPECT_TRUE(a == b)
                << "sidecar differs between --threads 1 and 4";
            std::remove((dir1 + name).c_str());
            std::remove((dir4 + name).c_str());
        }
    }
    ::rmdir(dir1.c_str());
    ::rmdir(dir4.c_str());
}

// ---------------------------------------------------------------------
// Capture-then-replay: a trace replay re-derives the live run's
// provenance byte-for-byte, including under the hierarchical cap
// (which is not registry-constructible and exercises the wrapper
// path dvfs_explain rebuilds from trace meta).
// ---------------------------------------------------------------------

class ProvenanceReplay : public ::testing::TestWithParam<const char *>
{};

TEST_P(ProvenanceReplay, ReplayRederivesLiveProvenanceExactly)
{
    const std::string kind = GetParam();
    const auto cfg = testConfig();

    struct Built
    {
        std::unique_ptr<core::PcstallController> inner;
        std::unique_ptr<dvfs::DvfsController> controller;
        trace::HierarchicalMeta hier;
        dvfs::DvfsController &use()
        {
            return controller ? *controller : *inner;
        }
    };
    auto build = [&] {
        Built b;
        if (kind == "STALL") {
            b.controller =
                std::make_unique<models::ReactiveController>(
                    models::EstimationKind::Stall);
            return b;
        }
        b.inner = std::make_unique<core::PcstallController>(
            core::PcstallConfig::forEpoch(cfg.epochLen,
                                          cfg.gpu.waveSlotsPerCu),
            cfg.gpu.numCus);
        if (kind == "PCSTALL")
            return b;
        dvfs::HierarchicalConfig hcfg;
        hcfg.powerCap = 40.0;
        hcfg.reviewEpochs = 10;
        b.hier.enabled = true;
        b.hier.powerCap = hcfg.powerCap;
        b.hier.reviewEpochs = hcfg.reviewEpochs;
        b.hier.widenBelow = hcfg.widenBelow;
        b.controller =
            std::make_unique<dvfs::HierarchicalPowerManager>(
                *b.inner, hcfg);
        return b;
    };

    // Live run: capture the trace and the provenance together.
    Built live = build();
    obs::ProvenanceLog live_log;
    const std::string trace_path = tempPath("prov_replay", ".pctrace");
    sim::ExperimentDriver driver(cfg);
    driver.setProvenance(&live_log);
    trace::TraceWriter writer(
        trace_path, trace::makeTraceMeta(cfg, driver.table(), "comd",
                                         live.use(), live.hier));
    ASSERT_TRUE(writer.ok());
    trace::TraceCapture capture(writer);
    const sim::RunResult result =
        driver.run(app("comd"), live.use(), &capture);
    ASSERT_TRUE(capture.finished());
    ASSERT_FALSE(live_log.records.empty());

    // Replay twin: same controller built cold, provenance re-derived.
    const auto read = trace::readTraceFile(trace_path);
    ASSERT_TRUE(read.ok()) << read.error;
    Built twin = build();
    obs::ProvenanceLog replay_log;
    trace::ReplayDriver replay(*read.trace);
    trace::ReplayOptions ropts;
    ropts.auditRegret = true;
    ropts.provenance = &replay_log;
    const trace::ReplayOutcome outcome = replay.run(twin.use(), ropts);
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_TRUE(outcome.deterministic()) << outcome.firstMismatch;

    EXPECT_EQ(obs::encodeProvenance(replay_log),
              obs::encodeProvenance(live_log));
    EXPECT_EQ(replay_log.regret.count, result.regret.count);
    std::remove(trace_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Grid, ProvenanceReplay,
                         ::testing::Values("STALL", "PCSTALL",
                                           "PCSTALL+CAP"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '+')
                                     c = 'x';
                             return n;
                         });

TEST(Provenance, DsoCaptureReplaysAndItsSidecarVerifies)
{
    // DSO analyses the application ahead of time, so its replay needs
    // the application the capture ran: makeReplayController() rebuilds
    // it from the workload build the trace header records.
    const std::string dir = tempDir("prov_dso");
    bench::BenchOptions opts;
    opts.cus = 4;
    opts.scale = 0.25;
    opts.threads = 1;
    bench::SweepRunner runner(opts);
    bench::SweepCell cell = runner.cell("comd", "DSO");
    cell.opts.traceOut = dir + "/{w}-{c}.pctrace";
    cell.opts.provenanceOut = dir + "/{w}-{c}.pcpv";
    const auto out = runner.run({cell});
    ASSERT_TRUE(out[0].run.ok) << out[0].run.error;

    const auto read = trace::readTraceFile(dir + "/comd-DSO.pctrace");
    ASSERT_TRUE(read.ok()) << read.error;
    EXPECT_EQ(read.trace->meta.workloadScale, 0.25);
    EXPECT_EQ(read.trace->meta.workloadSeed, opts.seed);
    const bench::ReplayController rc =
        bench::makeReplayController(read.trace->meta, "DSO");
    obs::ProvenanceLog log;
    trace::ReplayDriver replay(*read.trace);
    trace::ReplayOptions ropts;
    ropts.auditRegret = true;
    ropts.provenance = &log;
    const trace::ReplayOutcome outcome = replay.run(*rc.use, ropts);
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_EQ(outcome.decisionMismatches, 0u) << outcome.firstMismatch;
    EXPECT_TRUE(obs::encodeProvenance(log) ==
                readFileBytes(dir + "/comd-DSO.pcpv"))
        << "the replay does not re-derive the sidecar";
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Strict decoding: every truncation and every single-byte flip of a
// valid PCPV image is rejected (the trailer checksum covers the whole
// file), and the diagnostic is never empty.
// ---------------------------------------------------------------------

TEST(Provenance, EveryTruncationIsRejected)
{
    const std::string bytes =
        obs::encodeProvenance(smallAuditedRun("hacc"));
    ASSERT_GT(bytes.size(), 32u);
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const obs::ProvenanceReadResult r =
            obs::decodeProvenance(bytes.substr(0, n));
        EXPECT_FALSE(r.ok()) << "truncation to " << n << " bytes "
                             << "decoded successfully";
        EXPECT_FALSE(r.error.empty());
    }
}

TEST(Provenance, EveryByteFlipIsRejected)
{
    const std::string bytes =
        obs::encodeProvenance(smallAuditedRun("hacc"));
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string corrupt = bytes;
        corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
        const obs::ProvenanceReadResult r =
            obs::decodeProvenance(corrupt);
        EXPECT_FALSE(r.ok())
            << "flip at byte " << i << " decoded successfully";
    }
}

// ---------------------------------------------------------------------
// Regret semantics: hindsight regret vs the oracle is non-negative
// for every realized record, and the rollup counts exactly the
// realized records.
// ---------------------------------------------------------------------

TEST(Provenance, OracleRegretIsNonNegativeAndRollupMatches)
{
    const obs::ProvenanceLog log = smallAuditedRun("xsbench", 6);
    ASSERT_FALSE(log.records.empty());
    std::uint64_t realized = 0;
    for (const obs::DecisionRecord &rec : log.records) {
        if (!rec.realized) {
            // Only a run-final dangling decision can be unrealized
            // (its epoch never completed).
            EXPECT_EQ(&rec, &log.records.back());
            EXPECT_TRUE(rec.stateScores.empty());
            continue;
        }
        ++realized;
        ASSERT_EQ(rec.stateScores.size(), log.meta.numStates);
        EXPECT_GE(rec.oracleRegret(), 0.0);
        EXPECT_GE(rec.oracleRegretRel(), 0.0);
        EXPECT_GE(rec.chosenScoreSum(), rec.bestScoreSum());
        for (const obs::DomainDecisionProv &dom : rec.domains) {
            EXPECT_LT(dom.chosenState, log.meta.numStates);
            EXPECT_LT(dom.appliedState, log.meta.numStates);
            EXPECT_LT(dom.bestState, log.meta.numStates);
        }
    }
    EXPECT_GT(realized, 0u);
    EXPECT_EQ(log.regret.count, realized);

    // The wall-capped golden run pins the dangling-record case: its
    // final decision's epoch never completes.
    const obs::ProvenanceLog capped = smallAuditedRun("comd");
    ASSERT_FALSE(capped.records.empty());
    EXPECT_FALSE(capped.records.back().realized);
}

// ---------------------------------------------------------------------
// Store resume: a regret rollup checkpointed with a cell result is
// reproduced field-for-field when a second sweep resumes from the
// store instead of recomputing.
// ---------------------------------------------------------------------

TEST(Provenance, RegretSummarySurvivesStoreResume)
{
    const std::string store = tempDir("prov_store");
    auto sweep = [&] {
        bench::BenchOptions opts;
        opts.cus = 4;
        opts.scale = 0.25;
        opts.threads = 2;
        opts.storeDir = store;
        bench::SweepRunner runner(opts);
        std::vector<bench::SweepCell> cells;
        for (const char *w : {"comd", "dgemm"}) {
            bench::SweepCell c = runner.cell(w, "PCSTALL");
            c.opts.auditRegret = true;
            cells.push_back(c);
        }
        return runner.run(cells);
    };

    const auto first = sweep();
    const auto resumed = sweep();
    ASSERT_EQ(first.size(), resumed.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        ASSERT_TRUE(first[i].run.ok) << first[i].run.error;
        ASSERT_TRUE(resumed[i].run.ok) << resumed[i].run.error;
        const obs::RegretSummary &a = first[i].run.result.regret;
        const obs::RegretSummary &b = resumed[i].run.result.regret;
        EXPECT_GT(a.count, 0u);
        EXPECT_EQ(a.count, b.count);
        EXPECT_EQ(a.oracleSum, b.oracleSum);
        EXPECT_EQ(a.oracleMax, b.oracleMax);
        EXPECT_EQ(a.staticSum, b.staticSum);
        EXPECT_EQ(a.buckets, b.buckets);
    }
}
