/**
 * @file
 * The repository benchmark's driver; README.md in this directory holds
 * the workload choices and the metric definitions.
 *
 * A run sets its workload up, then runs whole grid passes through
 * bench::SweepRunner, one cell after another, until the requested host
 * seconds are spent, checks every delivered cell and prints the
 * end-to-end metrics. With --trace 1 it then re-runs one pass through
 * the span-instrumented drivers of traced.hh, checks every traced cell
 * bit for bit against its SweepRunner twin, and reports the per-layer
 * breakdown instead. The last stdout line is the JSON result.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hh"
#include "common/rng.hh"
#include "core/pcstall_controller.hh"
#include "harness.hh"
#include "obs/context.hh"
#include "spans.hh"
#include "store/cell_codec.hh"
#include "store/result_store.hh"
#include "sweep_runner.hh"
#include "trace/format.hh"
#include "trace/library.hh"
#include "trace/replay.hh"
#include "trace/snapshot.hh"
#include "traced.hh"
#include "workloads/workloads.hh"
#include "zoo/registry.hh"

namespace pcstall::perfbench
{
namespace
{

namespace fs = std::filesystem;
using AppPtr = std::shared_ptr<const isa::Application>;
using AppMap = std::map<std::string, AppPtr>;

/** Command-line arguments; run.py passes every one of them. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 12.0;
    bool trace = false;
    /** Steady-clock ns at which the process was launched (-1: unknown). */
    std::int64_t launchNs = -1;
    std::string workDir = ".bench_build/perfbench/work";
    std::string spansOut;
    std::string commit = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        fatalIf(i + 1 >= argc, "perfbench: " + flag + " needs a value");
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--launch-ns")
            args.launchNs = std::stoll(value);
        else if (flag == "--work-dir")
            args.workDir = value;
        else if (flag == "--spans-out")
            args.spansOut = value;
        else if (flag == "--commit")
            args.commit = value;
        else
            fatal("perfbench: unknown flag " + flag);
    }
    return args;
}

/** One workload: a sweep grid and how it is run (see README.md). */
struct Workload
{
    std::string name;
    bench::BenchOptions opts;
    std::vector<std::string> apps;
    /** Designs per app; for replay_study the first one owns the
     *  captured stream. */
    std::vector<std::string> designs;
    /** replay_study: set-up captures one stream per app into an empty
     *  trace library; a pass replays the grid into an empty results
     *  store, then resumes the grid from it. */
    bool replay = false;
    /** Set-up repetitions; setup_s reports their median. */
    int setupReps = 5;
};

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    bench::BenchOptions &o = w.opts;
    o.seed = seed;
    // One cell at a time: a closed loop from one process.
    o.threads = 1;
    o.harnessId = "perfbench";
    // Per-epoch states join every RunResult, so the digest and the
    // identity checks cover them.
    o.collectTrace = true;
    if (name == "live_sweep") {
        w.apps = {"hacc", "xsbench", "quickS", "lulesh", "FwdSoft",
                  "dgemm"};
        w.designs = {"PCSTALL", "STALL", "CRISP", "GPHT"};
    } else if (name == "oracle_paper_scale") {
        o.cus = 64;
        o.scale = 0.25;
        o.oracleThreads = 2;
        w.apps = {"dgemm", "xsbench", "quickS"};
        w.designs = {"ACCPC", "ORACLE"};
    } else if (name == "replay_study") {
        o.traceWhatIf = true;
        for (const workloads::WorkloadInfo &info :
             workloads::workloadTable()) {
            w.apps.push_back(info.name);
        }
        w.designs = {"PCSTALL",         "STALL",           "LEAD",
                     "CRIT",            "CRISP",           "GPHT",
                     "WANGCHU",         "REGR",            "REGR:hist=4",
                     "REGR:hist=16",    "REGR:forget=0.8", "REGR:margin=0.05",
                     "DSO",             "DSO:beta=0.25",   "DSO:beta=0.75",
                     "DSO:memcost=200"};
        for (int s = 0; s < 10; ++s)
            w.designs.push_back("STATIC:" + std::to_string(s));
        w.replay = true;
        w.setupReps = 3;
    } else {
        fatal("perfbench: unknown workload '" + name +
              "' (live_sweep, oracle_paper_scale, replay_study)");
    }
    return w;
}

struct GridCell
{
    std::string app;
    std::string design;
};

std::vector<GridCell>
grid(const Workload &w)
{
    std::vector<GridCell> cells;
    for (const std::string &app : w.apps) {
        for (const std::string &design : w.designs)
            cells.push_back({app, design});
    }
    return cells;
}

std::string
label(const GridCell &cell)
{
    return cell.app + " x " + cell.design;
}

/** The RunConfig SweepRunner hands a cell with run index 0. */
sim::RunConfig
cellConfig(const bench::BenchOptions &opts, const GridCell &cell)
{
    sim::RunConfig cfg = opts.runConfig();
    cfg.gpu.seed = Rng::split(opts.seed, cell.app, cell.design, 0).next();
    return cfg;
}

/** The shared (what-if) library key SweepRunner files an app's
 *  replay_study stream under. */
trace::LibraryKey
streamKey(const bench::BenchOptions &opts, const std::string &app)
{
    trace::LibraryKey key;
    key.harness = opts.harnessId;
    key.workload = app;
    key.fingerprint = bench::simConfigFingerprint(opts);
    key.shared = true;
    return key;
}

/** A results-store key shaped like SweepRunner's own, so the traced
 *  pass writes entries of the same size. */
store::CellKey
storeKey(const bench::BenchOptions &opts, const GridCell &cell)
{
    store::CellKey key;
    key.harness = opts.harnessId;
    key.workload = cell.app;
    key.design = cell.design;
    key.controllerConfig = dvfs::splitDesign(cell.design).config;
    key.fingerprint = bench::simConfigFingerprint(opts) + "\x1fm0\x1f" "a0\x1f";
    return key;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/** SweepRunner cells for the grid. The factory builds the controller
 *  exactly as SweepRunner would and marks the cell as computed, so a
 *  cell served from the results store leaves its mark unset. */
std::vector<bench::SweepCell>
sweepCells(const bench::SweepRunner &runner, const Workload &w,
           const AppMap &apps, std::vector<std::atomic<bool>> &computed)
{
    const std::vector<GridCell> g = grid(w);
    std::vector<bench::SweepCell> cells;
    for (std::size_t i = 0; i < g.size(); ++i) {
        bench::SweepCell c = runner.cell(g[i].app, g[i].design);
        const AppPtr app = apps.at(g[i].app);
        std::atomic<bool> *mark = &computed[i];
        const std::string design = g[i].design;
        c.factory = [design, app, mark](const sim::RunConfig &cfg) {
            mark->store(true);
            return bench::makeController(design, cfg, app.get());
        };
        cells.push_back(std::move(c));
    }
    return cells;
}

/** Sums over delivered cells, for the throughput metrics. */
struct Work
{
    std::uint64_t cells = 0;
    double epochs = 0.0;
    double instructions = 0.0;
    double cuCycles = 0.0;

    void
    add(const sim::RunResult &r, std::uint32_t cus)
    {
        ++cells;
        epochs += static_cast<double>(r.epochs);
        instructions += static_cast<double>(r.instructions);
        cuCycles += perfbench::cuCycles(r, cus);
    }
};

struct Setup
{
    AppMap apps;
    /** replay_study: the owner design's live capture per app. */
    std::vector<sim::RunResult> captures;
    fs::path library;
    std::vector<double> repSeconds;
};

Setup
runSetup(const Workload &w, const fs::path &work)
{
    Setup s;
    for (int rep = 0; rep < w.setupReps; ++rep) {
        const std::int64_t t0 = nowNs();
        AppMap apps;
        for (const std::string &name : w.apps) {
            AppPtr app = bench::makeApp(name, w.opts);
            fatalIf(app == nullptr,
                    "perfbench: workload '" + name + "' failed to build");
            apps.emplace(name, std::move(app));
        }
        std::vector<sim::RunResult> captures;
        const fs::path library = work / ("library-" + std::to_string(rep));
        if (w.replay) {
            fs::remove_all(library);
            bench::BenchOptions opts = w.opts;
            opts.traceCacheDir = library.string();
            bench::SweepRunner runner(opts);
            std::vector<bench::SweepCell> cells;
            for (const std::string &name : w.apps)
                cells.push_back(runner.cell(name, w.designs.front()));
            for (const bench::CellOutcome &out : runner.run(cells)) {
                const std::string why = cellProblem(
                    out.run.ok, out.run.error, out.run.result);
                fatalIf(!why.empty(), "perfbench: set-up capture of " +
                            out.run.result.workload + ": " + why);
                captures.push_back(out.run.result);
            }
        }
        s.repSeconds.push_back(seconds(nowNs() - t0));
        if (rep > 0) {
            for (std::size_t i = 0; i < captures.size(); ++i) {
                const std::string why = mismatch(s.captures[i], captures[i]);
                fatalIf(!why.empty(), "perfbench: set-up capture of " +
                            w.apps[i] + " is not deterministic: " + why);
            }
            fs::remove_all(s.library);
        }
        s.apps = std::move(apps);
        s.captures = std::move(captures);
        s.library = library;
    }
    return s;
}

/** What the untraced region delivered. */
struct Sweep
{
    /** Per pass: the work delivered and its host time. */
    std::vector<Work> passWork;
    std::vector<std::int64_t> passNs;
    /** Pass 1's result per grid cell (replay_study: the replayed
     *  cells); later passes and the traced run are checked against it. */
    std::vector<sim::RunResult> reference;
    /** replay_study: pass 1's resumed cells. */
    std::vector<sim::RunResult> resumed;
};

/** Whole passes until elapsed plus half the last pass reaches the
 *  budget, so every metric covers whole grids. */
bool
budgetSpent(std::int64_t elapsed_ns, std::int64_t last_ns, double budget)
{
    return seconds(elapsed_ns + last_ns / 2) >= budget;
}

Sweep
runLiveSweep(const Workload &w, const Setup &setup, double budget,
             FailTally &tally,
             const std::vector<sim::RunResult> *reference = nullptr)
{
    Sweep s;
    const std::vector<GridCell> g = grid(w);
    bench::SweepRunner runner(w.opts);
    std::int64_t elapsed = 0;
    for (std::size_t pass = 0;; ++pass) {
        std::vector<std::atomic<bool>> computed(g.size());
        Work pass_work;
        const std::int64_t t0 = nowNs();
        const std::vector<bench::CellOutcome> out =
            runner.run(sweepCells(runner, w, setup.apps, computed));
        const std::int64_t dt = nowNs() - t0;
        for (std::size_t i = 0; i < g.size(); ++i) {
            const bench::RunOutcome &run = out[i].run;
            const std::vector<sim::RunResult> *want =
                pass > 0 ? &s.reference : reference;
            std::string why = cellProblem(run.ok, run.error, run.result);
            if (why.empty() && want != nullptr)
                why = mismatch((*want)[i], run.result);
            tally.record(label(g[i]), why);
            pass_work.add(run.result, w.opts.cus);
            if (pass == 0)
                s.reference.push_back(run.result);
        }
        s.passWork.push_back(pass_work);
        s.passNs.push_back(dt);
        elapsed += dt;
        if (budgetSpent(elapsed, dt, budget))
            break;
    }
    return s;
}

/** Replays of every grid cell straight through trace::ReplayDriver,
 *  the reference that proves each SweepRunner cell was a library hit
 *  rather than a live fallback. */
std::vector<sim::RunResult>
explicitReplays(const Workload &w, const Setup &setup)
{
    const trace::TraceLibrary library(setup.library.string());
    std::map<std::string, trace::TraceData> traces;
    std::vector<sim::RunResult> out;
    for (const GridCell &cell : grid(w)) {
        auto it = traces.find(cell.app);
        if (it == traces.end()) {
            const trace::TraceLibrary::GetResult got =
                library.get(streamKey(w.opts, cell.app));
            fatalIf(got.status != trace::TraceLibrary::GetStatus::Hit,
                    "perfbench: no library stream for " + cell.app);
            trace::TraceReadResult read =
                trace::readTraceFile(got.tracePath);
            fatalIf(!read.ok(), "perfbench: " + read.error);
            it = traces.emplace(cell.app, std::move(*read.trace)).first;
        }
        const sim::RunConfig cfg = cellConfig(w.opts, cell);
        std::unique_ptr<dvfs::DvfsController> ctrl = bench::makeController(
            cell.design, cfg, setup.apps.at(cell.app).get());
        trace::ReplayOptions ropts;
        ropts.verifyDecisions = false;
        ropts.liveMetricProfile = true;
        trace::ReplayOutcome outcome =
            trace::ReplayDriver(it->second).run(*ctrl, ropts);
        fatalIf(!outcome.ok(), "perfbench: " + outcome.error);
        outcome.result.workload = cell.app;
        out.push_back(std::move(outcome.result));
    }
    return out;
}

Sweep
runReplaySweep(const Workload &w, const Setup &setup, const fs::path &work,
               double budget, FailTally &tally)
{
    Sweep s;
    const std::vector<GridCell> g = grid(w);
    const std::vector<sim::RunResult> replayed = explicitReplays(w, setup);
    const trace::TraceLibrary library(setup.library.string());
    const std::size_t entries = library.entryCount();
    const std::size_t quarantined = library.quarantinedCount();
    std::int64_t elapsed = 0;
    for (std::size_t pass = 0;; ++pass) {
        const fs::path store = work / ("store-" + std::to_string(pass));
        fs::remove_all(store);
        bench::BenchOptions opts = w.opts;
        opts.traceCacheDir = setup.library.string();
        opts.storeDir = store.string();
        std::vector<std::atomic<bool>> replay_computed(g.size());
        std::vector<std::atomic<bool>> resume_computed(g.size());
        std::vector<bench::CellOutcome> replay_out;
        std::vector<bench::CellOutcome> resume_out;
        Work pass_work;
        const std::int64_t t0 = nowNs();
        {
            bench::SweepRunner runner(opts);
            replay_out = runner.run(
                sweepCells(runner, w, setup.apps, replay_computed));
        }
        {
            // A resume is a fresh process on the same flags.
            bench::SweepRunner runner(opts);
            resume_out = runner.run(
                sweepCells(runner, w, setup.apps, resume_computed));
        }
        const std::int64_t dt = nowNs() - t0;

        // A live fallback either re-captures into the library or
        // quarantines an entry; both change these counts.
        const bool library_intact = library.entryCount() == entries &&
            library.quarantinedCount() == quarantined;
        for (std::size_t i = 0; i < g.size(); ++i) {
            const bench::RunOutcome &run = replay_out[i].run;
            std::string why = cellProblem(run.ok, run.error, run.result);
            if (why.empty() && !library_intact)
                why = "trace library changed: a cell simulated live";
            if (why.empty())
                why = mismatch(pass == 0 ? replayed[i] : s.reference[i],
                               run.result);
            if (why.empty() && g[i].design == w.designs.front()) {
                const std::size_t app = i / w.designs.size();
                why = mismatch(setup.captures[app], run.result);
                if (!why.empty())
                    why = "owner replay differs from its live capture";
            }
            tally.record("replay " + label(g[i]), why);
            pass_work.add(run.result, w.opts.cus);
        }
        for (std::size_t i = 0; i < g.size(); ++i) {
            const bench::RunOutcome &run = resume_out[i].run;
            std::string why = cellProblem(run.ok, run.error, run.result);
            if (why.empty() && resume_computed[i].load())
                why = "recomputed instead of served from the store";
            if (why.empty())
                why = mismatch(replay_out[i].run.result, run.result);
            tally.record("resume " + label(g[i]), why);
            pass_work.add(run.result, w.opts.cus);
        }
        if (pass == 0) {
            for (std::size_t i = 0; i < g.size(); ++i) {
                s.reference.push_back(replay_out[i].run.result);
                s.resumed.push_back(resume_out[i].run.result);
            }
        }
        fs::remove_all(store);
        s.passWork.push_back(pass_work);
        s.passNs.push_back(dt);
        elapsed += dt;
        if (budgetSpent(elapsed, dt, budget))
            break;
    }
    return s;
}

// ---------------------------------------------------------------------
// The traced run.

/** Everything the traced pass measured beyond its spans. */
struct Traced
{
    SpanRecorder spans;
    /** First span of the traced pass (earlier ones are its set-up). */
    std::size_t timedBegin = 0;
    std::int64_t wallNs = 0;
    GpuCounts gpu;
    /** Over live-simulated traced cells. */
    double liveInstructions = 0.0;
    double liveCuCycles = 0.0;
    /** Epochs of every traced cell run live or replayed. */
    double epochs = 0.0;
    double replayEpochs = 0.0;
    double framesDecoded = 0.0;
    double captureFrames = 0.0;
    std::uint64_t pcLookups = 0;
    std::uint64_t pcHits = 0;
    std::uint64_t pcAliasHits = 0;
    std::uint64_t traceHits = 0;
    std::uint64_t liveFallbacks = 0;
    std::uint64_t quarantined = 0;
    double libraryBytes = 0.0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t storeCorrupt = 0;
    double storeBytesPerEntry = 0.0;
};

void
addPcTelemetry(Traced &t, const dvfs::DvfsController &controller)
{
    const auto *pcstall =
        dynamic_cast<const core::PcstallController *>(&controller);
    if (pcstall == nullptr)
        return;
    for (const predict::PcSensitivityTable &table : pcstall->pcTables()) {
        const predict::PcSensitivityTable::Telemetry tel = table.telemetry();
        t.pcLookups += tel.lookups;
        t.pcHits += tel.hits;
        t.pcAliasHits += tel.aliasHits;
    }
}

std::unique_ptr<TimedController>
buildController(Traced &t, const GridCell &cell, const sim::RunConfig &cfg,
                const AppMap &apps)
{
    const ScopedSpan span(t.spans, SpanKind::ControllerBuild);
    return std::make_unique<TimedController>(
        bench::makeController(cell.design, cfg, apps.at(cell.app).get()),
        t.spans);
}

AppMap
tracedBuild(const Workload &w, Traced &t)
{
    AppMap apps;
    for (const std::string &name : w.apps) {
        const ScopedSpan span(t.spans, SpanKind::Build);
        apps.emplace(name, bench::makeApp(name, w.opts));
    }
    return apps;
}

/** replay_study set-up, traced: capture the owner's stream per app
 *  into a fresh library through the traced live driver. */
fs::path
tracedCapture(const Workload &w, const AppMap &apps, const Setup &setup,
              const fs::path &work, Traced &t, FailTally &tally)
{
    const fs::path dir = work / "library-traced";
    fs::remove_all(dir);
    const trace::TraceLibrary library(dir.string());
    fatalIf(!library.ok(), "perfbench: " + library.error());
    for (std::size_t i = 0; i < w.apps.size(); ++i) {
        const GridCell cell{w.apps[i], w.designs.front()};
        obs::RunContext ctx(label(cell));
        const obs::ScopedContext scope(ctx);
        t.spans.setCell(static_cast<std::uint32_t>(i));
        const std::size_t cell_span = t.spans.open(SpanKind::Cell);
        const sim::RunConfig cfg = cellConfig(w.opts, cell);
        std::unique_ptr<TimedController> ctrl =
            buildController(t, cell, cfg, apps);
        const trace::LibraryKey key = streamKey(w.opts, cell.app);
        trace::TraceWriter writer(
            library.entryPath(key),
            trace::makeTraceMeta(cfg, power::VfTable::paperTable(),
                                 cell.app, *ctrl));
        trace::TraceCapture capture(writer);
        if (const auto *pcstall =
                dynamic_cast<const core::PcstallController *>(
                    &ctrl->inner())) {
            capture.setSnapshotProvider([pcstall] {
                return trace::snapshotPcTables(pcstall->pcTables());
            });
        }
        GpuCounts unused;
        sim::RunResult result = tracedLiveRun(
            cfg, apps.at(cell.app), *ctrl, t.spans, unused, &capture, false);
        std::string publish_err;
        {
            const ScopedSpan span(t.spans, SpanKind::TracePublish);
            capture.onRunEnd(result);
            publish_err = library.publishKey(key);
        }
        t.spans.close(cell_span);
        result.workload = cell.app;
        t.captureFrames += static_cast<double>(writer.frameCount());
        std::string why = writer.ok() ? publish_err : "trace write failed";
        if (why.empty())
            why = mismatch(setup.captures[i], result);
        tally.record("traced capture " + label(cell), why);
    }
    return dir;
}

void
tracedLivePass(const Workload &w, const AppMap &apps, const Sweep &sweep,
               Traced &t, FailTally &tally)
{
    const std::vector<GridCell> g = grid(w);
    std::vector<sim::RunResult> results;
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < g.size(); ++i) {
        obs::RunContext ctx(label(g[i]));
        const obs::ScopedContext scope(ctx);
        t.spans.setCell(static_cast<std::uint32_t>(i));
        const std::size_t cell_span = t.spans.open(SpanKind::Cell);
        sim::RunConfig cfg = cellConfig(w.opts, g[i]);
        cfg.oracleThreads = 1;
        std::unique_ptr<TimedController> ctrl =
            buildController(t, g[i], cfg, apps);
        sim::RunResult result = tracedLiveRun(
            cfg, apps.at(g[i].app), *ctrl, t.spans, t.gpu, nullptr, true);
        t.spans.close(cell_span);
        result.workload = g[i].app;
        addPcTelemetry(t, ctrl->inner());
        results.push_back(std::move(result));
    }
    t.wallNs = nowNs() - t0;
    for (std::size_t i = 0; i < g.size(); ++i) {
        const sim::RunResult &r = results[i];
        t.epochs += static_cast<double>(r.epochs);
        t.liveInstructions += static_cast<double>(r.instructions);
        t.liveCuCycles += cuCycles(r, w.opts.cus);
        std::string why = cellProblem(true, "", r);
        if (why.empty())
            why = mismatch(sweep.reference[i], r);
        tally.record("traced " + label(g[i]), why);
    }
}

std::uintmax_t
directoryBytes(const fs::path &dir, const std::string &extension,
               std::size_t &files)
{
    std::uintmax_t bytes = 0;
    files = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        if (e.is_regular_file() && e.path().extension() == extension) {
            bytes += e.file_size();
            ++files;
        }
    }
    return bytes;
}

void
tracedReplayPass(const Workload &w, const AppMap &apps, const Sweep &sweep,
                 const fs::path &library_dir, const fs::path &work,
                 Traced &t, FailTally &tally)
{
    const std::vector<GridCell> g = grid(w);
    const trace::TraceLibrary library(library_dir.string());
    const fs::path store_dir = work / "store-traced";
    fs::remove_all(store_dir);
    const store::ResultStore store(store_dir.string());
    fatalIf(!store.ok(), "perfbench: " + store.error());
    std::map<std::string, std::unique_ptr<trace::TraceData>> decoded;
    std::vector<std::string> problems(g.size());
    std::vector<sim::RunResult> replayed(g.size());
    std::vector<sim::RunResult> resumed(g.size());

    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < g.size(); ++i) {
        obs::RunContext ctx(label(g[i]));
        const obs::ScopedContext scope(ctx);
        t.spans.setCell(static_cast<std::uint32_t>(i));
        const ScopedSpan cell_span(t.spans, SpanKind::Cell);
        trace::TraceLibrary::GetResult got;
        {
            const ScopedSpan span(t.spans, SpanKind::TraceGet);
            got = library.get(streamKey(w.opts, g[i].app));
        }
        if (got.status != trace::TraceLibrary::GetStatus::Hit) {
            ++t.liveFallbacks;
            problems[i] = "trace library miss";
            continue;
        }
        ++t.traceHits;
        std::unique_ptr<trace::TraceData> &data = decoded[g[i].app];
        if (data == nullptr) {
            const ScopedSpan span(t.spans, SpanKind::TraceDecode);
            trace::TraceReadResult read = trace::readTraceFile(got.tracePath);
            if (read.ok()) {
                t.framesDecoded +=
                    static_cast<double>(read.trace->frames.size());
                data = std::make_unique<trace::TraceData>(
                    std::move(*read.trace));
            }
        }
        if (data == nullptr) {
            problems[i] = "trace decode failed";
            continue;
        }
        const sim::RunConfig cfg = cellConfig(w.opts, g[i]);
        std::unique_ptr<TimedController> ctrl =
            buildController(t, g[i], cfg, apps);
        replayed[i] = tracedReplay(*data, *ctrl, t.spans, problems[i]);
        replayed[i].workload = g[i].app;
        addPcTelemetry(t, ctrl->inner());
        // SweepRunner checkpoints the result with the cell's metrics
        // shard; so does this pass, so entries weigh the same.
        store::StoredCell stored;
        stored.run.result = replayed[i];
        stored.run.ok = true;
        stored.metrics = ctx.registry.snapshot();
        const ScopedSpan span(t.spans, SpanKind::StorePut);
        const std::string err =
            store.put(storeKey(w.opts, g[i]), store::encodeStoredCell(stored));
        if (problems[i].empty())
            problems[i] = err;
    }
    for (std::size_t i = 0; i < g.size(); ++i) {
        t.spans.setCell(static_cast<std::uint32_t>(g.size() + i));
        const ScopedSpan cell_span(t.spans, SpanKind::Cell);
        const ScopedSpan span(t.spans, SpanKind::StoreGet);
        store::ResultStore::GetResult got =
            store.get(storeKey(w.opts, g[i]));
        if (got.status == store::ResultStore::GetStatus::Miss) {
            ++t.storeMisses;
            continue;
        }
        if (got.status == store::ResultStore::GetStatus::Corrupt) {
            ++t.storeCorrupt;
            continue;
        }
        store::StoredCell stored;
        std::string err;
        if (store::decodeStoredCell(got.payload, stored, err)) {
            ++t.storeHits;
            resumed[i] = std::move(stored.run.result);
        } else {
            ++t.storeCorrupt;
        }
    }
    t.wallNs = nowNs() - t0;

    for (std::size_t i = 0; i < g.size(); ++i) {
        t.epochs += static_cast<double>(replayed[i].epochs);
        t.replayEpochs += static_cast<double>(replayed[i].epochs);
        std::string why = problems[i];
        if (why.empty())
            why = cellProblem(true, "", replayed[i]);
        if (why.empty())
            why = mismatch(sweep.reference[i], replayed[i]);
        tally.record("traced replay " + label(g[i]), why);
        why = mismatch(sweep.resumed[i], resumed[i]);
        tally.record("traced resume " + label(g[i]), why);
    }
    std::size_t files = 0;
    t.libraryBytes =
        static_cast<double>(directoryBytes(library_dir, ".pctrace", files));
    t.quarantined = library.quarantinedCount();
    const double store_bytes =
        static_cast<double>(directoryBytes(store_dir, ".pcres", files));
    t.storeBytesPerEntry =
        files > 0 ? store_bytes / static_cast<double>(files) : 0.0;
    fs::remove_all(store_dir);
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

void
printResult(bool correct, const FailTally &tally,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted()
       << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        os << (i == 0 ? "" : ", ") << '"' << metrics[i].name
           << "\": {\"value\": " << v << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

std::string
utcNow()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

void
printMeta(const Args &args)
{
    std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"commit\": \"%s\", \"date\": \"%s\"}\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                args.commit.c_str(), utcNow().c_str());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<Metric>
layerMetrics(const Workload &w, const Traced &t, double untraced_pass_ns,
             double build_ns)
{
    const std::vector<Span> &spans = t.spans.spans();
    const std::vector<std::int64_t> self = selfTimes(spans);
    const std::vector<GridCell> g = grid(w);

    std::map<std::string, double> layer_self;
    std::map<SpanKind, std::vector<double>> durations;
    std::map<std::string, std::vector<double>> decide_by_base;
    double cell_total = 0.0;
    double cell_self = 0.0;
    double probe = 0.0;
    for (std::size_t i = t.timedBegin; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const auto dur = static_cast<double>(s.duration());
        durations[s.kind].push_back(dur);
        if (s.kind == SpanKind::OracleProbe) {
            probe += dur;
        } else if (s.kind == SpanKind::Cell) {
            cell_total += dur;
            cell_self += static_cast<double>(self[i]);
        } else {
            layer_self[spanLayer(s.kind)] += static_cast<double>(self[i]);
        }
        if (s.kind == SpanKind::Decide) {
            decide_by_base[dvfs::splitDesign(g[s.cell % g.size()].design)
                               .base]
                .push_back(dur);
        }
    }
    std::vector<double> encode;
    std::vector<double> publish;
    for (std::size_t i = 0; i < t.timedBegin; ++i) {
        if (spans[i].kind == SpanKind::TraceEncode)
            encode.push_back(static_cast<double>(spans[i].duration()));
        if (spans[i].kind == SpanKind::TracePublish)
            publish.push_back(static_cast<double>(spans[i].duration()));
    }
    double trace_replay_self = 0.0;
    for (std::size_t i = t.timedBegin; i < spans.size(); ++i) {
        if (spans[i].kind == SpanKind::TraceReplay)
            trace_replay_self += static_cast<double>(self[i]);
    }

    // Probes are not the program's work: they leave the wall and the
    // cells they sit in, so the shares below still sum to one.
    const double wall = static_cast<double>(t.wallNs) - probe;
    cell_total -= probe;
    const auto share = [&](const std::string &layer) {
        return wall > 0.0 ? layer_self[layer] / wall : 0.0;
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const auto sum = [](const std::vector<double> &v) {
        double total = 0.0;
        for (const double x : v)
            total += x;
        return total;
    };
    const auto samples = [&](SpanKind kind) {
        const auto it = durations.find(kind);
        return it == durations.end() ? std::vector<double>{} : it->second;
    };

    std::vector<double> sample_ns = samples(SpanKind::OracleSweep);
    for (double &x : sample_ns)
        x /= static_cast<double>(power::VfTable::paperTable().numStates());
    const std::vector<double> probes = samples(SpanKind::OracleProbe);
    std::vector<double> put_us = samples(SpanKind::StorePut);
    std::vector<double> get_us = samples(SpanKind::StoreGet);
    for (double &x : put_us)
        x /= 1e3;
    for (double &x : get_us)
        x /= 1e3;

    const Tail gpu_epoch = summarize(samples(SpanKind::GpuEpoch), 99.0);
    const Tail oracle_sample = summarize(sample_ns, 99.0);
    const Tail oracle_restore = summarize(probes, 99.0);
    const Tail decide = summarize(samples(SpanKind::Decide), 99.0);
    const Tail put = summarize(put_us, 95.0);
    const Tail get = summarize(get_us, 95.0);
    const double gpu_self = layer_self["gpu"];
    const double oracle_self = layer_self["oracle"];
    const double l1 = static_cast<double>(t.gpu.l1Hits + t.gpu.l1Misses);
    const double l2 = static_cast<double>(t.gpu.l2Hits + t.gpu.l2Misses);

    std::printf("timings (median / tail, sample count):\n");
    const auto show = [](const char *name, const Tail &tail, double scale,
                         const char *unit) {
        std::printf("  %-22s p50 %.6g %s, p%g %.6g %s (n=%zu)\n", name,
                    tail.p50 / scale, unit, tail.tailPct,
                    tail.tail / scale, unit, tail.n);
    };
    show("gpu.epoch", gpu_epoch, 1.0, "ns");
    show("oracle.sample", oracle_sample, 1.0, "ns");
    show("oracle.restore", oracle_restore, 1.0, "ns");
    show("dvfs.decide", decide, 1.0, "ns");
    show("store.put", put, 1.0, "us");
    show("store.get", get, 1.0, "us");

    std::vector<Metric> m = {
        {"workloads.build_ms", build_ns / 1e6, "ms"},
        {"gpu.self_share", share("gpu"), "ratio"},
        {"gpu.epoch_ns_p50", gpu_epoch.p50, "ns"},
        {"gpu.epoch_ns_p99", gpu_epoch.tail, "ns"},
        {"gpu.ns_per_kinstr", ratio(gpu_self, t.liveInstructions / 1e3),
         "ns"},
        {"gpu.cu_mcycles_per_s",
         ratio(t.liveCuCycles / 1e6, gpu_self / 1e9), "Mcu-cycles/s"},
        {"gpu.epochs", static_cast<double>(t.gpu.epochs), "count"},
        {"gpu.kinstr", t.liveInstructions / 1e3, "count"},
        {"gpu.ipc", ratio(t.liveInstructions, t.liveCuCycles),
         "instr/cycle"},
        {"memory.accesses", l1, "count"},
        {"memory.l1_miss_ratio",
         ratio(static_cast<double>(t.gpu.l1Misses), l1), "ratio"},
        {"memory.l2_miss_ratio",
         ratio(static_cast<double>(t.gpu.l2Misses), l2), "ratio"},
        {"memory.load_stall_frac",
         ratio(static_cast<double>(t.gpu.loadStall),
               static_cast<double>(t.gpu.cuTime)),
         "ratio"},
        {"oracle.self_share", share("oracle"), "ratio"},
        {"oracle.sample_ns_p50", oracle_sample.p50, "ns"},
        {"oracle.sample_ns_p99", oracle_sample.tail, "ns"},
        {"oracle.restore_ns_p50", oracle_restore.p50, "ns"},
        {"oracle.restore_ns_p99", oracle_restore.tail, "ns"},
        {"oracle.restore_share",
         ratio(ratio(sum(probes), static_cast<double>(probes.size())) *
                   static_cast<double>(t.gpu.samples),
               oracle_self),
         "ratio"},
        {"oracle.sweeps", static_cast<double>(t.gpu.sweeps), "count"},
        {"oracle.samples", static_cast<double>(t.gpu.samples), "count"},
        {"dvfs.self_share", share("dvfs"), "ratio"},
        {"dvfs.decide_ns_p50", decide.p50, "ns"},
        {"dvfs.decide_ns_p99", decide.tail, "ns"},
    };
    for (const char *base : {"STALL", "LEAD", "CRIT", "CRISP", "PCSTALL",
                             "ACCPC", "ORACLE", "GPHT", "STATIC", "REGR",
                             "DSO", "WANGCHU"}) {
        const auto it = decide_by_base.find(base);
        m.push_back({std::string("dvfs.decide_ns_p50.") + base,
                     it == decide_by_base.end()
                         ? 0.0 : percentile(it->second, 50.0),
                     "ns"});
    }
    const std::vector<Metric> rest = {
        {"dvfs.decides", static_cast<double>(decide.n), "count"},
        {"predict.lookups", static_cast<double>(t.pcLookups), "count"},
        {"predict.hit_ratio",
         ratio(static_cast<double>(t.pcHits),
               static_cast<double>(t.pcLookups)),
         "ratio"},
        {"predict.alias_hit_ratio",
         ratio(static_cast<double>(t.pcAliasHits),
               static_cast<double>(t.pcHits)),
         "ratio"},
        {"sim.self_share", share("sim"), "ratio"},
        {"sim.ledger_ns_per_epoch", ratio(layer_self["sim"], t.epochs),
         "ns"},
        {"trace.self_share", share("trace"), "ratio"},
        {"trace.decode_ns_per_frame",
         ratio(sum(samples(SpanKind::TraceDecode)), t.framesDecoded), "ns"},
        {"trace.replay_ns_per_epoch",
         ratio(trace_replay_self, t.replayEpochs), "ns"},
        {"trace.encode_ns_per_frame", ratio(sum(encode), t.captureFrames),
         "ns"},
        {"trace.publish_ms_p50", percentile(publish, 50.0) / 1e6, "ms"},
        {"trace.bytes_per_frame", ratio(t.libraryBytes, t.captureFrames),
         "B"},
        {"trace.library_mb", t.libraryBytes / 1e6, "MB"},
        {"trace.hits", static_cast<double>(t.traceHits), "count"},
        {"trace.live_fallbacks", static_cast<double>(t.liveFallbacks),
         "count"},
        {"trace.quarantined", static_cast<double>(t.quarantined), "count"},
        {"store.self_share", share("store"), "ratio"},
        {"store.put_us_p50", put.p50, "us"},
        {"store.put_us_p95", put.tail, "us"},
        {"store.get_us_p50", get.p50, "us"},
        {"store.get_us_p95", get.tail, "us"},
        {"store.bytes_per_entry", t.storeBytesPerEntry, "B"},
        {"store.hits", static_cast<double>(t.storeHits), "count"},
        {"store.misses", static_cast<double>(t.storeMisses), "count"},
        {"store.corrupt", static_cast<double>(t.storeCorrupt), "count"},
        {"bench.overhead_share", ratio(wall - cell_total, wall), "ratio"},
        {"unattributed_share", ratio(cell_self, wall), "ratio"},
        {"tracing_overhead", ratio(wall, untraced_pass_ns) - 1.0, "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

int
run(const Args &args)
{
    const std::int64_t main_ns = nowNs();
    const Workload w = makeWorkload(args.workload, args.seed);
    const fs::path work = args.workDir;
    fs::remove_all(work);
    fs::create_directories(work);
    printMeta(args);

    FailTally tally;
    const Setup setup = runSetup(w, work);
    const double launch_s =
        args.launchNs >= 0 ? seconds(main_ns - args.launchNs) : 0.0;
    const double setup_s = launch_s + median(setup.repSeconds);

    Sweep sweep = w.replay
        ? runReplaySweep(w, setup, work, args.seconds, tally)
        : runLiveSweep(w, setup, args.seconds, tally);
    const double rss_mb = peakRssMb();
    // Rates are medians over passes: one pass stalled by a shared
    // disk or CPU moves them less than a ratio of totals would.
    std::vector<double> cells_rate, epochs_rate, instr_rate, cycles_rate;
    double timed_s = 0.0;
    std::uint64_t cells = 0;
    for (std::size_t i = 0; i < sweep.passNs.size(); ++i) {
        const double pass_s = seconds(sweep.passNs[i]);
        const Work &pw = sweep.passWork[i];
        timed_s += pass_s;
        cells += pw.cells;
        cells_rate.push_back(static_cast<double>(pw.cells) / pass_s);
        epochs_rate.push_back(pw.epochs / pass_s);
        instr_rate.push_back(pw.instructions / 1e6 / pass_s);
        cycles_rate.push_back(pw.cuCycles / 1e6 / pass_s);
    }

    Digest digest;
    double epochs = 0.0;
    double instructions = 0.0;
    for (const sim::RunResult &r : sweep.reference) {
        digest.add(r);
        epochs += static_cast<double>(r.epochs);
        instructions += static_cast<double>(r.instructions);
    }
    const std::vector<Metric> e2e = {
        {"setup_s", setup_s, "s"},
        {"cells_per_s", median(cells_rate), "cells/s"},
        {"epochs_per_s", median(epochs_rate), "epochs/s"},
        {"sim_minstr_per_s", median(instr_rate), "Minstr/s"},
        {"sim_cu_mcycles_per_s", median(cycles_rate), "Mcu-cycles/s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    std::printf("end-to-end (%zu pass(es), %.3f s timed, %zu cells):\n",
                sweep.passNs.size(), timed_s,
                static_cast<std::size_t>(cells));
    std::printf("  pass seconds:");
    for (const std::int64_t ns : sweep.passNs)
        std::printf(" %.3f", seconds(ns));
    std::printf("\n");
    printMetrics(e2e);
    std::printf("  %-34s %.6g failed/attempted (%llu/%llu cells)\n",
                "fail_ratio", tally.ratio(),
                static_cast<unsigned long long>(tally.failed()),
                static_cast<unsigned long long>(tally.attempted()));
    std::printf("  set-up: launch %.4f s + median of %d set-ups %.4f s\n",
                launch_s, w.setupReps, median(setup.repSeconds));
    std::printf("digest %s (grid of %zu cells: %.0f epochs, %.0f "
                "instructions)\n",
                digest.hex().c_str(), sweep.reference.size(), epochs,
                instructions);

    std::vector<Metric> reported = e2e;
    if (args.trace) {
        // The untraced pass the traced one is compared against. The
        // traced driver samples the oracle serially, so a workload with
        // in-cell oracle threads gets a serial untraced pass too; its
        // bit-identity with the threaded pass is the in-cell parallel
        // contract.
        double untraced_pass_ns = median(std::vector<double>(
            sweep.passNs.begin(), sweep.passNs.end()));
        if (w.opts.oracleThreads > 1) {
            Workload serial = w;
            serial.opts.oracleThreads = 1;
            const Sweep one =
                runLiveSweep(serial, setup, 0.0, tally, &sweep.reference);
            untraced_pass_ns = static_cast<double>(one.passNs.front());
        }
        Traced t;
        const std::int64_t build0 = nowNs();
        const AppMap apps = tracedBuild(w, t);
        const double build_ns = static_cast<double>(nowNs() - build0);
        if (w.replay) {
            const fs::path library =
                tracedCapture(w, apps, setup, work, t, tally);
            t.timedBegin = t.spans.spans().size();
            tracedReplayPass(w, apps, sweep, library, work, t, tally);
        } else {
            t.timedBegin = t.spans.spans().size();
            tracedLivePass(w, apps, sweep, t, tally);
        }
        reported = layerMetrics(w, t, untraced_pass_ns, build_ns);
        std::printf("per-layer (traced pass %.3f s, %zu spans):\n",
                    seconds(t.wallNs), t.spans.spans().size());
        printMetrics(reported);
        if (!args.spansOut.empty() && !t.spans.write(args.spansOut))
            warn("perfbench: cannot write spans to " + args.spansOut);
    }

    for (const std::string &f : tally.failures())
        std::printf("FAILED %s\n", f.c_str());
    fs::remove_all(work);
    printResult(tally.failed() == 0, tally, reported);
    return 0;
}

} // namespace
} // namespace pcstall::perfbench

int
main(int argc, char **argv)
{
    try {
        return pcstall::perfbench::run(
            pcstall::perfbench::parseArgs(argc, argv));
    } catch (const pcstall::FatalError &) {
        // fatal() already printed the diagnostic.
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
