#include "harness.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "core/pcstall_controller.hh"
#include "store/atomic_file.hh"
#include "dvfs/hierarchical.hh"
#include "models/reactive_controller.hh"
#include "obs/context.hh"
#include "obs/export.hh"
#include "oracle/oracle_controllers.hh"
#include "sim/timeline_recorder.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "trace/snapshot.hh"
#include "zoo/registry.hh"

namespace pcstall::bench
{

namespace
{
std::atomic<std::uint64_t> sweepFailures{0};

/** Observability output configuration (configureObservability). */
struct ObsConfig
{
    std::mutex mutex;
    std::string metricsOut;
    std::string timelineOut;
    bool verbose = false;
    bool written = false;
};

/** Buffered --csv-out artifact: emit() appends here, and the buffer
 *  is published with one atomic rename at process exit. */
struct CsvArtifact
{
    std::mutex mutex;
    std::string path;
    std::string body;
    bool written = false;
};

CsvArtifact &
csvArtifact()
{
    static CsvArtifact csv;
    return csv;
}

ObsConfig &
obsConfig()
{
    static ObsConfig cfg;
    return cfg;
}
} // namespace

void
noteSweepFailure()
{
    sweepFailures.fetch_add(1, std::memory_order_relaxed);
    obs::reg().counter("sweep.failures").add(1);
}

std::uint64_t
sweepFailureCount()
{
    return sweepFailures.load(std::memory_order_relaxed);
}

void
configureObservability(const BenchOptions &opts)
{
    {
        ObsConfig &cfg = obsConfig();
        const std::lock_guard<std::mutex> lock(cfg.mutex);
        cfg.metricsOut = opts.metricsOut;
        cfg.timelineOut = opts.timelineOut;
        cfg.verbose = opts.verbose;
        cfg.written = false;
    }
    {
        CsvArtifact &csv = csvArtifact();
        const std::lock_guard<std::mutex> lock(csv.mutex);
        csv.path = opts.csvOut;
        csv.body.clear();
        csv.written = false;
    }
    // --verbose implies metrics: the self-profile is computed from the
    // Timing-kind profile.* counters.
    obs::setMetricsEnabled(!opts.metricsOut.empty() ||
                           !opts.timelineOut.empty() || opts.verbose);
    obs::setTimelineEnabled(!opts.timelineOut.empty());
}

namespace
{

void
printSelfProfile(const obs::MetricsSnapshot &snap)
{
    static const std::pair<const char *, const char *> phases[] = {
        {"profile.simulate_ns", "simulate"},
        {"profile.predict_ns", "predict"},
        {"profile.oracle_ns", "oracle"},
        {"profile.encode_ns", "encode"},
    };
    double total = 0.0;
    for (const auto &[name, label] : phases) {
        const auto it = snap.counters.find(name);
        if (it != snap.counters.end())
            total += static_cast<double>(it->second);
    }
    if (total <= 0.0) {
        inform("self-profile: no instrumented phases ran");
        return;
    }
    std::string line = "self-profile:";
    for (const auto &[name, label] : phases) {
        const auto it = snap.counters.find(name);
        const double ns = it != snap.counters.end()
            ? static_cast<double>(it->second) : 0.0;
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s %.1f%% (%.1f ms)",
                      label, 100.0 * ns / total, ns / 1e6);
        line += buf;
    }
    inform(line);
}

} // namespace

void
writeObservabilityOutputs()
{
    std::string metrics_out;
    std::string timeline_out;
    bool verbose = false;
    {
        ObsConfig &cfg = obsConfig();
        const std::lock_guard<std::mutex> lock(cfg.mutex);
        if (cfg.written)
            return;
        cfg.written = true;
        metrics_out = cfg.metricsOut;
        timeline_out = cfg.timelineOut;
        verbose = cfg.verbose;
    }
    if (metrics_out.empty() && timeline_out.empty() && !verbose)
        return;

    // Both exports render into memory and publish with one atomic
    // rename (store/atomic_file.hh): a crash mid-flush leaves either
    // the previous complete file or none, never a truncated document.
    const obs::MetricsSnapshot snap = obs::collectedSnapshot();
    if (!metrics_out.empty()) {
        std::ostringstream os;
        const std::size_t dot = metrics_out.find_last_of('.');
        const std::string ext =
            dot == std::string::npos ? "" : metrics_out.substr(dot);
        if (ext == ".prom" || ext == ".txt")
            obs::writeMetricsPrometheus(os, snap);
        else
            obs::writeMetricsJson(os, snap);
        const std::string err =
            store::writeFileAtomic(metrics_out, os.str());
        if (!err.empty())
            warn("--metrics-out: " + err);
        else
            inform("wrote metrics snapshot to " + metrics_out);
    }
    if (!timeline_out.empty()) {
        std::ostringstream os;
        obs::writeChromeTrace(os, obs::collectedTimelines());
        const std::string err =
            store::writeFileAtomic(timeline_out, os.str());
        if (!err.empty()) {
            warn("--timeline-out: " + err);
        } else {
            inform("wrote timeline to " + timeline_out +
                   " (open in https://ui.perfetto.dev)");
        }
    }
    if (verbose)
        printSelfProfile(snap);
}

void
flushHarnessArtifacts()
{
    writeObservabilityOutputs();
    std::string path;
    std::string body;
    bool flush = false;
    {
        CsvArtifact &csv = csvArtifact();
        const std::lock_guard<std::mutex> lock(csv.mutex);
        if (!csv.path.empty() && !csv.written) {
            csv.written = true;
            path = csv.path;
            body = csv.body;
            flush = true;
        }
    }
    if (flush) {
        const std::string err = store::writeFileAtomic(path, body);
        if (!err.empty())
            warn("--csv-out: " + err);
        else
            inform("wrote CSV tables to " + path);
    }
    // A FatalError that unwound through a streaming writer can leave
    // its staged temp file registered; drop the leftovers here so
    // repeated degraded runs never accumulate .tmp litter.
    store::cleanupTempFiles();
}

namespace
{

/** --list-controllers: print the registry as an aligned table. */
void
printControllerList()
{
    const std::vector<dvfs::ControllerInfo> entries =
        dvfs::ControllerRegistry::instance().entries();
    std::size_t name_w = 4;
    for (const dvfs::ControllerInfo &e : entries)
        name_w = std::max(name_w, e.name.size());
    std::ostringstream out;
    out << "registered controllers (--controllers a,b; design strings "
           "accept a :k=v,k=v config suffix):\n";
    for (const dvfs::ControllerInfo &e : entries) {
        out << "  " << e.name
            << std::string(name_w - e.name.size() + 2, ' ')
            << (e.paperDesign ? "[paper] " : "        ") << e.summary;
        if (!e.configHelp.empty())
            out << " (config: " << e.configHelp << ")";
        if (e.needsConfig)
            out << " [config required]";
        out << '\n';
    }
    std::fputs(out.str().c_str(), stdout);
}

} // namespace

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    CliOptions cli(argc, argv);
    BenchOptions opts;
    opts.cus = static_cast<std::uint32_t>(cli.getInt("cus", 8));
    opts.scale = cli.getDouble("scale", 1.0);
    opts.epochLen = static_cast<Tick>(
        cli.getDouble("epoch-us", 1.0) * static_cast<double>(tickUs));
    opts.cusPerDomain =
        static_cast<std::uint32_t>(cli.getInt("domain-cus", 1));
    opts.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
    opts.csv = cli.has("csv");
    const std::int64_t threads = cli.getInt("threads", 0);
    if (threads < 0) {
        warn("--threads must be >= 0 (using hardware concurrency)");
        opts.threads = 0;
    } else {
        opts.threads = static_cast<unsigned>(threads);
    }

    // Fault-injection flags: any nonzero magnitude enables its class.
    opts.faults.seed = static_cast<std::uint64_t>(
        cli.getInt("fault-seed", static_cast<std::int64_t>(
            opts.faults.seed)));
    opts.faults.telemetry.sigma = cli.getDouble("noise-sigma", 0.0);
    opts.faults.telemetry.dropoutProb =
        cli.getDouble("noise-dropout", 0.0);
    opts.faults.telemetry.enabled = opts.faults.telemetry.sigma > 0.0 ||
        opts.faults.telemetry.dropoutProb > 0.0;
    opts.faults.dvfs.transitionFailProb =
        cli.getDouble("trans-fail", 0.0);
    opts.faults.dvfs.extraSwitchLatency = static_cast<Tick>(
        cli.getDouble("trans-extra-ns", 0.0) * 1000.0);
    opts.faults.dvfs.granularity = static_cast<Freq>(
        cli.getInt("freq-quant-mhz", 0)) * freqMHz;
    opts.faults.dvfs.enabled =
        opts.faults.dvfs.transitionFailProb > 0.0 ||
        opts.faults.dvfs.extraSwitchLatency > 0 ||
        opts.faults.dvfs.granularity > 0;
    opts.faults.storage.upsetsPerEpoch = cli.getDouble("bitflips", 0.0);
    opts.faults.storage.enabled =
        opts.faults.storage.upsetsPerEpoch > 0.0;
    opts.watchdog = cli.has("watchdog");
    opts.ecc = cli.has("ecc");

    const std::int64_t oracle_threads = cli.getInt("oracle-threads", 1);
    if (oracle_threads < 1) {
        warn("--oracle-threads must be >= 1 (using 1)");
        opts.oracleThreads = 1;
    } else {
        opts.oracleThreads = static_cast<unsigned>(oracle_threads);
    }

    opts.traceOut = cli.get("trace-out", "");
    opts.replayTrace = cli.get("replay", "");
    opts.pcSnapshotOut = cli.get("pc-snapshot-out", "");
    opts.pcSnapshotIn = cli.get("pc-snapshot-in", "");
    opts.provenanceOut = cli.get("provenance-out", "");
    opts.traceCacheDir = cli.get("trace-cache", "");
    opts.traceWhatIf = cli.has("trace-what-if");
    if (opts.traceWhatIf && opts.traceCacheDir.empty()) {
        cli.noteError("--trace-what-if: requires --trace-cache DIR "
                      "(no library to share streams through)");
        opts.traceWhatIf = false;
    }
    opts.progress = cli.has("progress");

    if (argc > 0 && argv != nullptr && argv[0] != nullptr) {
        const std::string argv0 = argv[0];
        const std::size_t slash = argv0.find_last_of('/');
        const std::string base = slash == std::string::npos
            ? argv0 : argv0.substr(slash + 1);
        if (!base.empty())
            opts.harnessId = base;
    }

    // Farm flags (docs/sweep_farm.md). All validation is recoverable:
    // a malformed value is reported through cli.errors() and the flag
    // reverts to its default, never aborting the run.
    opts.storeDir = cli.get("store", "");
    opts.resume = cli.has("resume");
    if (opts.resume && opts.storeDir.empty()) {
        cli.noteError("--resume: requires --store DIR "
                      "(nothing to resume from)");
        opts.resume = false;
    }
    const std::string shard = cli.get("shard", "");
    if (!shard.empty()) {
        unsigned index = 0;
        unsigned count = 0;
        char extra = '\0';
        const int got = std::sscanf(shard.c_str(), "%u/%u%c",
                                    &index, &count, &extra);
        if (got != 2) {
            cli.noteError("--shard " + shard +
                          ": expected INDEX/COUNT (e.g. 0/4)");
        } else if (count == 0) {
            cli.noteError("--shard " + shard +
                          ": count must be >= 1");
        } else if (index >= count) {
            cli.noteError("--shard " + shard +
                          ": index must be < count");
        } else {
            opts.shardIndex = index;
            opts.shardCount = count;
        }
    }
    if (opts.traceWhatIf && opts.shardCount > 1) {
        // The shared-stream owner of a workload may live on another
        // shard, so a sharded what-if sweep could never resolve its
        // waiters deterministically.
        cli.noteError("--trace-what-if: incompatible with --shard "
                      "(the stream owner may belong to another "
                      "worker)");
        opts.traceWhatIf = false;
    }
    const double cell_timeout = cli.getDouble("cell-timeout", 0.0);
    if (cell_timeout < 0.0) {
        cli.noteError("--cell-timeout " +
                      std::to_string(cell_timeout) +
                      ": must be >= 0 seconds");
    } else {
        opts.cellTimeoutSec = cell_timeout;
    }
    const std::int64_t cell_retries = cli.getInt("cell-retries", 2);
    if (cell_retries < 0) {
        cli.noteError("--cell-retries " +
                      std::to_string(cell_retries) +
                      ": must be >= 0");
    } else {
        opts.cellRetries = static_cast<unsigned>(cell_retries);
    }

    opts.metricsOut = cli.get("metrics-out", "");
    opts.timelineOut = cli.get("timeline-out", "");
    opts.csvOut = cli.get("csv-out", "");
    opts.verbose = cli.has("verbose");
    const std::string log_level = cli.get("log-level", "");
    if (!log_level.empty() && !setLogLevelByName(log_level)) {
        warn("--log-level must be one of debug|info|warn|error "
             "(got '" + log_level + "')");
    }
    configureObservability(opts);

    const std::string list = cli.get("workloads", "");
    if (!list.empty()) {
        std::stringstream ss(list);
        std::string item;
        while (std::getline(ss, item, ',')) {
            const bool is_path =
                item.find('/') != std::string::npos ||
                item.find('.') != std::string::npos;
            if (!is_path && !workloads::isWorkload(item)) {
                warn("ignoring unknown workload '" + item + "'");
                continue;
            }
            opts.workloads.push_back(item);
        }
    }

    if (cli.has("list-controllers")) {
        printControllerList();
        throw CleanExit{};
    }
    const std::string controller_list = cli.get("controllers", "");
    if (!controller_list.empty()) {
        const dvfs::ControllerRegistry &registry =
            dvfs::ControllerRegistry::instance();
        std::stringstream ss(controller_list);
        std::string item;
        while (std::getline(ss, item, ',')) {
            if (item.empty())
                continue;
            const dvfs::ParsedDesign parsed = dvfs::splitDesign(item);
            if (!registry.has(parsed.base)) {
                warn("--controllers: unknown controller '" + item +
                     "'; registered: " + registry.knownNames() +
                     " (try --list-controllers)");
                continue;
            }
            opts.controllers.push_back(item);
        }
        // A typo'd single name must not silently fall back to the
        // harness's full default controller grid.
        fatalIf(opts.controllers.empty(),
                "--controllers: no known controller selected");
    }

    for (const std::string &err : cli.errors())
        warn("bad option " + err + " (using the default)");
    return opts;
}

workloads::WorkloadParams
BenchOptions::workloadParams() const
{
    workloads::WorkloadParams params;
    params.numCus = cus;
    params.scale = scale;
    params.seed = seed;
    return params;
}

sim::RunConfig
BenchOptions::runConfig() const
{
    sim::RunConfig cfg;
    cfg.gpu.numCus = cus;
    cfg.gpu.seed = seed;
    cfg.epochLen = epochLen;
    cfg.cusPerDomain = cusPerDomain;
    cfg.faults = faults;
    cfg.watchdogFallback = watchdog;
    cfg.eccProtectTables = ecc;
    cfg.objective = objective;
    cfg.perfDegradationLimit = perfDegradationLimit;
    cfg.collectTrace = collectTrace;
    cfg.auditRegret = auditRegret || !provenanceOut.empty();
    cfg.oracleThreads = oracleThreads;
    cfg.scaled();
    return cfg;
}

sim::ProfileConfig
BenchOptions::profileConfig() const
{
    sim::ProfileConfig cfg;
    cfg.gpu.numCus = cus;
    cfg.gpu.seed = seed;
    cfg.epochLen = epochLen;
    cfg.cusPerDomain = cusPerDomain;
    cfg.oracleThreads = oracleThreads;
    power::PowerParams ignored;
    sim::scaleToCus(cfg.gpu, ignored, cus);
    return cfg;
}

std::vector<std::string>
BenchOptions::workloadNames() const
{
    if (!workloads.empty())
        return workloads;
    std::vector<std::string> names;
    for (const auto &info : workloads::workloadTable())
        names.push_back(info.name);
    return names;
}

std::vector<std::string>
BenchOptions::sweepWorkloadNames() const
{
    if (!workloads.empty())
        return workloads;
    return {"comd", "hpgmg", "lulesh", "xsbench", "hacc", "quickS",
            "dgemm", "BwdBN"};
}

std::shared_ptr<const isa::Application>
makeApp(const std::string &name, const BenchOptions &opts)
{
    workloads::WorkloadLoadResult loaded =
        workloads::loadWorkload(name, opts.workloadParams());
    if (!loaded.ok()) {
        warn("skipping workload: " + loaded.error);
        return nullptr;
    }
    return std::make_shared<const isa::Application>(
        std::move(*loaded.app));
}

std::unique_ptr<dvfs::DvfsController>
makeController(const std::string &name, const sim::RunConfig &cfg,
               const isa::Application *app)
{
    dvfs::ControllerRegistry::MakeResult made =
        dvfs::ControllerRegistry::instance().make(name, cfg, app);
    fatalIf(!made.ok(), made.error);
    return std::move(made.controller);
}

const std::vector<std::string> &
designNames()
{
    static const std::vector<std::string> names = {
        "STALL", "LEAD", "CRIT", "CRISP", "ACCREAC", "PCSTALL", "ACCPC",
        "ORACLE",
    };
    return names;
}

std::vector<std::string>
BenchOptions::designList(std::vector<std::string> fallback) const
{
    return controllers.empty() ? std::move(fallback) : controllers;
}

namespace
{

/** Filesystem-safe run label ('/' and spaces become '_'). */
std::string
pathLabel(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        if (c == '/' || c == ' ' || c == '+')
            c = '_';
    }
    return out;
}

/** Insert @p suffix before @p path's extension (or append). */
std::string
insertBeforeExtension(const std::string &path,
                      const std::string &suffix)
{
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + suffix;
    }
    return path.substr(0, dot) + suffix + path.substr(dot);
}

/**
 * Expand a --trace-out / --pc-snapshot-out template: "{w}"/"{c}"
 * placeholders, or a "-workload-controller" suffix before the
 * extension when no placeholder is present (so sweep captures do not
 * overwrite each other). A run index > 0 - the Nth repeat of the same
 * (workload, controller) pair within one sweep - adds a further "-rN"
 * suffix so repeats never collide.
 */
std::string
expandRunPath(const std::string &pattern, const std::string &workload,
              const std::string &controller, std::size_t run_index = 0)
{
    std::string path = pattern;
    bool substituted = false;
    for (const auto &[key, value] :
         {std::pair<std::string, std::string>{"{w}", workload},
          {"{c}", controller}}) {
        std::size_t at;
        while ((at = path.find(key)) != std::string::npos) {
            path.replace(at, key.size(), pathLabel(value));
            substituted = true;
        }
    }
    if (!substituted) {
        path = insertBeforeExtension(
            path,
            "-" + pathLabel(workload) + "-" + pathLabel(controller));
    }
    if (run_index > 0) {
        path = insertBeforeExtension(
            path, "-r" + std::to_string(run_index));
    }
    return path;
}

/**
 * Claim an output path in the process-wide registry. The first claim
 * returns @p path unchanged; later claims of the same path (a repeat
 * the caller did not label with a run index) return a "-rN" variant
 * after a warn, so captures never silently overwrite each other.
 * Claims from concurrent sweep cells are serialized by a mutex; cells
 * with pre-assigned run indices never collide here, keeping sweep
 * output names deterministic for any thread count.
 */
std::string
claimOutputPath(const std::string &path)
{
    static std::mutex m;
    static std::map<std::string, std::size_t> claims;
    const std::lock_guard<std::mutex> lock(m);
    std::size_t &count = claims[path];
    ++count;
    if (count == 1)
        return path;
    const std::string unique = insertBeforeExtension(
        path, "-r" + std::to_string(count - 1));
    warnLimited("output-path-collision",
                "output path '" + path + "' already written this "
                "run; using '" + unique + "'");
    // The variant itself could clash with an explicit later claim;
    // registering it keeps even that case collision-free.
    ++claims[unique];
    return unique;
}

/** The PCSTALL controller behind @p controller, if any (possibly
 *  wrapped by a hierarchical power manager). */
core::PcstallController *
pcstallBehind(dvfs::DvfsController &controller)
{
    dvfs::DvfsController *c = &controller;
    if (auto *hier = dynamic_cast<dvfs::HierarchicalPowerManager *>(c))
        c = &hier->innerController();
    return dynamic_cast<core::PcstallController *>(c);
}

/** HierarchicalMeta describing @p controller's wrapper, if any. */
trace::HierarchicalMeta
hierarchicalMetaOf(const dvfs::DvfsController &controller)
{
    trace::HierarchicalMeta meta;
    const auto *hier =
        dynamic_cast<const dvfs::HierarchicalPowerManager *>(
            &controller);
    if (hier != nullptr) {
        meta.enabled = true;
        meta.powerCap = hier->config().powerCap;
        meta.reviewEpochs = hier->config().reviewEpochs;
        meta.widenBelow = hier->config().widenBelow;
    }
    return meta;
}

/**
 * Run the driver live, attaching the timeline recorder (when enabled)
 * alongside an optional extra observer such as trace capture.
 */
sim::RunResult
runWithObservers(sim::ExperimentDriver &driver,
                 std::shared_ptr<const isa::Application> app,
                 dvfs::DvfsController &controller,
                 sim::EpochObserver *extra)
{
    sim::MultiObserver multi;
    multi.add(extra);
    std::optional<sim::TimelineRecorder> recorder;
    if (obs::timelineEnabled()) {
        recorder.emplace(driver.config(),
                         obs::currentContext().timeline);
        multi.add(&*recorder);
    }
    return driver.run(app, controller,
                      multi.empty() ? nullptr : &multi);
}

/** Apply --pc-snapshot-in to @p pcstall (no-op for other designs). */
void
restorePcSnapshotIn(const BenchOptions &opts,
                    core::PcstallController *pcstall)
{
    if (opts.pcSnapshotIn.empty() || pcstall == nullptr)
        return;
    trace::PcSnapshotReadResult snap =
        trace::readPcSnapshotFile(opts.pcSnapshotIn);
    std::string err = snap.error;
    if (snap.ok()) {
        err = trace::restorePcTables(*snap.snapshot,
                                     pcstall->pcTables());
    }
    if (!err.empty())
        warn("--pc-snapshot-in: " + err + " (starting cold)");
}

/**
 * Decoded traces, read once per path: --replay sweeps share one
 * capture across cells, and what-if sweeps replay one library entry
 * under every controller in the grid. The mutex spans the file read,
 * so concurrent first loads of one path cannot race; shared_ptr
 * values keep a decode alive for in-flight replays even when a
 * concurrent quarantine evicts its path.
 */
struct DecodedTraces
{
    std::mutex mutex;
    std::map<std::string, std::shared_ptr<const trace::TraceData>>
        entries;
};

DecodedTraces &
decodedTraces()
{
    static DecodedTraces cache;
    return cache;
}

std::shared_ptr<const trace::TraceData>
loadTrace(const std::string &path, std::string &error)
{
    DecodedTraces &cache = decodedTraces();
    const std::lock_guard<std::mutex> lock(cache.mutex);
    const auto it = cache.entries.find(path);
    if (it != cache.entries.end())
        return it->second;
    trace::TraceReadResult read = trace::readTraceFile(path);
    if (!read.ok()) {
        error = read.error;
        return nullptr;
    }
    auto data = std::make_shared<const trace::TraceData>(
        std::move(*read.trace));
    cache.entries.emplace(path, data);
    return data;
}

/** Forget a decode whose file was quarantined: a later recapture at
 *  the same path must be re-read, never served from the stale memo. */
void
evictTrace(const std::string &path)
{
    DecodedTraces &cache = decodedTraces();
    const std::lock_guard<std::mutex> lock(cache.mutex);
    cache.entries.erase(path);
}

/** Timing-kind cache counter: kept out of the canonical metric
 *  sections, which must stay byte-identical to no-cache runs. */
void
bumpCacheCounter(const char *name)
{
    if (obs::metricsEnabled())
        obs::reg().counter(name, obs::MetricKind::Timing).add(1);
}

/** How a live run with a trace capture went (runCapturing). */
enum class Capture
{
    /** The trace file could not be opened; nothing ran. */
    Unwritable,
    /** The run completed, but writing its capture failed. */
    IoError,
    /** The run completed and its capture is committed. */
    Written,
};

/**
 * Run live while streaming a PCTR capture to @p path, embedding the
 * learned PC table of a PCSTALL controller. The TraceWriter stages
 * through temp + fsync + rename, so @p path only ever holds a whole
 * capture: for the trace library that staging is the atomic
 * publication of the entry.
 */
Capture
runCapturing(sim::ExperimentDriver &driver,
             std::shared_ptr<const isa::Application> app,
             dvfs::DvfsController &controller,
             const std::string &workload, const std::string &path,
             sim::RunResult &result)
{
    trace::TraceWriter writer(
        path, trace::makeTraceMeta(driver.config(), driver.table(),
                                   workload, controller,
                                   hierarchicalMetaOf(controller)));
    if (!writer.ok())
        return Capture::Unwritable;
    trace::TraceCapture capture(writer);
    if (core::PcstallController *pcstall = pcstallBehind(controller)) {
        capture.setSnapshotProvider([pcstall] {
            return trace::snapshotPcTables(pcstall->pcTables());
        });
    }
    result = runWithObservers(driver, std::move(app), controller,
                              &capture);
    return capture.finished() && writer.ok() ? Capture::Written
                                             : Capture::IoError;
}

} // namespace

bool
resolveTraceCache(sim::ExperimentDriver &driver,
                  std::shared_ptr<const isa::Application> app,
                  dvfs::DvfsController *&controller,
                  const BenchOptions &opts,
                  const std::string &workload, TraceCacheContext &cache,
                  obs::ProvenanceLog *prov, sim::RunResult &result)
{
    if (cache.library == nullptr || !cache.library->ok() ||
        !cache.freshController) {
        return false;
    }
    trace::TraceLibrary &lib = *cache.library;
    const trace::LibraryKey &key = cache.key;
    bool capture_on_miss = cache.captureOnMiss;

    const trace::TraceLibrary::GetResult got = lib.get(key);
    if (got.status == trace::TraceLibrary::GetStatus::Hit) {
        std::string decode_err;
        const std::shared_ptr<const trace::TraceData> data =
            loadTrace(got.tracePath, decode_err);
        if (data == nullptr) {
            // Truncated/corrupt entry: quarantined and recaptured,
            // never ingested.
            evictTrace(got.tracePath);
            lib.quarantine(key, decode_err);
            bumpCacheCounter("trace_cache.quarantined");
        } else {
            trace::ReplayDriver replayer(*data);
            trace::ReplayOptions ropts;
            // Exact-tier entries were captured under this very
            // (design, run index, config) cell, so decision
            // verification doubles as staleness detection. Shared
            // (what-if) replays drive foreign controllers over the
            // owner's stream - divergent decisions are the point.
            ropts.verifyDecisions = !key.shared &&
                controller->name() == data->meta.controller;
            ropts.auditRegret = opts.auditRegret || prov != nullptr;
            ropts.provenance = prov;
            ropts.liveMetricProfile = true;
            trace::ReplayOutcome outcome =
                replayer.run(*controller, ropts);
            if (outcome.ok() && outcome.decisionMismatches == 0) {
                debug("trace cache hit: " + key.digest() + " (" +
                      workload + " under " + controller->name() + ")");
                bumpCacheCounter("trace_cache.hits");
                result = outcome.result;
                return true;
            }
            if (!outcome.ok() && key.shared) {
                // The owner's stream cannot drive this controller
                // (e.g. it needs fork sweeps the owner never
                // requested). The entry is fine for other cells:
                // leave it be, run this cell live, and do not clobber
                // the owner's capture.
                warn("trace cache: " + outcome.error +
                     " (simulating this cell live)");
                capture_on_miss = false;
            } else {
                // Stale entry (decision drift, or an upfront replay
                // failure): quarantine and recapture. The replay may
                // have half-driven the controller, so rebuild it cold
                // - and restart its provenance log - before the live
                // run.
                evictTrace(got.tracePath);
                lib.quarantine(
                    key,
                    outcome.ok()
                        ? std::to_string(outcome.decisionMismatches) +
                            " decision mismatch(es); first: " +
                            outcome.firstMismatch
                        : outcome.error);
                bumpCacheCounter("trace_cache.quarantined");
                cache.rebuilt = cache.freshController();
                controller = cache.rebuilt.get();
                restorePcSnapshotIn(opts, pcstallBehind(*controller));
                if (prov != nullptr)
                    *prov = obs::ProvenanceLog{};
            }
        }
    }

    // Miss (or a just-quarantined hit): simulate live, streaming the
    // capture straight to the library entry. The key sidecar follows
    // the committed trace strictly after, so a crash leaves at most an
    // orphan trace (a miss), never a sidecar naming a partial trace.
    bumpCacheCounter("trace_cache.misses");
    if (!capture_on_miss)
        return false;
    const std::string path = lib.entryPath(key);
    switch (runCapturing(driver, app, *controller, workload, path,
                         result)) {
    case Capture::Unwritable:
        warn("trace cache: cannot write '" + path +
             "' (running uncached)");
        return false;
    case Capture::IoError:
        warn("trace cache: I/O error capturing '" + path +
             "' (cell ran live)");
        return true;
    case Capture::Written:
        break;
    }
    const std::string key_err = lib.publishKey(key);
    if (!key_err.empty())
        warn("trace cache: " + key_err);
    debug("trace cache capture: " + key.digest() + " (" + workload +
          " under " + controller->name() + ")");
    bumpCacheCounter("trace_cache.captures");
    return true;
}

void
publishPcTableMetrics(const core::PcstallController &pcstall)
{
    predict::PcSensitivityTable::Telemetry total;
    for (const predict::PcSensitivityTable &table :
         pcstall.pcTables()) {
        const predict::PcSensitivityTable::Telemetry t =
            table.telemetry();
        total.lookups += t.lookups;
        total.hits += t.hits;
        total.updates += t.updates;
        total.evictions += t.evictions;
        total.aliasHits += t.aliasHits;
        total.scrubs += t.scrubs;
    }
    obs::Registry &registry = obs::reg();
    registry.counter("pc_table.lookups").add(total.lookups);
    registry.counter("pc_table.hits").add(total.hits);
    registry.counter("pc_table.updates").add(total.updates);
    registry.counter("pc_table.evictions").add(total.evictions);
    registry.counter("pc_table.alias_hits").add(total.aliasHits);
    registry.counter("pc_table.scrubs").add(total.scrubs);
}

sim::RunResult
runTraced(sim::ExperimentDriver &driver,
          std::shared_ptr<const isa::Application> app,
          dvfs::DvfsController &controller, const BenchOptions &opts,
          const std::string &workload, std::size_t run_index,
          TraceCacheContext *cache)
{
    debug("runTraced: " + workload + " under " + controller.name() +
          (run_index > 0 ? " (run " + std::to_string(run_index) + ")"
                         : ""));
    // A trace-cache heal can swap in a freshly built controller
    // mid-function (cache->rebuilt); everything below goes through
    // these two pointers so post-run bookkeeping follows the swap.
    dvfs::DvfsController *ctrl = &controller;
    core::PcstallController *pcstall = pcstallBehind(*ctrl);
    restorePcSnapshotIn(opts, pcstall);

    // Run: replayed from a trace, captured to a trace, resolved
    // through the trace library, or plain.
    sim::RunResult result;
    bool ran = false;
    obs::ProvenanceLog prov_log;
    obs::ProvenanceLog *prov =
        opts.provenanceOut.empty() ? nullptr : &prov_log;
    driver.setProvenance(prov);
    if (!opts.replayTrace.empty()) {
        // Symmetric with capture: repeat N replays the -rN capture.
        std::string read_err;
        const std::shared_ptr<const trace::TraceData> data = loadTrace(
            expandRunPath(opts.replayTrace, workload, ctrl->name(),
                          run_index),
            read_err);
        if (data == nullptr) {
            warn("--replay: " + read_err);
        } else {
            if (data->meta.workload != workload) {
                warn("--replay: trace was captured on '" +
                     data->meta.workload + "', not '" + workload +
                     "'; replayed metrics describe the recorded run");
            }
            trace::ReplayDriver replayer(*data);
            trace::ReplayOptions ropts;
            ropts.verifyDecisions =
                ctrl->name() == data->meta.controller;
            ropts.auditRegret = opts.auditRegret;
            ropts.provenance = prov;
            trace::ReplayOutcome outcome = replayer.run(*ctrl, ropts);
            if (outcome.ok()) {
                if (ropts.verifyDecisions &&
                    outcome.decisionMismatches > 0) {
                    warn("--replay: " +
                         std::to_string(outcome.decisionMismatches) +
                         " decision mismatch(es); first: " +
                         outcome.firstMismatch);
                }
                result = outcome.result;
                ran = true;
            } else {
                warn("--replay: " + outcome.error +
                     " (falling back to a live run)");
            }
        }
    }
    if (!ran && !opts.traceOut.empty()) {
        const std::string path = claimOutputPath(expandRunPath(
            opts.traceOut, workload, ctrl->name(), run_index));
        const Capture status =
            runCapturing(driver, app, *ctrl, workload, path, result);
        ran = status != Capture::Unwritable;
        if (status == Capture::Unwritable) {
            warn("--trace-out: cannot write '" + path +
                 "' (running untraced)");
        } else if (status == Capture::IoError) {
            warn("--trace-out: I/O error writing '" + path + "'");
        }
    }
    if (!ran && cache != nullptr) {
        ran = resolveTraceCache(driver, app, ctrl, opts, workload,
                                *cache, prov, result);
        // A heal may have swapped in a rebuilt controller.
        pcstall = pcstallBehind(*ctrl);
    }
    if (!ran)
        result = runWithObservers(driver, app, *ctrl, nullptr);
    driver.setProvenance(nullptr);

    if (prov != nullptr) {
        const std::string prov_path = claimOutputPath(expandRunPath(
            opts.provenanceOut, workload, ctrl->name(),
            run_index));
        const std::string perr = store::writeFileAtomic(
            prov_path, obs::encodeProvenance(*prov));
        if (!perr.empty())
            warn("--provenance-out: " + perr);
    }

    if (pcstall != nullptr && obs::metricsEnabled())
        publishPcTableMetrics(*pcstall);

    if (!opts.pcSnapshotOut.empty() && pcstall != nullptr) {
        const std::string snap_path = claimOutputPath(expandRunPath(
            opts.pcSnapshotOut, workload, ctrl->name(),
            run_index));
        if (!trace::writePcSnapshotFile(
                snap_path,
                trace::snapshotPcTables(pcstall->pcTables()))) {
            warn("--pc-snapshot-out: cannot write '" + snap_path + "'");
        }
    }
    return result;
}

void
emit(const BenchOptions &opts, const TableWriter &table)
{
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    CsvArtifact &csv = csvArtifact();
    const std::lock_guard<std::mutex> lock(csv.mutex);
    if (!csv.path.empty()) {
        std::ostringstream os;
        table.printCsv(os);
        csv.body += os.str();
    }
}

void
banner(const std::string &figure, const std::string &what,
       const BenchOptions &opts)
{
    std::printf("=== %s: %s ===\n", figure.c_str(), what.c_str());
    std::printf("config: %u CUs, %.2f us epochs, %u CU(s)/domain, "
                "scale %.2f\n\n",
                opts.cus,
                static_cast<double>(opts.epochLen) /
                    static_cast<double>(tickUs),
                opts.cusPerDomain, opts.scale);
}

} // namespace pcstall::bench
