#include "sweep_runner.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <utility>

#include "common/rng.hh"
#include "gpu/gpu_config.hh"
#include "obs/context.hh"
#include "store/cell_codec.hh"
#include "store/result_store.hh"
#include "trace/format.hh"
#include "trace/sealed.hh"
#include "zoo/registry.hh"

namespace pcstall::bench
{

std::string
simConfigFingerprint(const BenchOptions &opts)
{
    // src/trace decides which RunConfig fields identify a run: the
    // image a capture's META section records. Scale and seed shape
    // the workload build, not the RunConfig, so they follow it, and
    // the model version names the simulator that ran it.
    std::string image = trace::encodeRunConfigImage(trace::makeTraceMeta(
        opts.runConfig(), power::VfTable::paperTable()));
    trace::putDouble(image, opts.scale);
    trace::putFixed64(image, opts.seed);
    trace::putVarint(image, gpu::modelVersion);
    return trace::digest128(image);
}

namespace
{

/** Application builds depend on this subset of the options only. */
std::string
appKey(const std::string &workload, const BenchOptions &opts)
{
    std::ostringstream key;
    key << workload << '|' << opts.cus << '|' << opts.scale << '|'
        << opts.seed;
    return key.str();
}

std::string
cellLabel(const std::string &workload, const std::string &design)
{
    return workload + " x " + design;
}

/** Pseudo-design a shared static-nominal baseline is stored as. */
constexpr const char *baselineDesign = "__static_baseline__";

/**
 * The results-store key of a run: its identity (see identityOf) plus
 * the three bits that change what an entry holds. Entries written
 * without metrics carry an empty shard, and entries written without
 * regret auditing an empty RunResult::regret; neither may satisfy a
 * run that wants them. A run of a what-if group (owner or waiter) may
 * hold an open-loop replay of another controller's stream, which must
 * never satisfy a closed-loop run, nor the reverse.
 */
store::CellKey
storeKeyFor(const trace::LibraryKey &id, bool audit_regret, bool what_if)
{
    store::CellKey key;
    key.fingerprint = id.text();
    key.fingerprint += obs::metricsEnabled() ? "\x1fm1" : "\x1fm0";
    // Split literals: "\x1fa1" would read as one hex escape.
    key.fingerprint += audit_regret ? "\x1f" "a1" : "\x1f" "a0";
    key.fingerprint += what_if ? "\x1fw1" : "\x1fw0";
    return key;
}

/** The identity of the static-nominal baseline shared by every cell
 *  with @p cell's configuration. It always keys exact, and cold: a
 *  static controller ignores PC warm starts, so reuse is maximal. */
trace::LibraryKey
baselineOf(trace::LibraryKey cell)
{
    cell.design = baselineDesign;
    cell.runIndex = 0;
    cell.pcSnapshotIn.clear();
    return cell;
}

/** True when a cell's run cannot be satisfied from the store: it has
 *  side effects (inspect callbacks, trace/snapshot captures) or an
 *  input (replay) the checkpoint does not model. */
bool
storeBypassed(const SweepCell &cell)
{
    return cell.inspect != nullptr || !cell.opts.traceOut.empty() ||
           !cell.opts.pcSnapshotOut.empty() ||
           !cell.opts.replayTrace.empty() ||
           !cell.opts.provenanceOut.empty();
}

/**
 * True when a cell must not route through the trace library: explicit
 * trace I/O flags own the trace lifecycle themselves. Everything else
 * is replay-eligible - a cached replay drives the real controller
 * through the real epochs, so inspect callbacks, PC-snapshot exports
 * and provenance sidecars all come out byte-identical to a live run
 * (docs/replay_studies.md).
 */
bool
cacheBypassed(const SweepCell &cell)
{
    return !cell.opts.traceOut.empty() ||
           !cell.opts.replayTrace.empty();
}

/**
 * The cell of the static-nominal baseline shared by every cell with
 * (@p workload, @p opts): a StaticController at the nominal state,
 * seeded under the design key "STATIC". It writes no run artifacts,
 * and keeps the regret audit --provenance-out implies, so it runs
 * under the same RunConfig as the cells it serves.
 */
SweepCell
baselineCell(const std::string &workload, const BenchOptions &opts)
{
    SweepCell cell;
    cell.workload = workload;
    cell.design = "STATIC";
    cell.opts = opts;
    cell.opts.auditRegret = opts.runConfig().auditRegret;
    cell.opts.traceOut.clear();
    cell.opts.replayTrace.clear();
    cell.opts.pcSnapshotOut.clear();
    cell.opts.provenanceOut.clear();
    cell.factory = [](const sim::RunConfig &cfg)
        -> std::unique_ptr<dvfs::DvfsController> {
        return std::make_unique<dvfs::StaticController>(
            static_cast<std::size_t>(
                power::VfTable::paperTable().indexOf(cfg.nominalFreq)));
    };
    return cell;
}

} // namespace

/**
 * Write-behind publication of one run()'s store entries. A worker
 * hands a finished run to a bounded queue and goes on to its next
 * run, blocking only while the queue is full; each publisher thread
 * encodes an entry and calls ResultStore::put, which keeps its
 * write-temp, fsync, atomic rename and crash-hook lock. close()
 * drains the queue and joins the threads, so every entry is on disk
 * once it returns, and a SIGKILL loses at most the queued entries
 * (a resume recomputes them). Each run() has its own Publisher, so a
 * failed put warns once per run() and is debug-logged after that;
 * nothing thrown on a publisher thread escapes it.
 */
class SweepRunner::Publisher
{
  public:
    Publisher(const store::ResultStore &target, unsigned threads)
        : target(target)
    {
        publishers.reserve(threads);
        try {
            for (unsigned t = 0; t < threads; ++t)
                publishers.emplace_back([this] { drain(); });
        } catch (...) {
            close();
            throw;
        }
    }

    ~Publisher() { close(); }

    Publisher(const Publisher &) = delete;
    Publisher &operator=(const Publisher &) = delete;

    void
    push(const store::CellKey &key, const std::string &label,
         const sim::RunResult &result, const obs::MetricsSnapshot &metrics)
    {
        Entry entry{key, label, {}};
        entry.cell.run.result = result;
        entry.cell.run.ok = true;
        entry.cell.metrics = metrics;
        const std::int64_t t0 = obs::nowNsIfEnabled();
        {
            std::unique_lock<std::mutex> lock(mutex);
            hasRoom.wait(lock, [this] { return queue.size() < depth; });
            queue.push_back(std::move(entry));
        }
        hasWork.notify_one();
        obs::recordSinceNs(obs::reg().histogram("farm.publish_wait_ns",
                                                obs::MetricKind::Timing),
                           t0);
    }

    /** Publish what is queued and join the threads (idempotent). */
    void
    close()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex);
            closed = true;
        }
        hasWork.notify_all();
        for (std::thread &t : publishers) {
            if (t.joinable())
                t.join();
        }
    }

  private:
    struct Entry
    {
        store::CellKey key;
        std::string label;
        store::StoredCell cell;
    };

    /** Queued entries a worker may run ahead of its publishers by. */
    static constexpr std::size_t depth = 16;

    void
    drain()
    {
        for (;;) {
            Entry entry;
            {
                std::unique_lock<std::mutex> lock(mutex);
                hasWork.wait(lock,
                             [this] { return closed || !queue.empty(); });
                if (queue.empty())
                    return;
                entry = std::move(queue.front());
                queue.pop_front();
            }
            hasRoom.notify_one();
            try {
                publish(entry);
            } catch (...) {
                // publish() turns a failed put into a diagnostic; only
                // building that can throw (out of memory), and the
                // entry is then lost like any failed put.
            }
        }
    }

    void
    publish(const Entry &entry)
    {
        std::string err;
        try {
            err = target.put(entry.key,
                             store::encodeStoredCell(entry.cell));
        } catch (const std::exception &e) {
            err = e.what();
        }
        if (err.empty())
            return;
        debug("store put (" + entry.label + "): " + err);
        if (!warned.exchange(true)) {
            warn("results store: " + entry.label +
                 " was not checkpointed: " + err +
                 " (later failed puts of this sweep log at debug level; "
                 "a resume recomputes every run not stored)");
        }
    }

    const store::ResultStore &target;
    std::mutex mutex;
    std::condition_variable hasRoom;
    std::condition_variable hasWork;
    std::deque<Entry> queue;
    bool closed = false;
    std::atomic<bool> warned{false};
    std::vector<std::thread> publishers;
};

SweepRunner::SweepRunner(const BenchOptions &opts)
    : defaults(opts), pool(opts.threads)
{
    // A sweep whose *shared* configuration is invalid would fail in
    // every cell; fail fast here instead so the user gets one
    // "fatal: run config: ..." line (and exit 1 via guardedMain)
    // before any simulation time is spent. Cell-local overrides are
    // still validated - and contained - per cell.
    const std::string err =
        sim::validateRunConfig(defaults.runConfig());
    fatalIf(!err.empty(), err);

    if (!defaults.storeDir.empty()) {
        auto rs = std::make_unique<store::ResultStore>(
            defaults.storeDir);
        if (rs->ok()) {
            resultStore = std::move(rs);
            debug("results store at '" + defaults.storeDir + "' (" +
                  std::to_string(resultStore->entryCount()) +
                  " entries)");
        } else {
            // Recoverable by design: a bad store means recomputing
            // everything, not losing the sweep.
            warn(rs->error() + " (continuing without checkpointing)");
        }
    }

    if (!defaults.traceCacheDir.empty()) {
        auto lib = std::make_unique<trace::TraceLibrary>(
            defaults.traceCacheDir);
        if (lib->ok()) {
            traceLibrary = std::move(lib);
            debug("trace library at '" + defaults.traceCacheDir +
                  "' (" + std::to_string(traceLibrary->entryCount()) +
                  " entries)");
        } else {
            // Recoverable like the store: a bad library means
            // simulating everything live, not losing the sweep.
            warn(lib->error() + " (continuing without replay caching)");
        }
    }
}

SweepRunner::~SweepRunner() = default;

SweepRunner::AppPtr
SweepRunner::appFor(const std::string &workload,
                    const BenchOptions &opts)
{
    const std::string key = appKey(workload, opts);
    std::shared_future<AppPtr> fut;
    std::shared_ptr<std::promise<AppPtr>> mine;
    {
        const std::lock_guard<std::mutex> lock(appMutex);
        const auto it = apps.find(key);
        if (it != apps.end()) {
            fut = it->second;
        } else {
            mine = std::make_shared<std::promise<AppPtr>>();
            fut = mine->get_future().share();
            apps.emplace(key, fut);
        }
    }
    if (mine != nullptr) {
        // We won the race: build on this thread; waiters block on the
        // future. Failures become a null app (makeApp already warned)
        // so the future never carries an exception.
        AppPtr app;
        try {
            app = makeApp(workload, opts);
        } catch (const FatalError &e) {
            warn("workload '" + workload + "': " +
                 std::string(e.what()));
        }
        mine->set_value(std::move(app));
    }
    return fut.get();
}

std::string
SweepRunner::workloadDigestFor(const std::string &workload)
{
    // Named Table II workloads are immutable generator programs: the
    // name (plus the config fingerprint's cus/scale/seed) is their
    // whole identity. Kernel-script paths can be re-edited in place,
    // so their bytes join the key.
    const bool is_path = workload.find('/') != std::string::npos ||
        workload.find('.') != std::string::npos;
    if (!is_path)
        return "";
    const std::lock_guard<std::mutex> lock(digestMutex);
    const auto it = workloadDigests.find(workload);
    if (it != workloadDigests.end())
        return it->second;
    // Unreadable now => never a hit (and the cell itself will fail to
    // build, with its own diagnostic).
    std::string text;
    const std::string digest = trace::readFile(workload, text)
        ? trace::digest128(text) : "unreadable";
    workloadDigests.emplace(workload, digest);
    return digest;
}

trace::LibraryKey
SweepRunner::identityOf(const std::string &workload,
                        const std::string &design,
                        const BenchOptions &opts)
{
    trace::LibraryKey key;
    key.harness = defaults.harnessId;
    key.workload = workload;
    key.workloadDigest = workloadDigestFor(workload);
    key.design = design;
    key.fingerprint = simConfigFingerprint(opts);
    key.pcSnapshotIn = opts.pcSnapshotIn;
    return key;
}

bool
SweepRunner::storeGet(const store::CellKey *key, const std::string &label,
                      RunOutcome &run, ShardArtifact &art) const
{
    if (key == nullptr || resultStore == nullptr)
        return false;
    store::ResultStore::GetResult got = resultStore->get(*key);
    if (got.status == store::ResultStore::GetStatus::Corrupt) {
        obs::reg()
            .counter("farm.cells.quarantined", obs::MetricKind::Timing)
            .add(1);
        warn(got.error + " (quarantined; recomputing)");
    }
    if (got.status == store::ResultStore::GetStatus::Hit) {
        store::StoredCell stored;
        std::string derr;
        if (store::decodeStoredCell(got.payload, stored, derr)) {
            obs::reg()
                .counter("farm.cells.hit", obs::MetricKind::Timing)
                .add(1);
            debug("store hit: " + label);
            run.result = std::move(stored.run.result);
            run.ok = stored.run.ok;
            run.error = std::move(stored.run.error);
            art.snap = std::move(stored.metrics);
            art.valid = true;
            return true;
        }
        warn("store entry for " + label + ": " + derr +
             " (recomputing)");
    }
    obs::reg().counter("farm.cells.miss", obs::MetricKind::Timing).add(1);
    return false;
}

void
SweepRunner::storePut(Publisher *publisher, const store::CellKey *key,
                      const std::string &label, const RunOutcome &run,
                      const ShardArtifact &art)
{
    if (publisher != nullptr && key != nullptr && run.ok)
        publisher->push(*key, label, run.result, art.snap);
}

SweepRunner::FailureKind
SweepRunner::attemptCell(const SweepCell &cell, const trace::LibraryKey &id,
                         std::int64_t deadline_ns, RunOutcome &run,
                         WhatIf what_if)
{
    try {
        sim::RunConfig cfg = cell.opts.runConfig();
        const std::string err = sim::validateRunConfig(cfg);
        if (!err.empty()) {
            run.error = err;
            return FailureKind::Config;
        }
        AppPtr app = appFor(cell.workload, cell.opts);
        if (app == nullptr) {
            run.error =
                "workload '" + cell.workload + "' failed to build";
            return FailureKind::Config;
        }
        // The determinism keystone: the cell's RNG stream is a pure
        // function of its identity, never of which thread runs it or
        // in what order.
        cfg.gpu.seed = Rng::split(cell.opts.seed, cell.workload,
                                  cell.design, cell.runIndex).next();
        cfg.deadlineNs = deadline_ns;
        sim::ExperimentDriver driver(cfg);
        LibraryRoute route;
        if (traceLibrary != nullptr && !cacheBypassed(cell)) {
            route.library = traceLibrary.get();
            if (what_if != WhatIf::Off) {
                route.keys.push_back(id);
                route.keys.back().shared = true;
            }
            route.keys.push_back(id);
            route.captureShared = what_if == WhatIf::Owner;
        }
        std::unique_ptr<dvfs::DvfsController> controller;
        run.result = runTraced(
            driver, app,
            [&cell, &cfg, &app] {
                return cell.factory != nullptr
                    ? cell.factory(cfg)
                    : makeController(cell.design, cfg, app.get());
            },
            controller, cell.opts, cell.workload, cell.runIndex, route);
        run.result.workload = cell.workload;
        if (cell.inspect != nullptr)
            cell.inspect(*controller);
        run.ok = true;
        return FailureKind::None;
    } catch (const FatalError &e) {
        run.error = e.what();
        // A FatalError after the deadline is the budget running out,
        // not an independent defect.
        if (deadline_ns != 0 && obs::steadyNowNs() > deadline_ns)
            return FailureKind::Timeout;
        return FailureKind::Fatal;
    } catch (const std::exception &e) {
        run.error = e.what();
        return FailureKind::Transient;
    }
}

RunOutcome
SweepRunner::executeCell(const SweepCell &cell,
                         const trace::LibraryKey &id,
                         const std::string &label, ShardArtifact &art,
                         WhatIf what_if, Publisher *publisher)
{
    RunOutcome out;
    const store::CellKey key = storeKeyFor(id, cell.opts.auditRegret,
                                           what_if != WhatIf::Off);
    const store::CellKey *stored = storeBypassed(cell) ? nullptr : &key;
    if (storeGet(stored, label, out, art))
        return out;

    const std::int64_t budget_ns = static_cast<std::int64_t>(
        defaults.cellTimeoutSec * 1e9);
    const unsigned max_attempts = 1 + defaults.cellRetries;
    for (unsigned attempt = 0;; ++attempt) {
        const std::int64_t deadline_ns =
            budget_ns > 0 ? obs::steadyNowNs() + budget_ns : 0;
        obs::RunContext attempt_ctx(label);
        FailureKind kind;
        {
            const obs::ScopedContext scope(attempt_ctx);
            out = RunOutcome{};
            kind = attemptCell(cell, id, deadline_ns, out, what_if);
        }
        // Per-attempt contexts keep abandoned attempts' metrics out of
        // the merge: only the final attempt's shard is collected.
        art.snap = attempt_ctx.registry.snapshot();
        art.timeline = std::move(attempt_ctx.timeline);
        art.valid = true;
        if (out.ok)
            break;
        if (kind == FailureKind::Timeout) {
            obs::reg()
                .counter("farm.cells.timeout", obs::MetricKind::Timing)
                .add(1);
            break;
        }
        if (kind == FailureKind::Transient &&
            attempt + 1 < max_attempts) {
            obs::reg()
                .counter("farm.cells.retried", obs::MetricKind::Timing)
                .add(1);
            warn("sweep cell " + label + " attempt " +
                 std::to_string(attempt + 1) + " failed: " +
                 out.error + " (retrying)");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20 * (attempt + 1)));
            continue;
        }
        break;
    }

    if (!out.ok) {
        // The one-line diagnostic; the rest of the sweep completes
        // and guardedMain turns the tally into a non-zero exit.
        noteSweepFailure();
        warn("sweep cell " + label + " failed: " + out.error);
    }
    storePut(publisher, stored, label, out, art);
    return out;
}

std::vector<CellOutcome>
SweepRunner::run(std::vector<SweepCell> cells)
{
    // Cell identities and repeat indices are decided here, once, in
    // submission order, on the FULL list before any shard filtering -
    // deliberately independent of the shard layout so every worker
    // and the merge pass agree on RNG streams and cache keys. Cells
    // with equal identities are true repeats and get distinct run
    // indices.
    std::vector<trace::LibraryKey> ids;
    ids.reserve(cells.size());
    std::map<std::string, std::size_t> repeats;
    for (SweepCell &cell : cells) {
        trace::LibraryKey id =
            identityOf(cell.workload, cell.design, cell.opts);
        cell.runIndex = repeats[id.text()]++;
        id.runIndex = cell.runIndex;
        ids.push_back(std::move(id));
    }

    const unsigned shard_n =
        defaults.shardCount > 1 ? defaults.shardCount : 1;
    const unsigned shard_i =
        shard_n > 1 ? defaults.shardIndex % shard_n : 0;
    const auto owned = [&](std::size_t i) {
        return shard_n <= 1 || i % shard_n == shard_i;
    };

    // The run list: one slot per distinct static-nominal baseline an
    // owned cell wants, in the order of its first requesting cell,
    // then cell i at slot first + i. A baseline is a run like any
    // cell - the same store lookup, deadline, retries and
    // trace-library route - and no cell waits on one: each cell's
    // CellOutcome::baseline is copied from its baseline's slot once
    // every run is done. Each run records into its own context (see
    // src/obs/context.hh), collected below in slot order.
    std::vector<SweepCell> runs;
    std::vector<trace::LibraryKey> runIds;
    std::vector<std::unique_ptr<obs::RunContext>> ctx;
    std::vector<std::size_t> baselineSlot(cells.size(), 0);
    std::map<std::string, std::size_t> baselineSlots;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!owned(i) || !cells[i].wantBaseline)
            continue;
        trace::LibraryKey id = baselineOf(ids[i]);
        const auto [slot, fresh] =
            baselineSlots.emplace(id.text(), runs.size());
        if (fresh) {
            runs.push_back(baselineCell(id.workload, cells[i].opts));
            ctx.push_back(std::make_unique<obs::RunContext>(
                "baseline: " + id.workload));
            runIds.push_back(std::move(id));
        }
        baselineSlot[i] = slot->second;
    }
    const std::size_t first = runs.size();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::string label = cellLabel(cells[i].workload, cells[i].design);
        if (cells[i].runIndex > 0)
            label += " r" + std::to_string(cells[i].runIndex);
        ctx.push_back(std::make_unique<obs::RunContext>(std::move(label)));
        runs.push_back(std::move(cells[i]));
        runIds.push_back(std::move(ids[i]));
    }
    const auto ownedRun = [&](std::size_t r) {
        return r < first || owned(r - first);
    };

    // Replay-cache routing (see docs/replay_studies.md). Cells that
    // already drive trace I/O themselves (--trace-out / --replay)
    // bypass the library; everything else is replay-eligible. In
    // shared what-if mode, cells collapsing onto one shared key form a
    // group: the first submission index is the owner (it captures the
    // stream on a miss), later ones are waiters (they replay the
    // owner's stream, or resolve through their own exact-tier key when
    // it cannot drive them; never capture the stream, so an owner's
    // published trace is never clobbered). Baselines join no group.
    std::vector<WhatIf> whatIf(runs.size(), WhatIf::Off);
    if (traceLibrary != nullptr && defaults.traceWhatIf) {
        std::set<std::string> groups;
        for (std::size_t r = first; r < runs.size(); ++r) {
            if (!ownedRun(r) || cacheBypassed(runs[r]))
                continue;
            trace::LibraryKey stream = runIds[r];
            stream.shared = true;
            whatIf[r] = groups.insert(stream.text()).second
                ? WhatIf::Owner
                : WhatIf::Waiter;
        }
    }

    // The owned runs execute in two passes: the what-if owners first,
    // so every group's stream is in the library before its waiters
    // look for it, then every other run (baselines, plain cells,
    // waiters). No run waits on another, so the owners of different
    // groups simulate side by side and no worker idles on a future.
    std::vector<std::size_t> passes[2];
    for (std::size_t r = 0; r < runs.size(); ++r) {
        if (ownedRun(r))
            passes[whatIf[r] == WhatIf::Owner ? 0 : 1].push_back(r);
    }

    // --progress: the worker that finishes a run redraws a count of
    // finished runs on stderr, at most ~4x/s (a redraw claims its turn
    // by compare-exchange on the last draw time), and run() draws once
    // more after the passes. Wall-clock cosmetics only, disabled when
    // stderr is not a TTY (logs, CI).
    const std::size_t owned_total = passes[0].size() + passes[1].size();
    const bool progress_on = defaults.progress && owned_total > 0 &&
        isatty(fileno(stderr)) != 0;
    const std::int64_t progress_start =
        progress_on ? obs::steadyNowNs() : 0;
    std::atomic<std::size_t> runs_done{0};
    std::atomic<std::int64_t> last_draw{0};
    const auto drawProgress = [&](std::size_t done, std::int64_t now) {
        const double secs =
            static_cast<double>(now - progress_start) / 1e9;
        const double rate =
            secs > 0.0 ? static_cast<double>(done) / secs : 0.0;
        const double eta = rate > 0.0
            ? static_cast<double>(owned_total - done) / rate
            : 0.0;
        std::fprintf(stderr,
                     "\r[sweep] %zu/%zu runs (%.1f runs/s, ETA %.0fs)   ",
                     done, owned_total, rate, eta);
        std::fflush(stderr);
    };

    // Store entries are written behind the runs, by one publisher
    // thread per pool thread, so as many fsyncs can be in flight as
    // there are workers. Every exit from the passes closes the queue
    // and joins the publishers first: what this call stored is on disk
    // before it returns or throws.
    std::unique_ptr<Publisher> publisher;
    if (resultStore != nullptr) {
        publisher = std::make_unique<Publisher>(*resultStore,
                                                pool.threadCount());
    }
    const std::int64_t queued_ns = obs::nowNsIfEnabled();
    std::vector<RunOutcome> results(runs.size());
    std::vector<ShardArtifact> art(runs.size());
    const auto runSlot = [&](std::size_t r) {
        const obs::ScopedContext scope(*ctx[r]);
        obs::Registry &registry = ctx[r]->registry;
        obs::recordSinceNs(registry.histogram("sweep.queue_wait_ns",
                                              obs::MetricKind::Timing),
                           queued_ns);
        const obs::ScopedTimer wall(&registry.histogram(
            "sweep.cell_wall_ns", obs::MetricKind::Timing));
        results[r] = executeCell(runs[r], runIds[r], ctx[r]->label,
                                 art[r], whatIf[r], publisher.get());
        if (!progress_on)
            return;
        const std::size_t done = runs_done.fetch_add(1) + 1;
        const std::int64_t now = obs::steadyNowNs();
        std::int64_t last = last_draw.load();
        if (now - last > 250'000'000 &&
            last_draw.compare_exchange_strong(last, now)) {
            drawProgress(done, now);
        }
    };
    std::exception_ptr failure;
    for (const std::vector<std::size_t> &pass : passes) {
        try {
            pool.forEach(pass.size(),
                         [&](std::size_t i) { runSlot(pass[i]); });
        } catch (...) {
            if (failure == nullptr)
                failure = std::current_exception();
        }
    }

    if (publisher != nullptr) {
        const std::int64_t join_ns = obs::nowNsIfEnabled();
        publisher->close();
        obs::recordSinceNs(obs::reg().histogram("farm.publish_wait_ns",
                                                obs::MetricKind::Timing),
                           join_ns);
    }
    if (progress_on) {
        drawProgress(runs_done.load(), obs::steadyNowNs());
        std::fputc('\n', stderr);
    }
    if (failure != nullptr)
        std::rethrow_exception(failure);

    std::vector<CellOutcome> out(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const bool want_baseline = runs[first + i].wantBaseline;
        if (!owned(i)) {
            out[i].run.skipped = true;
            out[i].run.error = "skipped: shard " +
                std::to_string(shard_i) + "/" +
                std::to_string(shard_n) + " does not own cell " +
                std::to_string(i);
            out[i].baseline.skipped = want_baseline;
            continue;
        }
        out[i].run = std::move(results[first + i]);
        if (want_baseline)
            out[i].baseline = results[baselineSlot[i]];
    }

    if (obs::metricsEnabled() || obs::timelineEnabled()) {
        // Submission-order collection in slot order (baseline slots,
        // then cells), so merged double sums are the same for every
        // --threads value. Each run slot contributes its run shard
        // (live snapshot, or the shard replayed from the store)
        // followed by its farm-level context; the sources have
        // disjoint deterministic names, so resumed and uninterrupted
        // sweeps merge byte-identically.
        for (std::size_t r = 0; r < runs.size(); ++r) {
            if (art[r].valid) {
                obs::collectShard(ctx[r]->label, std::move(art[r].snap),
                                  std::move(art[r].timeline));
            }
            obs::collectContext(*ctx[r]);
        }
        obs::reg()
            .gauge("sweep.threads", obs::MetricKind::Timing)
            .set(static_cast<double>(pool.threadCount()));
    }
    return out;
}

} // namespace pcstall::bench
