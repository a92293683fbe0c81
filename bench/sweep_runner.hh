/**
 * @file
 * SweepRunner: the parallel execution layer every figure harness
 * routes its workload x controller x configuration sweep through.
 *
 * A sweep is a list of independent cells. Each cell names a workload,
 * a controller design (or a custom controller factory) and carries
 * its own BenchOptions, so epoch-length / objective / fault-config
 * variants are just different cells of one grid. Cells execute on a
 * fixed-size thread pool (sim::ParallelExecutor) and their outcomes
 * are returned in submission order, so table aggregation code stays
 * strictly serial and deterministic.
 *
 * Determinism contract: `--threads N` is bit-identical to
 * `--threads 1` for every N. This holds because
 *  - each cell's GPU seed derives from (seed, workload, design,
 *    run index) via Rng::split - a pure function of the cell key,
 *    never of execution order;
 *  - applications are a memoized compute-once cache keyed on their
 *    build configuration, and a build is a pure function of the key;
 *  - a shared static-nominal baseline is a run slot of the sweep like
 *    any cell, run once per run() for all the cells that want it;
 *  - outcomes are aggregated by submission index, not completion
 *    order.
 *
 * Error contract: fatal() throws FatalError instead of exiting, and
 * the runner catches it per cell. One invalid run configuration or
 * broken workload yields a one-line diagnostic on that cell's outcome
 * while every other cell completes. Contained failures are tallied
 * via noteSweepFailure() so guardedMain still exits 1 for a degraded
 * sweep; a shared configuration that is invalid for every cell fails
 * fast at construction with a single fatal diagnostic.
 *
 * Robustness layer (docs/sweep_farm.md): with --store DIR every
 * completed cell (and shared baseline) is checkpointed to a
 * content-addressed results store, consulted before computing - so a
 * killed sweep restarted with the same flags recomputes only the
 * missing cells and still merges byte-identical output (stored
 * entries carry the cell's deterministic metrics shard, replayed at
 * the same submission-order position). Checkpoints are written
 * behind the sweep: a worker queues its finished run and goes on to
 * the next, one publisher thread per pool thread writes the entries,
 * and run() returns only once every entry it produced is on disk.
 * --shard i/N restricts a worker to its deterministic slice of the
 * grid (run indices are assigned on the full list first, so cell
 * identity is shard-layout independent);
 * --cell-timeout gives every attempt a wall-clock deadline that the
 * run checks at each epoch boundary, so an overrunning run stops there
 * with a contained FatalError; transient failures are retried with
 * bounded backoff, deterministic FatalErrors and timeouts never are.
 * A shared baseline is a run slot like a cell: the same store lookup,
 * deadline, retries and trace-library route.
 *
 * Both caches key on one cell identity, the exact-tier
 * trace::LibraryKey built by identityOf(): the store adds only the
 * metrics-recorded, regret-audited and what-if bits.
 *
 * Replay layer (docs/replay_studies.md): with --trace-cache DIR every
 * replay-eligible cell (and shared baseline) resolves against a
 * content-addressed trace library with capture-on-miss - a cold run
 * simulates once and publishes each cell's epoch trace, a warm run
 * replays the recordings at 20-600x live speed with byte-identical
 * stdout and canonical metrics. Cells that name explicit trace I/O
 * (--trace-out, --replay) bypass the cache; --trace-what-if switches
 * to shared-stream keys where each workload's first cell simulates
 * and every other controller replays its stream (open-loop
 * evaluation, giving up the byte-identity contract); a controller the
 * stream cannot drive resolves through its own exact-tier key. The
 * stream owners run in a pass of their own, side by side, before
 * every other run.
 */

#ifndef PCSTALL_BENCH_SWEEP_RUNNER_HH
#define PCSTALL_BENCH_SWEEP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hh"
#include "obs/context.hh"
#include "sim/parallel_executor.hh"

namespace pcstall::store
{
struct CellKey;
class ResultStore;
}

namespace pcstall::bench
{

/**
 * 32-hex digest of everything in @p opts that changes the simulated
 * run: the RunConfig image a PCTR capture's META section records
 * (trace::encodeRunConfigImage over opts.runConfig()), plus the
 * workload scale and seed, which META does not carry, and
 * gpu::modelVersion, so a result the timing model computed before a
 * behaviour change never hits. src/trace thus decides which RunConfig
 * fields identify a run; output paths, thread counts and
 * observability toggles are not in the image. This is the config
 * slot of a cell's identity, from which both the trace-library key
 * (docs/replay_studies.md) and the results-store key
 * (docs/sweep_farm.md) derive.
 */
std::string simConfigFingerprint(const BenchOptions &opts);

/** Builds the controller a cell runs (given the cell's RunConfig). */
using ControllerFactory =
    std::function<std::unique_ptr<dvfs::DvfsController>(
        const sim::RunConfig &)>;

/** One independent unit of sweep work. */
struct SweepCell
{
    std::string workload;
    /** Display label; also the default makeController() design name
     *  and part of the cell's RNG derivation key. */
    std::string design;
    /** Cell-local options (epoch/objective/fault variants). */
    BenchOptions opts;
    /** Custom controller builder; empty = makeController(design). */
    ControllerFactory factory;
    /**
     * Optional post-run peek at the controller (hit ratios, ceiling
     * states) before the cell destroys it. Runs on the cell's worker
     * thread; write only to this cell's own aggregation slot.
     */
    std::function<void(const dvfs::DvfsController &)> inspect;
    /** Also produce the static-nominal baseline run for
     *  (workload, opts). run() gives each distinct baseline one run
     *  slot ahead of the cells and copies its outcome to every cell
     *  that wants it. */
    bool wantBaseline = false;
    /**
     * Repeat index among cells with the same identity (workload,
     * design, configuration); assigned by run() in submission order
     * and used to keep repeated runs' RNG streams, cache keys and
     * capture paths distinct.
     */
    std::size_t runIndex = 0;
};

/** Result of one run (a cell's own run, or its baseline). */
struct RunOutcome
{
    sim::RunResult result;
    bool ok = false;
    /** One-line diagnostic when !ok. */
    std::string error;
    /** True when a --shard worker left this cell to a sibling shard.
     *  Skipped cells are not failures: they are not tallied and carry
     *  no result. */
    bool skipped = false;
};

/** Everything a cell produced. */
struct CellOutcome
{
    RunOutcome run;
    /** Valid when the cell asked for a baseline (see wantBaseline). */
    RunOutcome baseline;
};

class SweepRunner
{
  public:
    /**
     * @p opts supplies the thread count and the defaults cell()
     * copies into new cells, plus the farm configuration: a results
     * store (--store) for crash-resumable checkpointing, a shard
     * assignment (--shard i/N) restricting which cells this worker
     * computes, and the per-cell watchdog budget (--cell-timeout).
     * An unusable store directory is a recoverable warn: the sweep
     * proceeds without checkpointing.
     */
    explicit SweepRunner(const BenchOptions &opts);

    ~SweepRunner();

    /** Convenience cell builder using the runner's default options. */
    SweepCell
    cell(const std::string &workload, const std::string &design,
         bool want_baseline = false) const
    {
        SweepCell c;
        c.workload = workload;
        c.design = design;
        c.opts = defaults;
        c.wantBaseline = want_baseline;
        return c;
    }

    /**
     * Execute every cell (in parallel, per --threads) and return the
     * outcomes in submission order. Repeat indices are assigned
     * before execution. Every baseline run the owned cells want gets
     * one slot ahead of the cells; every call runs (or serves from
     * the store) and collects its own. The runs execute in two
     * parallel passes: --trace-what-if stream owners first, then
     * everything else, so no run waits on another. With a results
     * store, every entry the call checkpoints is durable when it
     * returns (or throws); a failed checkpoint warns once per call and
     * leaves the cell to be recomputed on resume.
     */
    std::vector<CellOutcome> run(std::vector<SweepCell> cells);

    /**
     * Generic parallel map for harnesses whose per-workload work is
     * not an ExperimentDriver run (profiler studies, chip-level
     * measurements). fn(i) runs on the pool with FatalError contained
     * per index (failed slots keep their default-constructed value
     * after a warn); results are in index order.
     */
    template <typename T, typename Fn>
    std::vector<T>
    map(std::size_t n, Fn &&fn)
    {
        // Same metric sharding as run(): one context per index,
        // collected in index order (see src/obs/context.hh).
        std::vector<std::unique_ptr<obs::RunContext>> ctx;
        ctx.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            ctx.push_back(std::make_unique<obs::RunContext>(
                "task " + std::to_string(i)));
        }
        std::vector<T> out(n);
        pool.forEach(n, [&](std::size_t i) {
            const obs::ScopedContext scope(*ctx[i]);
            try {
                out[i] = fn(i);
            } catch (const FatalError &e) {
                noteSweepFailure();
                warn("parallel task " + std::to_string(i) +
                     " failed: " + std::string(e.what()));
            }
        });
        if (obs::metricsEnabled() || obs::timelineEnabled()) {
            for (const auto &c : ctx)
                obs::collectContext(*c);
        }
        return out;
    }

    /** Threads the pool executes on. */
    unsigned threads() const { return pool.threadCount(); }

    /** The defaults cell() hands out. */
    const BenchOptions &options() const { return defaults; }

    /** The active results store, or null (no --store, or the
     *  directory was unusable and checkpointing is off). */
    const store::ResultStore *store() const { return resultStore.get(); }

    /** The active trace library, or null (no --trace-cache, or the
     *  directory was unusable and replay caching is off). */
    const trace::TraceLibrary *traceCache() const
    {
        return traceLibrary.get();
    }

  private:
    using AppPtr = std::shared_ptr<const isa::Application>;

    /** One run()'s write-behind store publication: a bounded queue
     *  and its publisher threads (defined in sweep_runner.cc). */
    class Publisher;

    /** Why one attempt of a cell failed - drives the retry policy. */
    enum class FailureKind
    {
        None,
        /** Invalid configuration / unbuildable workload: deterministic,
         *  never retried. */
        Config,
        /** FatalError from library code: deterministic, never retried. */
        Fatal,
        /** Non-FatalError exception (e.g. an I/O race): retried with
         *  backoff up to --cell-retries times. */
        Transient,
        /** Failed past its deadline: budget spent, never retried. */
        Timeout,
    };

    /** A metrics/timeline shard pending submission-order collection
     *  (live-run snapshot, or a shard replayed from the store). */
    struct ShardArtifact
    {
        obs::MetricsSnapshot snap;
        std::vector<obs::TimelineEvent> timeline;
        bool valid = false;
    };

    /** A cell's part in the what-if tier, decided by run() before any
     *  run starts (a group's first cell is a submission-order property
     *  of the whole grid, not of one cell). */
    enum class WhatIf
    {
        /** Not a what-if cell: its exact-tier key alone. */
        Off,
        /** First cell of its group: captures the shared stream on a
         *  miss. */
        Owner,
        /** Later cell: replays the owner's stream, or resolves through
         *  its own exact-tier key when that stream cannot drive it. */
        Waiter,
    };

    /** Memoized application build (thread-safe, compute-once). */
    AppPtr appFor(const std::string &workload,
                  const BenchOptions &opts);

    /**
     * Store-checked, deadline-bounded, retry-bounded execution of one
     * run identified by @p id: a sweep cell, or a shared baseline's
     * cell. @p label names the run in diagnostics and its metric
     * shard; a successful run is checkpointed through @p publisher.
     */
    RunOutcome executeCell(const SweepCell &cell,
                           const trace::LibraryKey &id,
                           const std::string &label, ShardArtifact &art,
                           WhatIf what_if, Publisher *publisher);

    /** One attempt of a run (no store, no retries): runTraced() with
     *  the run's trace-library route, stopped at the first epoch
     *  boundary past @p deadline_ns (obs::steadyNowNs; 0 = none). */
    FailureKind attemptCell(const SweepCell &cell,
                            const trace::LibraryKey &id,
                            std::int64_t deadline_ns, RunOutcome &run,
                            WhatIf what_if);

    /**
     * The one definition of a run's identity: its exact-tier trace
     * library key (run index 0; run() numbers repeats). Both caches
     * key on it: the library directly, or with shared = true for the
     * what-if tier, and the results store through storeKeyFor(), so a
     * field that reaches one key reaches the other. Kernel-script
     * workloads contribute a content digest, so an edited script
     * misses in both instead of serving stale results.
     */
    trace::LibraryKey identityOf(const std::string &workload,
                                 const std::string &design,
                                 const BenchOptions &opts);

    /** Memoized content digest of kernel-script workloads ("" for
     *  named Table II workloads). */
    std::string workloadDigestFor(const std::string &workload);

    /**
     * The one results-store lookup of a run (a cell or a shared
     * baseline): true when @p key's entry is valid, filling @p run and
     * the metrics shard in @p art. Corrupt entries are quarantined and
     * read as a miss. A null @p key (a cell that bypasses the store),
     * or no store, is an uncounted miss. @p label names the run in
     * diagnostics.
     */
    bool storeGet(const store::CellKey *key, const std::string &label,
                  RunOutcome &run, ShardArtifact &art) const;

    /** Queue @p run with the metrics shard in @p art for checkpointing
     *  under @p key when it succeeded (no-op for a null key or no
     *  store). Blocks only while @p publisher's queue is full. */
    static void storePut(Publisher *publisher, const store::CellKey *key,
                         const std::string &label, const RunOutcome &run,
                         const ShardArtifact &art);

    BenchOptions defaults;
    sim::ParallelExecutor pool;

    /** Active results store (null = checkpointing off). */
    std::unique_ptr<store::ResultStore> resultStore;

    /** Active trace library (null = replay caching off). */
    std::unique_ptr<trace::TraceLibrary> traceLibrary;

    std::mutex digestMutex;
    std::map<std::string, std::string> workloadDigests;

    std::mutex appMutex;
    std::map<std::string, std::shared_future<AppPtr>> apps;
};

} // namespace pcstall::bench

#endif // PCSTALL_BENCH_SWEEP_RUNNER_HH
