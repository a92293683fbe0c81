/**
 * @file
 * Tracked performance benchmark suite (docs/performance.md).
 *
 * Times the simulator's hot paths - a deep chip copy against a pooled
 * restore, oracle fork-pre-execute sweeps serial and in-cell
 * parallel, raw epoch simulation, predictor table updates, trace
 * encoding - plus end-to-end experiment cells (ACCPC, PCSTALL with
 * and without the decision-provenance audit), as median-of-N wall
 * times. Alongside the timings it *always* verifies that the serial
 * and parallel oracle sweeps produce bit-identical estimates and that
 * end-to-end runs produce bit-identical metrics (at 1 and N oracle
 * threads, audited included), so a perf regression can never hide a
 * correctness regression.
 *
 * Modes:
 *  - default: run the suite, print a table (honours --csv);
 *  - --out FILE: additionally write the pcstall-perf-v1 JSON document
 *    (the committed baseline lives at bench_results/BENCH_perf.json);
 *  - --check-regression FILE: compare this run's min-of-N against the
 *    baseline document's min-of-N. Every benchmark runs one untimed
 *    warmup iteration first, and the minimum over the timed repeats is
 *    the gated statistic: medians on a noisy shared machine still
 *    carry scheduler interference, while the min approaches the true
 *    cost of the code path. Absolute comparisons use --tolerance
 *    (default 4.0x, generous because CI machines differ); same-machine
 *    ratios (pooled restore vs deep copy, audited vs unaudited cell,
 *    warm vs cold trace cache) use fixed bands. Non-zero exit on
 *    regression.
 *
 * Flags beyond the common set: --repeats N (default 5), --out FILE,
 * --check-regression FILE, --tolerance X, --oracle-threads N (thread
 * count for the parallel-sweep benchmark, default 4).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "gpu/gpu_chip.hh"
#include "harness.hh"
#include "obs/context.hh"
#include "obs/metrics.hh"
#include "obs/provenance.hh"
#include "oracle/fork_pre_execute.hh"
#include "oracle/snapshot_pool.hh"
#include "predict/pc_table.hh"
#include "sim/parallel_executor.hh"
#include "store/atomic_file.hh"
#include "sweep_runner.hh"
#include "trace/format.hh"

using namespace pcstall;

namespace
{

using Clock = std::chrono::steady_clock;

double
elapsedNs(Clock::time_point t0)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

/** One benchmark's samples with order statistics. */
struct BenchTiming
{
    std::string name;
    std::vector<double> samplesNs;

    double
    medianNs() const
    {
        std::vector<double> s = samplesNs;
        std::sort(s.begin(), s.end());
        const std::size_t n = s.size();
        return n == 0 ? 0.0
                      : (n % 2 == 1 ? s[n / 2]
                                    : 0.5 * (s[n / 2 - 1] + s[n / 2]));
    }

    double
    minNs() const
    {
        return samplesNs.empty()
            ? 0.0 : *std::min_element(samplesNs.begin(), samplesNs.end());
    }

    double
    maxNs() const
    {
        return samplesNs.empty()
            ? 0.0 : *std::max_element(samplesNs.begin(), samplesNs.end());
    }
};

/**
 * Time @p fn() @p repeats times, running untimed @p prep() before
 * every call (including one full warmup iteration first, so the timed
 * calls never pay one-time allocations or cold caches).
 */
template <typename Prep, typename Fn>
BenchTiming
timeBenchPrepared(const std::string &name, int repeats, Prep &&prep,
                  Fn &&fn)
{
    BenchTiming t;
    t.name = name;
    prep();
    fn(); // warmup iteration
    for (int r = 0; r < repeats; ++r) {
        prep();
        const Clock::time_point t0 = Clock::now();
        fn();
        t.samplesNs.push_back(elapsedNs(t0));
    }
    return t;
}

/** Time @p fn() @p repeats times (after one untimed warmup). */
template <typename Fn>
BenchTiming
timeBench(const std::string &name, int repeats, Fn &&fn)
{
    return timeBenchPrepared(name, repeats, [] {},
                             std::forward<Fn>(fn));
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Bit-exact digest of a sweep's estimates (identity checks). */
std::uint64_t
estimatesFingerprint(const dvfs::AccurateEstimates &est)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    mix(est.domainInstr.size());
    for (const std::vector<double> &row : est.domainInstr) {
        mix(row.size());
        for (double v : row)
            mix(doubleBits(v));
    }
    mix(est.waves.size());
    for (const dvfs::AccurateEstimates::WaveSens &w : est.waves) {
        mix(w.cu);
        mix(w.slot);
        mix(w.startPcAddr);
        mix(doubleBits(w.sensitivity));
        mix(doubleBits(w.level));
        mix(w.ageRank);
    }
    return h;
}

/** Bit-exact digest of a run's reported metrics (identity checks). */
std::uint64_t
resultFingerprint(const sim::RunResult &r)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    mix(r.completed ? 1 : 0);
    mix(r.epochs);
    mix(static_cast<std::uint64_t>(r.execTime));
    mix(doubleBits(r.energy));
    mix(r.instructions);
    mix(doubleBits(r.predictionAccuracy));
    mix(r.transitions);
    mix(doubleBits(r.transitionEnergy));
    mix(r.freqTimeShare.size());
    for (double v : r.freqTimeShare)
        mix(doubleBits(v));
    mix(r.trace.size());
    for (const sim::EpochTraceEntry &e : r.trace) {
        mix(static_cast<std::uint64_t>(e.start));
        for (std::uint8_t s : e.domainState)
            mix(s);
        for (double v : e.domainCommitted)
            mix(doubleBits(v));
    }
    return h;
}

/** Settings the baseline comparison must agree on. */
std::string
configFingerprint(const bench::BenchOptions &opts,
                  const std::string &workload)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    h = hashCombine(h, opts.cus);
    h = hashCombine(h, doubleBits(opts.scale));
    h = hashCombine(h, static_cast<std::uint64_t>(opts.epochLen));
    h = hashCombine(h, opts.seed);
    for (char c : workload)
        h = hashCombine(h, static_cast<std::uint64_t>(c));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Minimal scanner for the pcstall-perf-v1 documents this tool
 *  writes: pulls "fingerprint" and every benchmark's median and min.
 *  Not a general JSON parser - the files are machine-written. */
struct BaselineDoc
{
    bool ok = false;
    std::string fingerprint;
    std::vector<std::pair<std::string, double>> medians;
    std::vector<std::pair<std::string, double>> mins;

    double
    medianOf(const std::string &name) const
    {
        for (const auto &[n, v] : medians)
            if (n == name)
                return v;
        return -1.0;
    }

    /** The gated statistic: min-of-N, median as a fallback for
     *  baselines written before min_ns was recorded. */
    double
    minOf(const std::string &name) const
    {
        for (const auto &[n, v] : mins)
            if (n == name)
                return v;
        return medianOf(name);
    }
};

BaselineDoc
readBaseline(const std::string &path)
{
    BaselineDoc doc;
    std::ifstream is(path);
    if (!is)
        return doc;
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();

    auto string_after = [&](std::size_t pos) -> std::string {
        const std::size_t q0 = text.find('"', pos);
        if (q0 == std::string::npos)
            return "";
        const std::size_t q1 = text.find('"', q0 + 1);
        if (q1 == std::string::npos)
            return "";
        return text.substr(q0 + 1, q1 - q0 - 1);
    };

    const std::size_t fp = text.find("\"fingerprint\":");
    if (fp != std::string::npos)
        doc.fingerprint = string_after(fp + 14);

    std::size_t pos = 0;
    while ((pos = text.find("\"name\":", pos)) != std::string::npos) {
        const std::string name = string_after(pos + 7);
        const std::size_t med = text.find("\"median_ns\":", pos);
        if (name.empty() || med == std::string::npos)
            break;
        doc.medians.emplace_back(
            name, std::atof(text.c_str() + med + 12));
        const std::size_t mn = text.find("\"min_ns\":", med);
        const std::size_t next = text.find("\"name\":", med);
        if (mn != std::string::npos &&
            (next == std::string::npos || mn < next)) {
            doc.mins.emplace_back(name,
                                  std::atof(text.c_str() + mn + 9));
        }
        pos = med + 12;
    }
    doc.ok = !doc.medians.empty();
    return doc;
}

void
writeJson(const std::string &path, const bench::BenchOptions &opts,
          const std::string &workload, int repeats,
          unsigned oracle_threads,
          const std::vector<BenchTiming> &timings)
{
    std::ostringstream os;
    char buf[160];
    os << "{\n  \"schema\": \"pcstall-perf-v1\",\n  \"config\": {\n";
    std::snprintf(buf, sizeof(buf),
                  "    \"workload\": \"%s\",\n    \"cus\": %u,\n"
                  "    \"scale\": %.4f,\n    \"epoch_us\": %.3f,\n",
                  workload.c_str(), opts.cus, opts.scale,
                  static_cast<double>(opts.epochLen) /
                      static_cast<double>(tickUs));
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "    \"seed\": %llu,\n    \"repeats\": %d,\n"
                  "    \"oracle_threads\": %u,\n"
                  "    \"fingerprint\": \"%s\"\n  },\n",
                  static_cast<unsigned long long>(opts.seed), repeats,
                  oracle_threads,
                  configFingerprint(opts, workload).c_str());
    os << buf << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < timings.size(); ++i) {
        const BenchTiming &t = timings[i];
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"median_ns\": %.0f, "
                      "\"min_ns\": %.0f, \"max_ns\": %.0f, "
                      "\"repeats\": %zu}%s\n",
                      t.name.c_str(), t.medianNs(), t.minNs(),
                      t.maxNs(), t.samplesNs.size(),
                      i + 1 < timings.size() ? "," : "");
        os << buf;
    }
    os << "  ]\n}\n";
    // Atomic publish so a kill mid-write cannot leave a truncated
    // baseline that a later --check-regression run would half-parse.
    const std::string err = store::writeFileAtomic(path, os.str());
    if (!err.empty()) {
        warn("cannot write " + path + ": " + err);
        return;
    }
    inform("wrote " + path);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain([&] {
        auto opts = bench::BenchOptions::parse(argc, argv);
        CliOptions cli(argc, argv);
        const int repeats =
            std::max<int>(1, static_cast<int>(cli.getInt("repeats", 5)));
        const std::string out_path = cli.get("out", "");
        const std::string baseline_path =
            cli.get("check-regression", "");
        const double tolerance = cli.getDouble("tolerance", 4.0);
        const unsigned mt_threads = opts.oracleThreads > 1
            ? opts.oracleThreads : 4;

        bench::banner("PERF SUITE",
                      "Hot-path wall times and oracle identity", opts);

        const std::string workload = opts.firstWorkload("comd");
        const auto app = bench::makeApp(workload, opts);
        fatalIf(!app, "cannot build workload " + workload);

        // --- fixture: a chip a few epochs into the workload, at an
        // epoch boundary with live waves (the oracle's input state).
        const sim::RunConfig rcfg = opts.runConfig();
        gpu::GpuConfig gcfg = rcfg.gpu;
        gcfg.defaultFreq = rcfg.nominalFreq;
        gpu::GpuChip chip(gcfg, app);
        const dvfs::DomainMap domains(gcfg.numCus, opts.cusPerDomain);
        const power::VfTable table = power::VfTable::paperTable();
        gpu::EpochRecord scratch_record;
        for (int e = 0; e < 2; ++e) {
            chip.runUntil((e + 1) * opts.epochLen);
            chip.harvestEpoch(e * opts.epochLen, scratch_record);
        }

        std::vector<BenchTiming> timings;

        // --- snapshot primitives ---
        timings.push_back(timeBench("chip_copy", repeats, [&] {
            gpu::GpuChip copy = chip;
            fatalIf(copy.now() != chip.now(), "copy diverged");
        }));

        // Pooled restore: the copy-assign every oracle sample starts
        // from, into a slot chip pre-warmed with a deep copy.
        oracle::SnapshotPool pool;
        pool.ensureSlots(table.numStates(), chip);
        timings.push_back(timeBench("pool_restore", repeats, [&] {
            gpu::GpuChip &c = pool.restore(0, chip);
            fatalIf(c.now() != chip.now(), "restore diverged");
        }));

        // --- one oracle sample: restore + simulate + harvest ---
        timings.push_back(timeBench("epoch_simulate", repeats, [&] {
            gpu::GpuChip &c = pool.restore(0, chip);
            c.runUntil(chip.now() + opts.epochLen);
            c.harvestEpoch(chip.now(), scratch_record);
        }));

        // --- full sweeps, serial and in-cell parallel ---
        oracle::SweepOptions pool_opts;
        pool_opts.pool = &pool;
        std::uint64_t pool_fp = 0;
        timings.push_back(timeBench("oracle_fork_pool", repeats, [&] {
            pool_fp = estimatesFingerprint(oracle::forkPreExecuteSweep(
                chip, domains, table, opts.epochLen, pool_opts));
        }));

        sim::ParallelExecutor exec(mt_threads);
        oracle::SweepOptions mt_opts = pool_opts;
        mt_opts.executor = &exec;
        timings.push_back(timeBench("oracle_fork_pool_mt", repeats, [&] {
            const std::uint64_t fp =
                estimatesFingerprint(oracle::forkPreExecuteSweep(
                    chip, domains, table, opts.epochLen, mt_opts));
            fatalIf(fp != pool_fp,
                    "parallel sweep diverged from serial sweep");
        }));

        // --- predictor table hot path ---
        predict::PcSensitivityTable pc_table{predict::PcTableConfig{}};
        timings.push_back(timeBench("predictor_update", repeats, [&] {
            for (std::uint64_t pc = 0; pc < 4096 * 16; pc += 16)
                pc_table.update(pc, 12.5);
        }));
        timings.push_back(timeBench("predictor_lookup", repeats, [&] {
            double acc = 0.0;
            for (std::uint64_t pc = 0; pc < 4096 * 16; pc += 16) {
                const auto entry = pc_table.lookup(pc);
                acc += entry ? entry->sensitivity : 0.0;
            }
            fatalIf(!std::isfinite(acc), "lookup accumulator corrupt");
        }));

        // --- trace encoding of one realistic epoch frame ---
        {
            trace::EpochFrame frame;
            frame.start = 0;
            frame.end = opts.epochLen;
            frame.accountedEnd = opts.epochLen;
            frame.snapshots = chip.waveSnapshots();
            frame.record = scratch_record;
            frame.decisions.assign(domains.numDomains(),
                                   trace::FrameDecision{});
            const std::string tmp = "perf_suite_trace.tmp.bin";
            auto controller = bench::makeController("STALL", rcfg);
            const trace::TraceMeta meta = trace::makeTraceMeta(
                rcfg, table, workload, *controller);
            timings.push_back(timeBench("trace_encode", repeats, [&] {
                trace::TraceWriter writer(tmp, meta);
                for (int i = 0; i < 32; ++i)
                    writer.writeFrame(frame);
                writer.finish(trace::TraceTrailer{});
                fatalIf(!writer.ok(), "trace writer failed");
            }));
            std::remove(tmp.c_str());
        }

        // --- end-to-end ACCPC cell at --oracle-threads, checked
        // against the same cell with a serial oracle ---
        auto run_accpc = [&](unsigned oracle_threads) {
            sim::RunConfig cfg = opts.runConfig();
            cfg.oracleThreads = oracle_threads;
            sim::ExperimentDriver driver(cfg);
            auto controller = bench::makeController("ACCPC", cfg);
            return driver.run(app, *controller);
        };
        const std::uint64_t e2e_serial_fp = resultFingerprint(run_accpc(1));
        timings.push_back(timeBench("e2e_accpc_pool", repeats, [&] {
            fatalIf(resultFingerprint(run_accpc(opts.oracleThreads)) !=
                        e2e_serial_fp,
                    "e2e run diverged from its serial-oracle run");
        }));

        // --- decision provenance: audited end-to-end cell ---
        // The provenance sink only observes, so an armed run must
        // compute exactly what the unaudited run computes; timing
        // both keeps the pending-record/hindsight-scoring path under
        // the regression gate without conflating it with simulation
        // cost drift.
        auto run_pcstall = [&](obs::ProvenanceLog *sink) {
            sim::RunConfig cfg = opts.runConfig();
            sim::ExperimentDriver driver(cfg);
            driver.setProvenance(sink);
            auto controller = bench::makeController("PCSTALL", cfg);
            return driver.run(app, *controller);
        };
        std::uint64_t pcstall_fp = 0;
        timings.push_back(timeBench("e2e_pcstall", repeats, [&] {
            pcstall_fp = resultFingerprint(run_pcstall(nullptr));
        }));
        timings.push_back(
            timeBench("provenance_overhead", repeats, [&] {
                obs::ProvenanceLog log;
                fatalIf(resultFingerprint(run_pcstall(&log)) !=
                            pcstall_fp,
                        "audited run diverged from unaudited run");
                fatalIf(log.records.empty() || log.regret.empty(),
                        "audited run produced no provenance");
            }));

        // --- replay trace cache: capture-on-miss vs warm replay ---
        // A small design-study grid (four controllers over one
        // workload, plus the shared baseline) run through the sweep
        // runner with --trace-cache semantics. The cold case starts
        // from an empty library every iteration and pays simulate +
        // capture; the warm case resolves every cell to a cached
        // replay. Their ratio is the speedup the replay-first
        // workflow (docs/replay_studies.md) delivers, and the
        // same-machine gate below holds it above 10x.
        std::uint64_t cache_cold_fp = 0;
        {
            const std::string cache_root = "perf_suite_trace_cache.tmp";
            auto sweep = [&]() {
                bench::BenchOptions sopts = opts;
                sopts.traceCacheDir = cache_root;
                sopts.threads = 1;
                bench::SweepRunner runner(sopts);
                std::vector<bench::SweepCell> cells;
                cells.push_back(runner.cell(workload, "PCSTALL", true));
                cells.push_back(runner.cell(workload, "STALL"));
                cells.push_back(runner.cell(workload, "GPHT"));
                cells.push_back(runner.cell(workload, "ACCPC"));
                const auto out = runner.run(std::move(cells));
                std::uint64_t fp = 0xCBF29CE484222325ULL;
                for (const bench::CellOutcome &cell : out) {
                    fatalIf(!cell.run.ok,
                            "trace-cache sweep cell failed: " +
                                cell.run.error);
                    fp = hashCombine(fp,
                                     resultFingerprint(cell.run.result));
                }
                // 4 cells + the shared baseline, cold (captured) and
                // warm (replayed, nothing recaptured) alike.
                fatalIf(runner.traceCache() == nullptr ||
                            runner.traceCache()->entryCount() != 5,
                        "trace-cache sweep library count unexpected");
                return fp;
            };
            timings.push_back(timeBenchPrepared(
                "trace_cache_cold", repeats,
                [&] { std::filesystem::remove_all(cache_root); },
                [&] { cache_cold_fp = sweep(); }));
            // The library left by the last cold iteration serves every
            // warm iteration; identity against the cold results makes
            // the pair double as the replay-determinism gate.
            timings.push_back(timeBench("trace_cache_warm", repeats, [&] {
                fatalIf(sweep() != cache_cold_fp,
                        "warm replay sweep diverged from cold capture");
            }));
            std::filesystem::remove_all(cache_root);
        }

        inform("identity checks passed: "
               "sweep serial == parallel, e2e serial == threaded, "
               "audited, replayed");

        // --- report ---
        obs::Registry &reg = obs::reg();
        TableWriter out_table(
            {"benchmark", "median (us)", "min (us)", "max (us)"});
        for (const BenchTiming &t : timings) {
            out_table.beginRow()
                .cell(t.name)
                .cell(t.medianNs() / 1e3, 1)
                .cell(t.minNs() / 1e3, 1)
                .cell(t.maxNs() / 1e3, 1);
            out_table.endRow();
            if (obs::metricsEnabled()) {
                reg.gauge("perf." + t.name + ".median_ns",
                          obs::MetricKind::Timing)
                    .set(t.medianNs());
            }
        }
        auto min_of = [&](const std::string &name) {
            for (const BenchTiming &t : timings)
                if (t.name == name)
                    return t.minNs();
            return -1.0;
        };

        bench::emit(opts, out_table);
        if (!out_path.empty())
            writeJson(out_path, opts, workload, repeats, mt_threads,
                      timings);

        // --- regression gate ---
        int failures = 0;
        if (!baseline_path.empty()) {
            const BaselineDoc base = readBaseline(baseline_path);
            if (!base.ok) {
                warn("cannot read baseline " + baseline_path);
                ++failures;
            } else if (base.fingerprint !=
                       configFingerprint(opts, workload)) {
                warn("baseline config fingerprint mismatch (" +
                     base.fingerprint + "): rerun with the baseline's "
                     "--cus/--scale/--epoch-us/--seed/--workloads");
                ++failures;
            } else {
                // Gate on min-of-N: the minimum over the timed
                // repeats (after the warmup iteration) is the least
                // noise-contaminated estimate of the path's cost.
                for (const BenchTiming &t : timings) {
                    const double ref = base.minOf(t.name);
                    if (ref <= 0.0) {
                        warn("baseline lacks benchmark " + t.name);
                        continue;
                    }
                    if (t.minNs() > ref * tolerance) {
                        warn(t.name + " regressed: min " +
                             std::to_string(t.minNs() / 1e3) +
                             " us vs baseline min " +
                             std::to_string(ref / 1e3) + " us (>" +
                             std::to_string(tolerance) + "x)");
                        ++failures;
                    }
                }
            }
            // Same-machine invariant: a pooled restore must beat the
            // deep copy it replaces, the one reason the pool exists.
            if (min_of("pool_restore") > min_of("chip_copy")) {
                warn("pooled restore slower than a full chip copy");
                ++failures;
            }
            // The decision audit re-scores every candidate state
            // once per epoch - bounded work that must stay a small
            // fraction of the cell it observes. e2e cells run tens of
            // ms and pick up the most scheduler noise, so the band is
            // wide enough to survive a busy machine.
            if (min_of("provenance_overhead") >
                min_of("e2e_pcstall") * 1.35) {
                warn("audited cell slower than unaudited cell by "
                     ">35%");
                ++failures;
            }
            // The replay acceptance bar (docs/replay_studies.md): a
            // warm-cache design-study sweep must be at least 10x
            // faster than the cold capture sweep it replaces.
            if (min_of("trace_cache_warm") * 10.0 >
                min_of("trace_cache_cold")) {
                warn("warm trace-cache sweep is not >=10x faster "
                     "than the cold capture sweep");
                ++failures;
            }
            if (obs::metricsEnabled())
                reg.counter("perf.regressions")
                    .add(static_cast<std::uint64_t>(failures));
            if (failures == 0)
                inform("regression check passed vs " + baseline_path);
        }
        return failures == 0 ? 0 : 1;
    });
}
