/**
 * @file
 * trace_inspect: the epoch-trace Swiss-army knife.
 *
 *   trace_inspect header  <trace>            dump meta + trailer
 *   trace_inspect stats   <trace>            per-epoch statistics
 *   trace_inspect csv     <trace>            export run-trace CSV
 *   trace_inspect diff    <a> <b>            compare two traces
 *   trace_inspect capture --workload W --controller C --out T [...]
 *                                            run live and record
 *   trace_inspect replay  <trace> [--controller C] [--csv-out F]
 *                                            re-drive a controller
 *   trace_inspect metrics <trace> [--controller C] [--out F]
 *                                            replay under the metrics
 *                                            registry and report
 *   trace_inspect library <dir> [list|verify|gc]
 *                                            inspect a --trace-cache
 *                                            replay library
 *
 * `capture` accepts every bench-harness option (--cus, --scale,
 * --epoch-us, --domain-cus, --seed, fault flags, ...). `replay`
 * rebuilds the captured controller from the trace meta (or any other
 * design via --controller), verifies its decisions against the
 * recorded ones when the names match, and reports the wall-clock
 * speedup over the captured live run. With --threads N (N > 1) the
 * replay is additionally re-driven N times concurrently on fresh
 * controllers and every outcome is checked for bit-identity - a
 * thread-safety/determinism self-test of the replay path. Exit
 * status: 0 on success / traces equal / replay deterministic, 1
 * otherwise.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "core/pcstall_controller.hh"
#include "obs/context.hh"
#include "obs/metrics.hh"
#include "dvfs/objective.hh"
#include "harness.hh"
#include "sim/parallel_executor.hh"
#include "sim/trace_export.hh"
#include "trace/format.hh"
#include "trace/library.hh"
#include "trace/replay.hh"
#include "trace/snapshot.hh"

using namespace pcstall;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: trace_inspect <command> [arguments]\n"
        "  header  <trace>                     dump meta + trailer\n"
        "  stats   <trace>                     per-epoch statistics\n"
        "  csv     <trace>                     export run-trace CSV\n"
        "  diff    <a> <b>                     compare two traces\n"
        "  capture --workload W --controller C --out T [bench opts]\n"
        "  replay  <trace> [--controller C] [--csv-out F]\n"
        "          [--pc-snapshot-out F] [--no-verify] [--quiet]\n"
        "          [--threads N]   N concurrent re-drives, all\n"
        "                          verified bit-identical\n"
        "  metrics <trace> [--controller C] [--out F]\n"
        "          replay with the metrics registry armed and print\n"
        "          the merged snapshot; --out writes it as JSON (or\n"
        "          Prometheus text with a .prom/.txt extension)\n"
        "  library <dir> [list|verify|gc]\n"
        "          inspect a --trace-cache library: `list` (default)\n"
        "          tabulates entries without decoding, `verify`\n"
        "          decodes every entry and quarantines corrupt ones\n"
        "          (exit 1 when any fail), `gc` removes orphan traces,\n"
        "          dangling sidecars and stale staging temps\n");
    return 2;
}

trace::TraceData
loadOrDie(const std::string &path)
{
    trace::TraceReadResult read = trace::readTraceFile(path);
    if (!read.ok())
        fatal(read.error);
    return std::move(*read.trace);
}

/** Index of @p freq in the captured V/f table (-1 when absent). */
int
stateOf(const trace::TraceMeta &meta, Freq freq)
{
    for (std::size_t i = 0; i < meta.vfStates.size(); ++i) {
        if (meta.vfStates[i].freq == freq)
            return static_cast<int>(i);
    }
    return -1;
}

void
printMeta(const trace::TraceData &data)
{
    const trace::TraceMeta &m = data.meta;
    std::printf("workload:        %s", m.workload.c_str());
    if (m.workloadScale > 0.0) {
        std::printf(" (scale %.2f, seed %" PRIu64 ")", m.workloadScale,
                    m.workloadSeed);
    }
    std::printf("\n");
    std::printf("controller:      %s%s\n", m.controller.c_str(),
                m.hierarchical.enabled ? " (power-capped)" : "");
    std::printf("geometry:        %u CUs, %u wave slots/CU, "
                "%u CU(s)/domain (%u domains)\n",
                m.numCus, m.waveSlotsPerCu, m.cusPerDomain,
                m.numDomains());
    std::printf("epoch length:    %.3f us\n",
                static_cast<double>(m.epochLen) /
                    static_cast<double>(tickUs));
    std::printf("objective:       %s\n",
                dvfs::objectiveName(
                    static_cast<dvfs::Objective>(m.objective)));
    std::printf("nominal freq:    %.2f GHz (state %d of %zu)\n",
                freqGHzD(m.nominalFreq), stateOf(m, m.nominalFreq),
                m.vfStates.size());
    std::printf("V/f table:       ");
    for (const power::VfState &s : m.vfStates)
        std::printf("%.1f@%.2fV ", freqGHzD(s.freq), s.voltage);
    std::printf("\n");
    std::printf("faults:          telemetry=%s dvfs=%s storage=%s "
                "(seed %" PRIu64 ")\n",
                m.faults.telemetry.enabled ? "on" : "off",
                m.faults.dvfs.enabled ? "on" : "off",
                m.faults.storage.enabled ? "on" : "off",
                m.faults.seed);
    std::printf("sweeps recorded: %s\n",
                m.sweepNeed == 0 ? "no"
                : m.waveLevel    ? "yes, with per-wave sensitivities"
                                 : "yes");
    std::printf("pc snapshot:     %s\n",
                data.pcSnapshot.empty()
                    ? "absent"
                    : (std::to_string(data.pcSnapshot.tables.size()) +
                       " table(s) x " +
                       std::to_string(data.pcSnapshot.config.entries) +
                       " entries")
                          .c_str());
    std::printf("epochs:          %" PRIu64 " (%s)\n",
                data.trailer.frameCount,
                data.trailer.completed ? "run completed"
                                       : "hit the simulation wall");
    std::printf("instructions:    %" PRIu64 "\n",
                data.trailer.totalCommitted);
    std::printf("exec time:       %.3f us\n",
                static_cast<double>(data.trailer.lastCommitTick) /
                    static_cast<double>(tickUs));
    std::printf("capture wall:    %.1f ms\n",
                data.trailer.captureWallMs);
}

int
cmdHeader(const std::string &path)
{
    const trace::TraceData data = loadOrDie(path);
    printMeta(data);
    return 0;
}

int
cmdStats(const std::string &path)
{
    const trace::TraceData data = loadOrDie(path);
    printMeta(data);
    std::printf("\n%-8s %-12s %-10s %-10s %-8s %s\n", "epoch",
                "t_us", "instr", "waves", "changes", "mean_state");
    std::vector<std::uint64_t> residency(data.meta.vfStates.size(), 0);
    std::uint64_t transitions = 0;
    std::vector<std::size_t> prev_state(data.meta.numDomains(), 0);
    bool have_prev = false;
    for (std::size_t i = 0; i < data.frames.size(); ++i) {
        const trace::EpochFrame &f = data.frames[i];
        std::uint64_t active_waves = 0;
        for (const gpu::WaveEpochRecord &w : f.record.waves)
            active_waves += w.active ? 1 : 0;
        std::uint64_t changes = 0;
        double state_sum = 0.0;
        for (std::size_t d = 0; d < f.decisions.size(); ++d) {
            const std::size_t applied = f.decisions[d].applied;
            residency[applied] += 1;
            state_sum += static_cast<double>(applied);
            if (have_prev && applied != prev_state[d])
                ++changes;
            prev_state[d] = applied;
        }
        if (!f.decisions.empty())
            have_prev = true;
        transitions += changes;
        std::printf("%-8zu %-12.3f %-10" PRIu64 " %-10" PRIu64
                    " %-8" PRIu64 " %.2f\n",
                    i,
                    static_cast<double>(f.start) /
                        static_cast<double>(tickUs),
                    f.record.totalCommitted(), active_waves, changes,
                    f.decisions.empty()
                        ? 0.0
                        : state_sum /
                            static_cast<double>(f.decisions.size()));
    }
    std::printf("\ndomain-epoch V/f residency:\n");
    std::uint64_t total = 0;
    for (std::uint64_t r : residency)
        total += r;
    for (std::size_t s = 0; s < residency.size(); ++s) {
        if (residency[s] == 0)
            continue;
        std::printf("  %.1f GHz: %5.1f%%\n",
                    freqGHzD(data.meta.vfStates[s].freq),
                    total > 0 ? 100.0 * static_cast<double>(
                                            residency[s]) /
                            static_cast<double>(total)
                              : 0.0);
    }
    std::printf("domain state changes: %" PRIu64 "\n", transitions);
    return 0;
}

/**
 * Export the epochs of a trace in the run-trace CSV schema
 * (sim::writeRunTraceCsv): states are recovered from the per-CU
 * operating frequencies the frames recorded.
 */
int
cmdCsv(const std::string &path, std::ostream &os)
{
    const trace::TraceData data = loadOrDie(path);
    const dvfs::DomainMap domains(data.meta.numCus,
                                  data.meta.cusPerDomain);
    sim::RunResult synth;
    for (const trace::EpochFrame &f : data.frames) {
        sim::EpochTraceEntry entry;
        entry.start = f.start;
        for (std::uint32_t d = 0; d < domains.numDomains(); ++d) {
            const Freq freq =
                f.record.cus[domains.firstCu(d)].freq;
            const int state = stateOf(data.meta, freq);
            if (state < 0) {
                fatal("frame frequency " +
                      std::to_string(freq / freqMHz) +
                      " MHz is not a V/f table state");
            }
            entry.domainState.push_back(
                static_cast<std::uint8_t>(state));
            entry.domainCommitted.push_back(
                dvfs::domainCommitted(domains, d, f.record));
        }
        synth.trace.push_back(std::move(entry));
    }
    sim::writeRunTraceCsv(os, synth,
                          trace::vfTableFromMeta(data.meta));
    return 0;
}

int
cmdDiff(const std::string &path_a, const std::string &path_b)
{
    const trace::TraceData a = loadOrDie(path_a);
    const trace::TraceData b = loadOrDie(path_b);
    std::uint64_t diffs = 0;
    auto report = [&](const std::string &what) {
        if (diffs < 20)
            std::printf("  %s\n", what.c_str());
        ++diffs;
    };
    if (a.meta.workload != b.meta.workload) {
        report("workload: " + a.meta.workload + " vs " +
               b.meta.workload);
    }
    if (a.meta.controller != b.meta.controller) {
        report("controller: " + a.meta.controller + " vs " +
               b.meta.controller);
    }
    if (a.meta.numCus != b.meta.numCus ||
        a.meta.cusPerDomain != b.meta.cusPerDomain ||
        a.meta.epochLen != b.meta.epochLen) {
        report("geometry/epoch configuration differs");
    }
    if (a.frames.size() != b.frames.size()) {
        report("epoch count: " + std::to_string(a.frames.size()) +
               " vs " + std::to_string(b.frames.size()));
    }
    const std::size_t frames =
        std::min(a.frames.size(), b.frames.size());
    for (std::size_t i = 0; i < frames; ++i) {
        const trace::EpochFrame &fa = a.frames[i];
        const trace::EpochFrame &fb = b.frames[i];
        if (fa.record.totalCommitted() != fb.record.totalCommitted()) {
            report("epoch " + std::to_string(i) + ": committed " +
                   std::to_string(fa.record.totalCommitted()) +
                   " vs " +
                   std::to_string(fb.record.totalCommitted()));
        }
        const std::size_t nd =
            std::min(fa.decisions.size(), fb.decisions.size());
        if (fa.decisions.size() != fb.decisions.size()) {
            report("epoch " + std::to_string(i) +
                   ": decision counts differ");
        }
        for (std::size_t d = 0; d < nd; ++d) {
            if (fa.decisions[d].decided != fb.decisions[d].decided ||
                fa.decisions[d].applied != fb.decisions[d].applied) {
                report("epoch " + std::to_string(i) + " domain " +
                       std::to_string(d) + ": state " +
                       std::to_string(fa.decisions[d].decided) + "/" +
                       std::to_string(fa.decisions[d].applied) +
                       " vs " +
                       std::to_string(fb.decisions[d].decided) + "/" +
                       std::to_string(fb.decisions[d].applied));
            }
        }
    }
    if (a.trailer.totalCommitted != b.trailer.totalCommitted ||
        a.trailer.lastCommitTick != b.trailer.lastCommitTick) {
        report("trailer totals differ");
    }
    if (diffs == 0) {
        std::printf("traces match (%zu epochs)\n", a.frames.size());
        return 0;
    }
    if (diffs > 20)
        std::printf("  ... and %" PRIu64 " more\n", diffs - 20);
    std::printf("traces differ (%" PRIu64 " difference(s))\n", diffs);
    return 1;
}

int
cmdCapture(int argc, char **argv)
{
    CliOptions cli(argc, argv);
    const std::string out = cli.get("out", "");
    const std::string design =
        cli.get("controller", cli.get("design", "PCSTALL"));
    if (out.empty()) {
        std::fprintf(stderr, "capture: --out <trace file> required\n");
        return 2;
    }
    const bench::BenchOptions opts = bench::BenchOptions::parse(argc, argv);
    const std::string workload =
        cli.get("workload", opts.firstWorkload("comd"));

    const auto app = bench::makeApp(workload, opts);
    if (!app)
        return 1;
    const sim::RunConfig cfg = opts.runConfig();
    sim::ExperimentDriver driver(cfg);
    std::unique_ptr<dvfs::DvfsController> controller =
        bench::makeController(design, cfg, app.get());
    // Single run: the --out path is used verbatim (unlike the bench
    // harness's sweep captures, which suffix per run).
    sim::RunResult r;
    switch (bench::runCapturing(driver, app, *controller, opts, workload,
                                out, r)) {
    case bench::Capture::Unwritable:
        std::fprintf(stderr, "capture: cannot write '%s'\n",
                     out.c_str());
        return 1;
    case bench::Capture::IoError:
        std::fprintf(stderr, "capture: I/O error writing '%s'\n",
                     out.c_str());
        return 1;
    case bench::Capture::Written:
        break;
    }
    std::printf("captured %zu epochs of %s under %s -> %s\n",
                r.epochs, workload.c_str(), controller->name().c_str(),
                out.c_str());
    return 0;
}

int
cmdReplay(const std::string &path, int argc, char **argv)
{
    CliOptions cli(argc, argv);
    const trace::TraceData data = loadOrDie(path);
    const std::string design =
        cli.get("controller", data.meta.controller);
    const bool verify =
        !cli.has("no-verify") && design == data.meta.controller;
    const bool quiet = cli.has("quiet");

    bench::ReplayController rc =
        bench::makeReplayController(data.meta, design);
    trace::ReplayDriver replayer(data);
    trace::ReplayOptions ropts;
    ropts.verifyDecisions = verify;
    const trace::ReplayOutcome outcome = replayer.run(*rc.use, ropts);
    if (!outcome.ok())
        fatal(outcome.error);

    const sim::RunResult &r = outcome.result;
    if (!quiet) {
        std::printf("replayed %zu epochs of %s under %s\n", r.epochs,
                    r.workload.c_str(), r.controller.c_str());
        std::printf("  energy:        %.6f J\n", r.energy);
        std::printf("  exec time:     %.3f us\n", r.seconds() * 1e6);
        std::printf("  instructions:  %" PRIu64 "\n", r.instructions);
        std::printf("  accuracy:      %.4f\n", r.predictionAccuracy);
        std::printf("  transitions:   %" PRIu64 "\n", r.transitions);
        std::printf("  ed2p:          %.6e\n", r.ed2p());
        if (outcome.captureWallMs > 0.0) {
            std::printf("  wall clock:    %.2f ms replay vs %.2f ms "
                        "live (%.1fx speedup)\n",
                        outcome.replayWallMs, outcome.captureWallMs,
                        outcome.speedup());
        }
    }

    const std::string csv_out = cli.get("csv-out", "");
    if (!csv_out.empty()) {
        if (!sim::writeRunTraceCsvFile(
                csv_out, r, trace::vfTableFromMeta(data.meta))) {
            fatal("cannot write '" + csv_out + "'");
        }
    }
    const std::string snap_out = cli.get("pc-snapshot-out", "");
    if (!snap_out.empty()) {
        auto *pcstall = dynamic_cast<core::PcstallController *>(
            rc.inner.get());
        if (pcstall == nullptr) {
            warn("--pc-snapshot-out: " + design +
                 " has no PC table; nothing written");
        } else if (!trace::writePcSnapshotFile(
                       snap_out, trace::snapshotPcTables(
                                     pcstall->pcTables()))) {
            fatal("cannot write '" + snap_out + "'");
        }
    }

    if (verify) {
        if (outcome.decisionMismatches == 0) {
            std::printf("replay deterministic: every decision matches "
                        "the captured run\n");
        } else {
            std::printf("replay NOT deterministic: %" PRIu64
                        " mismatch(es); first: %s\n",
                        outcome.decisionMismatches,
                        outcome.firstMismatch.c_str());
            return 1;
        }
    }

    // --threads N: re-drive the trace N times concurrently on fresh
    // controllers and require every outcome to be bit-identical to
    // the serial replay above - a thread-safety/determinism self-test
    // of the replay path.
    const unsigned threads = static_cast<unsigned>(
        std::strtoul(cli.get("threads", "1").c_str(), nullptr, 10));
    if (threads > 1) {
        sim::ParallelExecutor pool(threads);
        std::vector<trace::ReplayOutcome> outs(threads);
        pool.forEach(threads, [&](std::size_t i) {
            bench::ReplayController c =
                bench::makeReplayController(data.meta, design);
            trace::ReplayDriver rd(data);
            outs[i] = rd.run(*c.use, ropts);
        });
        unsigned diverged = 0;
        for (const trace::ReplayOutcome &o : outs) {
            const sim::RunResult &s = o.result;
            if (!o.ok() || s.epochs != r.epochs ||
                s.execTime != r.execTime || s.energy != r.energy ||
                s.instructions != r.instructions ||
                s.predictionAccuracy != r.predictionAccuracy ||
                s.transitions != r.transitions ||
                o.decisionMismatches != outcome.decisionMismatches)
                ++diverged;
        }
        if (diverged != 0) {
            std::printf("parallel replay NOT deterministic: %u of %u "
                        "concurrent replays diverged from the serial "
                        "outcome\n",
                        diverged, threads);
            return 1;
        }
        if (!quiet) {
            std::printf("parallel replay deterministic: %u concurrent "
                        "replays bit-identical to the serial run\n",
                        threads);
        }
    }
    return 0;
}

/**
 * Replay a trace with the metrics registry armed and print the merged
 * snapshot - the quickest way to read a captured run's PC-table hit
 * rate, replay statistics and quantization-error distribution without
 * re-simulating. --out additionally writes the snapshot through the
 * standard exporters (JSON, or Prometheus text for .prom/.txt).
 */
int
cmdMetrics(const std::string &path, int argc, char **argv)
{
    CliOptions cli(argc, argv);
    const trace::TraceData data = loadOrDie(path);
    const std::string design =
        cli.get("controller", data.meta.controller);

    // Arm the registry; the --out file (when given) is flushed by
    // guardedMain through writeObservabilityOutputs.
    bench::BenchOptions obs_opts;
    obs_opts.metricsOut = cli.get("out", "");
    bench::configureObservability(obs_opts);
    obs::setMetricsEnabled(true);

    bench::ReplayController rc =
        bench::makeReplayController(data.meta, design);
    trace::ReplayDriver replayer(data);
    trace::ReplayOptions ropts;
    ropts.verifyDecisions = design == data.meta.controller;
    const trace::ReplayOutcome outcome = replayer.run(*rc.use, ropts);
    if (!outcome.ok())
        fatal(outcome.error);
    if (auto *pcstall = dynamic_cast<core::PcstallController *>(
            rc.inner.get())) {
        bench::publishPcTableMetrics(*pcstall);
    }

    const obs::MetricsSnapshot snap = obs::collectedSnapshot();
    std::printf("replayed %zu epochs of %s under %s\n",
                outcome.result.epochs, data.meta.workload.c_str(),
                outcome.result.controller.c_str());

    std::printf("\ncounters:\n");
    for (const auto &[name, value] : snap.counters)
        std::printf("  %-28s %" PRIu64 "\n", name.c_str(), value);
    if (!snap.gauges.empty()) {
        std::printf("\ngauges:\n");
        for (const auto &[name, value] : snap.gauges)
            std::printf("  %-28s %g\n", name.c_str(), value);
    }
    if (!snap.histograms.empty()) {
        std::printf("\nhistograms:\n");
        for (const auto &[name, hist] : snap.histograms) {
            std::printf("  %-28s n=%" PRIu64
                        " p50=%.4g p95=%.4g p99=%.4g max=%.4g\n",
                        name.c_str(), hist.count,
                        hist.percentile(0.50), hist.percentile(0.95),
                        hist.percentile(0.99), hist.max);
        }
    }

    const auto counter = [&](const char *name) -> std::uint64_t {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0 : it->second;
    };
    const std::uint64_t lookups = counter("pc_table.lookups");
    if (lookups > 0) {
        std::printf("\npc-table hit rate: %.2f%% (%" PRIu64 " of %"
                    PRIu64 " lookups)\n",
                    100.0 * static_cast<double>(
                                counter("pc_table.hits")) /
                        static_cast<double>(lookups),
                    counter("pc_table.hits"), lookups);
    }
    return 0;
}

/** Split a sidecar key text on the library's unit separator. */
std::vector<std::string>
splitKeyText(const std::string &text)
{
    std::vector<std::string> fields;
    std::string cur;
    for (const char c : text) {
        if (c == '\x1f') {
            fields.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    fields.push_back(cur);
    return fields;
}

/**
 * Inspect a --trace-cache replay library (docs/replay_studies.md).
 *
 * `list` prints one row per published entry straight from the sidecar
 * texts - no trace is decoded, so it is safe and fast on any library.
 * `verify` additionally decodes every trace and quarantines the ones
 * that fail, mirroring what a sweep's capture-on-miss self-heal would
 * do lazily. `gc` collects the unusable leftovers a crash can leave
 * behind (orphan traces, dangling sidecars, staging temps).
 */
int
cmdLibrary(const std::string &dir, const std::string &sub)
{
    namespace fs = std::filesystem;
    trace::TraceLibrary lib(dir);
    if (!lib.ok())
        fatal(lib.error());

    if (sub == "gc") {
        const std::size_t removed = lib.gcOrphans();
        std::printf("library %s: removed %zu orphan file(s), %zu "
                    "entr%s remain\n",
                    lib.dir().c_str(), removed, lib.entryCount(),
                    lib.entryCount() == 1 ? "y" : "ies");
        return 0;
    }

    const std::vector<trace::TraceLibrary::Entry> entries =
        lib.entries();
    if (sub == "list") {
        std::printf("%-32s %10s %-12s %-24s %-4s %s\n", "digest",
                    "bytes", "workload", "design", "run",
                    "fingerprint");
        for (const trace::TraceLibrary::Entry &e : entries) {
            // Key text layout (library.cc): version, harness,
            // workload, workload digest, design, run index,
            // fingerprint, PC snapshot path.
            const std::vector<std::string> f =
                splitKeyText(e.keyText);
            const bool parsed = f.size() == 8;
            std::printf("%-32s %10ju %-12s %-24s %-4s %s\n",
                        e.digest.c_str(), e.bytes,
                        parsed ? f[2].c_str() : "(orphan)",
                        parsed ? f[4].c_str() : "-",
                        parsed ? f[5].c_str() : "-",
                        parsed ? f[6].c_str() : "-");
        }
        std::printf("%zu entr%s, %zu quarantined\n", entries.size(),
                    entries.size() == 1 ? "y" : "ies",
                    lib.quarantinedCount());
        return 0;
    }

    if (sub == "verify") {
        std::size_t bad = 0;
        for (const trace::TraceLibrary::Entry &e : entries) {
            const fs::path trace_path =
                fs::path(lib.dir()) / (e.digest + ".pctrace");
            const trace::TraceReadResult read =
                trace::readTraceFile(trace_path.string());
            if (read.ok()) {
                std::printf("ok      %s (%" PRIu64 " epochs)\n",
                            e.digest.c_str(),
                            read.trace->trailer.frameCount);
                continue;
            }
            ++bad;
            std::printf("CORRUPT %s: %s\n", e.digest.c_str(),
                        read.error.c_str());
            // Same quarantine as the sweep path, so the next sweep
            // recaptures.
            lib.quarantineEntry(e.digest);
        }
        std::printf("%zu entr%s verified, %zu quarantined now\n",
                    entries.size(), entries.size() == 1 ? "y" : "ies",
                    bad);
        return bad == 0 ? 0 : 1;
    }

    std::fprintf(stderr,
                 "library: unknown subcommand '%s' "
                 "(expected list, verify or gc)\n",
                 sub.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain([&]() -> int {
        if (argc < 2)
            return usage();
        const std::string cmd = argv[1];
        if (cmd == "header" && argc >= 3)
            return cmdHeader(argv[2]);
        if (cmd == "stats" && argc >= 3)
            return cmdStats(argv[2]);
        if (cmd == "csv" && argc >= 3)
            return cmdCsv(argv[2], std::cout);
        if (cmd == "diff" && argc >= 4)
            return cmdDiff(argv[2], argv[3]);
        if (cmd == "capture")
            return cmdCapture(argc - 1, argv + 1);
        if (cmd == "replay" && argc >= 3)
            return cmdReplay(argv[2], argc - 2, argv + 2);
        if (cmd == "metrics" && argc >= 3)
            return cmdMetrics(argv[2], argc - 2, argv + 2);
        if (cmd == "library" && argc >= 3)
            return cmdLibrary(argv[2], argc >= 4 ? argv[3] : "list");
        return usage();
    });
}
