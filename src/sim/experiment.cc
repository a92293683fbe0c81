#include "sim/experiment.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/stats_util.hh"
#include "faults/fault_injector.hh"
#include "obs/context.hh"
#include "oracle/fork_pre_execute.hh"
#include "oracle/snapshot_pool.hh"
#include "sim/epoch_ledger.hh"
#include "sim/parallel_executor.hh"

namespace pcstall::sim
{

void
scaleToCus(gpu::GpuConfig &gpu_cfg, power::PowerParams &power_cfg,
           std::uint32_t num_cus)
{
    fatalIf(num_cus == 0, "scaleToCus: zero CUs");
    gpu_cfg.numCus = num_cus;
    const double frac = static_cast<double>(num_cus) / 64.0;
    auto scale_count = [&](std::uint32_t paper_value,
                           std::uint32_t floor_value) {
        return std::max<std::uint32_t>(
            floor_value, static_cast<std::uint32_t>(
                std::llround(paper_value * frac)));
    };
    gpu_cfg.mem.l2Banks = scale_count(16, 2);
    gpu_cfg.mem.dramChannels = scale_count(8, 1);
    const std::uint64_t slice = 256 * 1024; // 4 MiB / 16 banks
    gpu_cfg.mem.l2SizeBytes = slice * gpu_cfg.mem.l2Banks;
    power_cfg.memStatic = 56.0 * std::max(frac, 0.05);
}

std::string
validateRunConfig(const RunConfig &config)
{
    if (config.epochLen <= 0)
        return "run config: epoch length must be positive";
    if (config.maxSimTime <= 0)
        return "run config: simulation wall must be positive";
    if (config.gpu.numCus == 0)
        return "run config: need at least one CU";
    if (config.cusPerDomain == 0 ||
        config.gpu.numCus % config.cusPerDomain != 0) {
        return "run config: CU count must divide evenly into "
               "V/f domains";
    }
    if (power::VfTable::paperTable().indexOf(config.nominalFreq) < 0)
        return "run config: nominal frequency is not a V/f table state";
    const faults::FaultConfig &f = config.faults;
    if (f.telemetry.sigma < 0.0 || f.telemetry.dropoutProb < 0.0 ||
        f.telemetry.dropoutProb > 1.0) {
        return "run config: telemetry fault parameters out of range";
    }
    if (f.dvfs.transitionFailProb < 0.0 ||
        f.dvfs.transitionFailProb > 1.0 ||
        f.dvfs.extraSwitchLatency < 0) {
        return "run config: DVFS fault parameters out of range";
    }
    if (f.storage.upsetsPerEpoch < 0.0)
        return "run config: storage fault parameters out of range";
    return "";
}

ExperimentDriver::ExperimentDriver(const RunConfig &config)
    : cfg(config), vfTable(power::VfTable::paperTable()),
      powerModel(config.power), nominalIdx(0)
{
    const std::string err = validateRunConfig(cfg);
    fatalIf(!err.empty(), err);
    nominalIdx = static_cast<std::size_t>(
        vfTable.indexOf(cfg.nominalFreq));
}

RunResult
ExperimentDriver::run(std::shared_ptr<const isa::Application> app,
                      dvfs::DvfsController &controller,
                      EpochObserver *observer)
{
    gpu::GpuConfig gpu_cfg = cfg.gpu;
    gpu_cfg.defaultFreq = cfg.nominalFreq;
    gpu::GpuChip chip(gpu_cfg, app);

    const dvfs::DomainMap domains(gpu_cfg.numCus, cfg.cusPerDomain);
    const Tick trans = cfg.transitionLatency >= 0
        ? cfg.transitionLatency : gpu::transitionLatencyFor(cfg.epochLen);
    const dvfs::SweepNeed need = controller.sweepNeed();

    // One snapshot pool per run: after the first epoch its scratch
    // chips hit their capacity high-water mark and every later sweep
    // is allocation-free. The in-cell executor (if requested) spreads
    // the S independent samples across its threads, one scratch chip
    // per thread; the reduction stays on this thread in sample order,
    // so results are byte-identical to the serial path either way.
    oracle::SnapshotPool sweep_pool;
    std::unique_ptr<ParallelExecutor> sweep_exec;
    if (cfg.oracleThreads > 1 && need != dvfs::SweepNeed::None)
        sweep_exec = std::make_unique<ParallelExecutor>(cfg.oracleThreads);
    oracle::SweepOptions sweep_opts;
    sweep_opts.shuffle = true;
    sweep_opts.waveLevel = controller.needsWaveLevel();
    sweep_opts.pool = &sweep_pool;
    sweep_opts.executor = sweep_exec.get();

    faults::FaultInjector injector(cfg.faults);
    // All metric arithmetic lives in the ledger, shared with the trace
    // replay engine so capture-then-replay reproduces it bit-for-bit.
    EpochLedger ledger(cfg, vfTable, powerModel, domains, nominalIdx);

    RunResult result;
    result.controller = controller.name();
    result.workload = app->name;

    // Self-profile counters: where a run's wall time goes (simulate =
    // timing model, predict = controller decisions, oracle = forked
    // pre-execution, encode = observers/trace capture). All
    // Timing-kind: real but non-deterministic, exported separately.
    obs::Registry &registry = obs::reg();
    obs::Counter &simulate_ns =
        registry.counter("profile.simulate_ns", obs::MetricKind::Timing);
    obs::Counter &predict_ns =
        registry.counter("profile.predict_ns", obs::MetricKind::Timing);
    obs::Counter &oracle_ns =
        registry.counter("profile.oracle_ns", obs::MetricKind::Timing);
    obs::Counter &encode_ns =
        registry.counter("profile.encode_ns", obs::MetricKind::Timing);
    obs::Histogram &epoch_wall = registry.histogram(
        "sim.epoch_wall_ns", obs::MetricKind::Timing);
    obs::Histogram &decide_wall = registry.histogram(
        "predict.decide_wall_ns", obs::MetricKind::Timing);

    dvfs::AccurateEstimates prev_sweep;
    static const std::vector<gpu::WaveSnapshot> no_snapshots;
    static const std::vector<dvfs::DomainDecision> no_decisions;
    static const std::vector<std::size_t> no_applied;

    Tick epoch_start = 0;
    bool done = false;
    // Harvest buffers live outside the loop: harvestEpoch() and
    // perturbRecord() fully overwrite them each epoch, so hoisting
    // them trades one allocation per epoch for vector-capacity reuse.
    gpu::EpochRecord record;
    gpu::EpochRecord observed_storage;
    while (!done && epoch_start < cfg.maxSimTime) {
        if (cfg.deadlineNs != 0 && obs::steadyNowNs() > cfg.deadlineNs) {
            fatal("run cancelled after " +
                  std::to_string(result.epochs) +
                  " epoch(s): cell wall-time budget exceeded "
                  "(--cell-timeout)");
        }
        const std::int64_t epoch_t0 = obs::nowNsIfEnabled();
        const Tick epoch_end = epoch_start + cfg.epochLen;
        {
            const obs::ScopedTimer timer(nullptr, &simulate_ns);
            done = chip.runUntil(epoch_end);
            chip.harvestEpoch(epoch_start, record);
        }
        ++result.epochs;

        // Controllers see the *observed* record; energy accounting,
        // accuracy scoring and traces keep the physical one, so noisy
        // sensors cannot retroactively change what really happened.
        const faults::FaultInjector::Totals epoch_base =
            injector.totals();
        const std::uint64_t fallback_base = controller.fallbackEpochs();
        const gpu::EpochRecord *observed = &record;
        if (cfg.faults.telemetry.enabled) {
            observed_storage = record;
            injector.perturbRecord(observed_storage, cfg.epochLen);
            observed = &observed_storage;
        }

        const Tick accounted_end =
            done ? std::min(epoch_end, chip.lastCommitTick()) : epoch_end;
        ledger.observeEpoch(record, *observed, epoch_start,
                            accounted_end);

        if (done) {
            if (observer) {
                const obs::ScopedTimer timer(nullptr, &encode_ns);
                observer->onEpoch(EpochCapture{
                    epoch_start, epoch_end, accounted_end, true,
                    record, no_snapshots, nullptr, no_decisions,
                    no_applied});
            }
            obs::recordSinceNs(epoch_wall, epoch_t0);
            break;
        }

        // --- sweeps for accurate-estimate controllers ---
        dvfs::AccurateEstimates cur_sweep;
        if (need != dvfs::SweepNeed::None) {
            const obs::ScopedTimer timer(nullptr, &oracle_ns);
            cur_sweep = oracle::forkPreExecuteSweep(
                chip, domains, vfTable, cfg.epochLen, sweep_opts);
        }

        // --- decide & apply next epoch's frequencies ---
        const std::vector<gpu::WaveSnapshot> snaps =
            chip.waveSnapshots();
        const dvfs::EpochContext ctx = ledger.makeContext(
            *observed, snaps,
            prev_sweep.empty() ? nullptr : &prev_sweep,
            cur_sweep.empty() ? nullptr : &cur_sweep);

        // Storage upsets land between epochs, before the controller
        // reads its tables (no-op unless storage faults are enabled).
        controller.applyStorageFaults(injector);

        std::vector<dvfs::DomainDecision> decisions;
        {
            const obs::ScopedTimer timer(&decide_wall, &predict_ns);
            decisions = decideEpoch(
                controller, ctx, need, !prev_sweep.empty(),
                domains.numDomains(), nominalIdx);
        }

        const std::vector<EpochLedger::AppliedTransition> applied =
            ledger.applyDecisions(decisions, injector);
        for (std::uint32_t d = 0; d < domains.numDomains(); ++d) {
            const Freq freq = vfTable.state(applied[d].state).freq;
            const std::uint32_t first = domains.firstCu(d);
            for (std::uint32_t cu = first;
                 cu < first + domains.cusPerDomain(); ++cu) {
                chip.setCuFrequency(cu, freq,
                                    trans + applied[d].extraLatency);
            }
        }

        ledger.traceEpochFaults(
            epoch_base, injector,
            controller.fallbackEpochs() > fallback_base);

        if (observer) {
            const obs::ScopedTimer timer(nullptr, &encode_ns);
            std::vector<std::size_t> applied_states(
                domains.numDomains());
            for (std::uint32_t d = 0; d < domains.numDomains(); ++d)
                applied_states[d] = applied[d].state;
            observer->onEpoch(EpochCapture{
                epoch_start, epoch_end, accounted_end, false, record,
                snaps, cur_sweep.empty() ? nullptr : &cur_sweep,
                decisions, applied_states, &ledger.lastEpochFaults()});
        }

        obs::recordSinceNs(epoch_wall, epoch_t0);
        prev_sweep = std::move(cur_sweep);
        epoch_start = epoch_end;
    }

    if (!done) {
        warnLimited(
            "sim-wall",
            "run of '" + app->name + "' under " + controller.name() +
                " hit the simulation wall at " +
                std::to_string(cfg.maxSimTime / tickUs) + " us");
    }
    ledger.finalize(result, done, chip.lastCommitTick(),
                    chip.totalCommitted(), injector, controller);
    if (observer)
        observer->onRunEnd(result);
    return result;
}

} // namespace pcstall::sim
