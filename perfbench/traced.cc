#include "traced.hh"

#include <algorithm>

#include "faults/fault_injector.hh"
#include "gpu/gpu_chip.hh"
#include "oracle/fork_pre_execute.hh"
#include "oracle/snapshot_pool.hh"
#include "power/power_model.hh"
#include "sim/epoch_ledger.hh"

namespace pcstall::perfbench
{

std::vector<dvfs::DomainDecision>
TimedController::decide(const dvfs::EpochContext &ctx)
{
    const ScopedSpan span(spans_, SpanKind::Decide);
    return inner_->decide(ctx);
}

namespace
{

void
countEpoch(GpuCounts &counts, const gpu::EpochRecord &record)
{
    ++counts.epochs;
    for (const gpu::CuEpochRecord &cu : record.cus) {
        counts.l1Hits += cu.mem.l1Hits;
        counts.l1Misses += cu.mem.l1Misses;
        counts.l2Hits += cu.mem.l2Hits;
        counts.l2Misses += cu.mem.l2Misses;
        counts.loadStall += cu.loadStall;
        counts.cuTime += record.end - record.start;
    }
}

} // namespace

sim::RunResult
tracedLiveRun(const sim::RunConfig &cfg,
              std::shared_ptr<const isa::Application> app,
              dvfs::DvfsController &controller, SpanRecorder &spans,
              GpuCounts &counts, sim::EpochObserver *observer,
              bool probe_restores)
{
    // Statement for statement sim::ExperimentDriver::run, minus the
    // cancellation check, the metric timers and the in-cell executor.
    const power::VfTable table = power::VfTable::paperTable();
    const power::PowerModel power_model(cfg.power);
    const auto nominal =
        static_cast<std::size_t>(table.indexOf(cfg.nominalFreq));

    gpu::GpuConfig gpu_cfg = cfg.gpu;
    gpu_cfg.defaultFreq = cfg.nominalFreq;
    const std::size_t build_span = spans.open(SpanKind::GpuOther);
    gpu::GpuChip chip(gpu_cfg, app);
    spans.close(build_span);

    const dvfs::DomainMap domains(gpu_cfg.numCus, cfg.cusPerDomain);
    const Tick trans = cfg.transitionLatency >= 0
        ? cfg.transitionLatency : gpu::transitionLatencyFor(cfg.epochLen);
    const dvfs::SweepNeed need = controller.sweepNeed();

    oracle::SnapshotPool sweep_pool;
    oracle::SweepOptions sweep_opts;
    sweep_opts.shuffle = true;
    sweep_opts.waveLevel = controller.needsWaveLevel();
    if (cfg.oracleMode == sim::OracleMode::Pool ||
        cfg.oracleMode == sim::OracleMode::PoolFull) {
        sweep_pool.setDeltaRestore(cfg.oracleMode == sim::OracleMode::Pool);
        sweep_opts.pool = &sweep_pool;
    }
    // The probe pool restores with full copies and never takes the
    // chip's dirty marks, so the sweep pool's delta chain is untouched.
    oracle::SnapshotPool probe_pool;
    probe_pool.setDeltaRestore(false);

    faults::FaultInjector injector(cfg.faults);
    const std::size_t ledger_span = spans.open(SpanKind::Ledger);
    sim::EpochLedger ledger(cfg, table, power_model, domains, nominal);
    spans.close(ledger_span);

    sim::RunResult result;
    result.controller = controller.name();
    result.workload = app->name;

    dvfs::AccurateEstimates prev_sweep;
    static const std::vector<gpu::WaveSnapshot> no_snapshots;
    static const std::vector<dvfs::DomainDecision> no_decisions;
    static const std::vector<std::size_t> no_applied;

    Tick epoch_start = 0;
    bool done = false;
    gpu::EpochRecord record;
    gpu::EpochRecord observed_storage;
    while (!done && epoch_start < cfg.maxSimTime) {
        const Tick epoch_end = epoch_start + cfg.epochLen;
        {
            const ScopedSpan span(spans, SpanKind::GpuEpoch);
            done = chip.runUntil(epoch_end);
            chip.harvestEpoch(epoch_start, record);
        }
        ++result.epochs;
        countEpoch(counts, record);

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
        {
            const ScopedSpan span(spans, SpanKind::Ledger);
            ledger.observeEpoch(record, *observed, epoch_start,
                                accounted_end);
        }

        if (done) {
            if (observer != nullptr) {
                const ScopedSpan span(spans, SpanKind::TraceEncode);
                observer->onEpoch(sim::EpochCapture{
                    epoch_start, epoch_end, accounted_end, true, record,
                    no_snapshots, nullptr, no_decisions, no_applied});
            }
            break;
        }

        dvfs::AccurateEstimates cur_sweep;
        if (need != dvfs::SweepNeed::None) {
            if (probe_restores) {
                probe_pool.ensureSlots(1, chip);
                const ScopedSpan span(spans, SpanKind::OracleProbe);
                probe_pool.restore(0, chip);
            }
            const ScopedSpan span(spans, SpanKind::OracleSweep);
            cur_sweep = oracle::forkPreExecuteSweep(
                chip, domains, table, cfg.epochLen, sweep_opts);
            ++counts.sweeps;
            counts.samples += table.numStates();
        }

        std::vector<gpu::WaveSnapshot> snaps;
        {
            const ScopedSpan span(spans, SpanKind::GpuOther);
            snaps = chip.waveSnapshots();
        }
        const std::size_t ctx_span = spans.open(SpanKind::Ledger);
        const dvfs::EpochContext ctx = ledger.makeContext(
            *observed, snaps, prev_sweep.empty() ? nullptr : &prev_sweep,
            cur_sweep.empty() ? nullptr : &cur_sweep);
        spans.close(ctx_span);

        controller.applyStorageFaults(injector);
        std::vector<dvfs::DomainDecision> decisions = sim::decideEpoch(
            controller, ctx, need, !prev_sweep.empty(),
            domains.numDomains(), nominal);

        std::vector<sim::EpochLedger::AppliedTransition> applied;
        {
            const ScopedSpan span(spans, SpanKind::Ledger);
            applied = ledger.applyDecisions(decisions, injector);
        }
        {
            const ScopedSpan span(spans, SpanKind::GpuOther);
            for (std::uint32_t d = 0; d < domains.numDomains(); ++d) {
                const Freq freq = table.state(applied[d].state).freq;
                const std::uint32_t first = domains.firstCu(d);
                for (std::uint32_t cu = first;
                     cu < first + domains.cusPerDomain(); ++cu) {
                    chip.setCuFrequency(cu, freq,
                                        trans + applied[d].extraLatency);
                }
            }
        }
        {
            const ScopedSpan span(spans, SpanKind::Ledger);
            ledger.traceEpochFaults(
                epoch_base, injector,
                controller.fallbackEpochs() > fallback_base);
        }

        if (observer != nullptr) {
            const ScopedSpan span(spans, SpanKind::TraceEncode);
            std::vector<std::size_t> applied_states(domains.numDomains());
            for (std::uint32_t d = 0; d < domains.numDomains(); ++d)
                applied_states[d] = applied[d].state;
            observer->onEpoch(sim::EpochCapture{
                epoch_start, epoch_end, accounted_end, false, record,
                snaps, cur_sweep.empty() ? nullptr : &cur_sweep,
                decisions, applied_states, &ledger.lastEpochFaults()});
        }

        prev_sweep = std::move(cur_sweep);
        epoch_start = epoch_end;
    }

    const ScopedSpan span(spans, SpanKind::Ledger);
    ledger.finalize(result, done, chip.lastCommitTick(),
                    chip.totalCommitted(), injector, controller);
    return result;
}

sim::RunResult
tracedReplay(const trace::TraceData &data,
             dvfs::DvfsController &controller, SpanRecorder &spans,
             std::string &error)
{
    // Statement for statement the loop of trace::ReplayDriver::run as a
    // what-if replay runs it, minus decision verification and metrics.
    const ScopedSpan replay_span(spans, SpanKind::TraceReplay);
    sim::RunResult result;
    const trace::TraceMeta &meta = data.meta;
    const sim::RunConfig cfg = trace::runConfigFromMeta(meta);
    const power::VfTable table = trace::vfTableFromMeta(meta);
    const int nominal = table.indexOf(meta.nominalFreq);
    if (nominal < 0) {
        error = "trace meta: nominal frequency not in the V/f table";
        return result;
    }
    const auto nominal_idx = static_cast<std::size_t>(nominal);
    const power::PowerModel power_model(cfg.power);
    const dvfs::DomainMap domains(meta.numCus, meta.cusPerDomain);

    const dvfs::SweepNeed need = controller.sweepNeed();
    if (need != dvfs::SweepNeed::None) {
        for (const trace::EpochFrame &frame : data.frames) {
            if (!frame.done && !frame.hasSweep) {
                error = "controller " + controller.name() +
                    " needs sweeps the trace does not carry";
                return result;
            }
        }
    }

    faults::FaultInjector injector(cfg.faults);
    const std::size_t ledger_span = spans.open(SpanKind::Ledger);
    sim::EpochLedger ledger(cfg, table, power_model, domains,
                            nominal_idx);
    spans.close(ledger_span);

    result.controller = controller.name();
    result.workload = meta.workload;

    const dvfs::AccurateEstimates *prev_sweep = nullptr;
    for (const trace::EpochFrame &frame : data.frames) {
        ++result.epochs;

        const faults::FaultInjector::Totals epoch_base =
            injector.totals();
        const std::uint64_t fallback_base = controller.fallbackEpochs();
        gpu::EpochRecord observed_storage;
        const gpu::EpochRecord *observed = &frame.record;
        if (cfg.faults.telemetry.enabled) {
            observed_storage = frame.record;
            injector.perturbRecord(observed_storage, cfg.epochLen);
            observed = &observed_storage;
        }

        {
            const ScopedSpan span(spans, SpanKind::Ledger);
            ledger.observeEpoch(frame.record, *observed, frame.start,
                                frame.accountedEnd);
        }
        if (frame.done)
            break;

        const dvfs::AccurateEstimates *cur_sweep =
            frame.hasSweep ? &frame.sweep : nullptr;
        const std::size_t ctx_span = spans.open(SpanKind::Ledger);
        const dvfs::EpochContext ctx = ledger.makeContext(
            *observed, frame.snapshots,
            need != dvfs::SweepNeed::None ? prev_sweep : nullptr,
            need != dvfs::SweepNeed::None ? cur_sweep : nullptr);
        spans.close(ctx_span);

        controller.applyStorageFaults(injector);
        std::vector<dvfs::DomainDecision> decisions = sim::decideEpoch(
            controller, ctx, need, prev_sweep != nullptr,
            domains.numDomains(), nominal_idx);

        {
            const ScopedSpan span(spans, SpanKind::Ledger);
            ledger.applyDecisions(decisions, injector);
            ledger.traceEpochFaults(
                epoch_base, injector,
                controller.fallbackEpochs() > fallback_base);
        }
        prev_sweep = cur_sweep;
    }

    const ScopedSpan span(spans, SpanKind::Ledger);
    ledger.finalize(result, data.trailer.completed,
                    data.trailer.lastCommitTick,
                    data.trailer.totalCommitted, injector, controller);
    return result;
}

} // namespace pcstall::perfbench
