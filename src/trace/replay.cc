#include "trace/replay.hh"

#include "faults/fault_injector.hh"
#include "obs/context.hh"
#include "obs/metrics.hh"
#include "sim/epoch_ledger.hh"

namespace pcstall::trace
{

namespace
{

std::string
describeMismatch(std::size_t frame_idx, std::uint32_t domain,
                 const FrameDecision &recorded, std::size_t decided,
                 std::size_t applied)
{
    return "epoch " + std::to_string(frame_idx) + " domain " +
        std::to_string(domain) + ": recorded state " +
        std::to_string(recorded.decided) + " (applied " +
        std::to_string(recorded.applied) + "), replayed state " +
        std::to_string(decided) + " (applied " +
        std::to_string(applied) + ")";
}

} // namespace

ReplayDriver::ReplayDriver(const TraceData &trace) : data(trace) {}

ReplayOutcome
ReplayDriver::run(dvfs::DvfsController &controller,
                  const ReplayOptions &options)
{
    ReplayOutcome outcome;
    outcome.captureWallMs = data.trailer.captureWallMs;
    const std::int64_t t0 = obs::steadyNowNs();

    const TraceMeta &meta = data.meta;
    sim::RunConfig cfg = runConfigFromMeta(meta);
    cfg.auditRegret = options.auditRegret;
    cfg.provenance = options.provenance;
    const std::string cfg_err = sim::validateRunConfig(cfg);
    if (!cfg_err.empty()) {
        outcome.error = "trace meta yields an unusable run config: " +
            cfg_err;
        return outcome;
    }
    const power::VfTable table = vfTableFromMeta(meta);
    const int nominal = table.indexOf(meta.nominalFreq);
    if (nominal < 0) {
        outcome.error =
            "trace meta: nominal frequency not in the V/f table";
        return outcome;
    }
    const std::size_t nominal_idx = static_cast<std::size_t>(nominal);
    const power::PowerModel power_model(cfg.power);
    const dvfs::DomainMap domains(meta.numCus, meta.cusPerDomain);

    const dvfs::SweepNeed need = controller.sweepNeed();
    if (need != dvfs::SweepNeed::None) {
        for (const EpochFrame &frame : data.frames) {
            if (!frame.done && !frame.hasSweep) {
                outcome.error = "controller " + controller.name() +
                    " needs fork-pre-execute sweeps, but the trace "
                    "was captured without them (capture under a "
                    "sweep-requesting controller to replay this one)";
                return outcome;
            }
        }
        if (controller.needsWaveLevel() && !meta.waveLevel) {
            outcome.error = "controller " + controller.name() +
                " needs per-wave sweep sensitivities, but the trace "
                "was captured without them (capture under a "
                "wave-level controller to replay this one)";
            return outcome;
        }
    }

    // Same seed => the injector replays the exact fault sequence the
    // live run saw, provided it is consulted in the same order.
    faults::FaultInjector injector(cfg.faults);
    sim::EpochLedger ledger(cfg, table, power_model, domains,
                            nominal_idx);

    outcome.result.controller = controller.name();
    outcome.result.workload = meta.workload;

    // Decide-layer self-profile, recorded as the live driver records
    // it (Timing-kind, outside the canonical metric sections; no clock
    // is read while metrics are off).
    obs::Registry &registry = obs::reg();
    obs::Counter &predict_ns =
        registry.counter("profile.predict_ns", obs::MetricKind::Timing);
    obs::Histogram &decide_wall = registry.histogram(
        "predict.decide_wall_ns", obs::MetricKind::Timing);

    const dvfs::AccurateEstimates *prev_sweep = nullptr;
    std::uint64_t sweeps_served = 0;
    for (std::size_t i = 0; i < data.frames.size(); ++i) {
        const EpochFrame &frame = data.frames[i];
        ++outcome.result.epochs;

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

        ledger.observeEpoch(frame.record, *observed, frame.start,
                            frame.accountedEnd);
        if (frame.done)
            break;

        const dvfs::AccurateEstimates *cur_sweep =
            frame.hasSweep ? &frame.sweep : nullptr;
        if (need != dvfs::SweepNeed::None && cur_sweep != nullptr)
            ++sweeps_served;
        const dvfs::EpochContext ctx = ledger.makeContext(
            *observed, frame.snapshots,
            need != dvfs::SweepNeed::None ? prev_sweep : nullptr,
            need != dvfs::SweepNeed::None ? cur_sweep : nullptr);

        controller.applyStorageFaults(injector);

        std::vector<dvfs::DomainDecision> decisions;
        {
            const obs::ScopedTimer timer(&decide_wall, &predict_ns);
            decisions = sim::decideEpoch(controller, ctx, need,
                                         prev_sweep != nullptr,
                                         domains.numDomains(),
                                         nominal_idx);
        }

        const auto applied = ledger.applyDecisions(decisions, injector);

        if (options.verifyDecisions) {
            for (std::uint32_t d = 0; d < domains.numDomains(); ++d) {
                const FrameDecision &rec = frame.decisions[d];
                if (decisions[d].state != rec.decided ||
                    applied[d].state != rec.applied) {
                    ++outcome.decisionMismatches;
                    if (outcome.firstMismatch.empty()) {
                        outcome.firstMismatch = describeMismatch(
                            i, d, rec, decisions[d].state,
                            applied[d].state);
                    }
                }
            }
        }

        ledger.traceEpochFaults(
            epoch_base, injector,
            controller.fallbackEpochs() > fallback_base);

        prev_sweep = cur_sweep;
    }

    ledger.finalize(outcome.result, data.trailer.completed,
                    data.trailer.lastCommitTick,
                    data.trailer.totalCommitted, injector, controller);

    outcome.replayWallMs =
        static_cast<double>(obs::steadyNowNs() - t0) / 1e6;
    if (obs::metricsEnabled()) {
        if (options.liveMetricProfile) {
            // Cache-served replay standing in for a live simulation:
            // record what the equivalent live run would have (the
            // deterministic oracle sweep/fork totals the fork
            // pre-executor registers per sweep) and keep the
            // replay-only counters out of the canonical metric
            // surface. trace.replay_wall_ns below is Timing-kind and
            // hence canonical-safe either way.
            if (sweeps_served > 0) {
                registry.counter("oracle.sweeps").add(sweeps_served);
                registry.counter("oracle.forks")
                    .add(sweeps_served * table.numStates());
            }
        } else {
            registry.counter("trace.replays").add(1);
            registry.counter("trace.replay_frames")
                .add(data.frames.size());
            registry.counter("trace.replay_mismatches")
                .add(outcome.decisionMismatches);
        }
        registry.histogram("trace.replay_wall_ns",
                           obs::MetricKind::Timing)
            .record(outcome.replayWallMs * 1e6);
    }
    return outcome;
}

} // namespace pcstall::trace
