#include "sim/epoch_ledger.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/stats_util.hh"
#include "models/estimation.hh"

namespace pcstall::sim
{

EpochLedger::EpochLedger(const RunConfig &config,
                         const power::VfTable &vf_table,
                         const power::PowerModel &power_model,
                         const dvfs::DomainMap &domain_map,
                         std::size_t nominal_idx)
    : cfg(config), table(vf_table), power(power_model),
      domainMap(domain_map), nominalIdx(nominal_idx),
      stateCosts(table, power, cfg.epochLen, thermal.temperature())
{
    domainState.assign(domainMap.numDomains(), nominalIdx);
    prevPred.assign(domainMap.numDomains(), -1.0);
    avgInstr.assign(domainMap.numDomains(), 0.0);
    freqShare.assign(table.numStates(), 0.0);
    auditEnabled_ = cfg.auditRegret || cfg.provenance != nullptr;
    if (auditEnabled_)
        observedInputs_.resize(domainMap.numDomains());

    obs::Registry &registry = obs::reg();
    epochsMetric = &registry.counter("sim.epochs");
    transitionsMetric = &registry.counter("dvfs.transitions");
    clampedMetric = &registry.counter("dvfs.clamped_decisions");
    errorPctMetric = &registry.histogram("predict.error_pct");
    residencyMetric.reserve(table.numStates());
    for (std::size_t s = 0; s < table.numStates(); ++s) {
        // Room for any %zu (20 digits) after the 16-char prefix.
        char name[40];
        std::snprintf(name, sizeof(name), "dvfs.residency.s%02zu", s);
        residencyMetric.push_back(&registry.counter(name));
    }
}

void
EpochLedger::observeEpoch(const gpu::EpochRecord &record,
                          const gpu::EpochRecord &observed,
                          Tick epoch_start, Tick accounted_end)
{
    if (auditEnabled_) {
        // Realize the decision whose epoch just completed, then stash
        // the observed inputs the *next* decision will be made from.
        if (pendingValid_)
            realizePending(record);
        for (std::uint32_t d = 0; d < domainMap.numDomains(); ++d) {
            ObservedDomainInputs &in = observedInputs_[d];
            in.instr = 0;
            in.loadStall = 0;
            in.memAccesses = 0;
            const std::uint32_t first = domainMap.firstCu(d);
            for (std::uint32_t cu = first;
                 cu < first + domainMap.cusPerDomain(); ++cu) {
                const gpu::CuEpochRecord &cr = observed.cus[cu];
                in.instr += cr.committed;
                in.loadStall += static_cast<std::uint64_t>(
                    std::max<Tick>(cr.loadStall, 0));
                in.memAccesses += cr.mem.l2Hits + cr.mem.l2Misses +
                    cr.mem.stores;
            }
        }
        ++epochsObserved_;
        lastEpochStart_ = epoch_start;
    }

    // --- prediction accuracy of the decisions made last epoch ---
    for (std::uint32_t d = 0; d < domainMap.numDomains(); ++d) {
        const double actual = dvfs::domainCommitted(domainMap, d, record);
        if (prevPred[d] >= 0.0 && actual > 0.0) {
            const double err = std::abs(prevPred[d] - actual) / actual;
            accuracySum += clampTo(1.0 - err, 0.0, 1.0);
            ++accuracyN;
            // Relative error as a percentage, capped so one pathological
            // epoch cannot dominate the histogram's overflow tail.
            errorPctMetric->record(std::min(err * 100.0, 1000.0));
        }
    }
    epochsMetric->add(1);

    // --- energy accounting (prorate the final partial epoch) ---
    const Tick eff_len =
        std::max<Tick>(accounted_end - epoch_start, 0);
    if (eff_len > 0) {
        double epoch_energy = 0.0;
        memory::MemActivity total_activity;
        for (std::uint32_t cu = 0; cu < cfg.gpu.numCus; ++cu) {
            const gpu::CuEpochRecord &cr = record.cus[cu];
            const Volts v = table
                .state(domainState[domainMap.domainOf(cu)]).voltage;
            epoch_energy += power.cuEpochEnergy(
                v, cr.freq, cr.committed, cr.mem, eff_len,
                stateCosts.leakage()).total();
            total_activity += cr.mem;
        }
        epoch_energy += power.memEpochEnergy(total_activity, eff_len);
        energy += epoch_energy;
        thermal.update(epoch_energy / tickSeconds(eff_len),
                       tickSeconds(eff_len));
        stateCosts.setTemperature(thermal.temperature());
        const Watts epoch_power = epoch_energy / tickSeconds(eff_len);
        avgPower = avgPower == 0.0 ? epoch_power
            : (1.0 - avgAlpha) * avgPower + avgAlpha * epoch_power;
    }
    for (std::uint32_t d = 0; d < domainMap.numDomains(); ++d) {
        const double instr = dvfs::domainCommitted(domainMap, d, observed);
        avgInstr[d] = avgInstr[d] == 0.0 ? instr
            : (1.0 - avgAlpha) * avgInstr[d] + avgAlpha * instr;
    }

    // --- frequency residency ---
    for (std::uint32_t d = 0; d < domainMap.numDomains(); ++d) {
        freqShare[domainState[d]] += 1.0;
        residencyMetric[domainState[d]]->add(1);
    }
    domainEpochs += domainMap.numDomains();

    if (cfg.collectTrace) {
        EpochTraceEntry entry;
        entry.start = epoch_start;
        for (std::uint32_t d = 0; d < domainMap.numDomains(); ++d) {
            entry.domainState.push_back(
                static_cast<std::uint8_t>(domainState[d]));
            entry.domainCommitted.push_back(
                dvfs::domainCommitted(domainMap, d, record));
        }
        traceEntries.push_back(std::move(entry));
    }
}

dvfs::EpochContext
EpochLedger::context(const gpu::EpochRecord &record,
                     const std::vector<gpu::WaveSnapshot> &snapshots) const
{
    return dvfs::EpochContext{
        record, snapshots, domainMap, table, power,
        cfg.epochLen, thermal.temperature(), cfg.objective,
        cfg.perfDegradationLimit, nominalIdx,
        nullptr, nullptr, avgPower, &avgInstr, nullptr, &stateCosts};
}

dvfs::EpochContext
EpochLedger::makeContext(const gpu::EpochRecord &observed,
                         const std::vector<gpu::WaveSnapshot> &snapshots,
                         const dvfs::AccurateEstimates *elapsed,
                         const dvfs::AccurateEstimates *upcoming) const
{
    dvfs::EpochContext ctx = context(observed, snapshots);
    ctx.elapsedAccurate = elapsed;
    ctx.upcomingAccurate = upcoming;
    if (auditEnabled_) {
        audit_.reset(domainMap.numDomains());
        ctx.audit = &audit_;
    }
    return ctx;
}

std::vector<EpochLedger::AppliedTransition>
EpochLedger::applyDecisions(std::vector<dvfs::DomainDecision> &decisions,
                            faults::FaultInjector &injector)
{
    // Never trust a controller's output blindly: repair illegal
    // decisions instead of crashing or applying garbage.
    lastClamped_ = dvfs::sanitizeDecisions(
        decisions, table, domainMap.numDomains(), nominalIdx);
    clampedDecisions += lastClamped_;
    clampedMetric->add(lastClamped_);

    std::vector<AppliedTransition> out(domainMap.numDomains());
    for (std::uint32_t d = 0; d < domainMap.numDomains(); ++d) {
        const std::size_t old_state = domainState[d];
        const faults::TransitionOutcome applied =
            injector.transition(old_state, decisions[d].state, table);
        domainState[d] = applied.state;
        // A failed or re-quantized transition means the predicted
        // state was never applied; don't score that prediction.
        prevPred[d] = applied.state == decisions[d].state
            ? decisions[d].predictedInstr : -1.0;
        out[d] = AppliedTransition{applied.state, applied.extraLatency};
        if (old_state != applied.state) {
            transitions += domainMap.cusPerDomain();
            transitionsMetric->add(domainMap.cusPerDomain());
            const Joules te = power.transitionEnergy(
                table.state(old_state).voltage,
                table.state(applied.state).voltage) *
                domainMap.cusPerDomain();
            transitionEnergy += te;
            energy += te;
        }
    }

    if (auditEnabled_) {
        // Open the decision record; observeEpoch() of the decided
        // epoch (or finalize(), if the run ends first) completes it.
        pending_ = obs::DecisionRecord{};
        pending_.epoch = epochsObserved_;
        pending_.start = lastEpochStart_ + cfg.epochLen;
        pending_.domains.resize(domainMap.numDomains());
        for (std::uint32_t d = 0; d < domainMap.numDomains(); ++d) {
            obs::DomainDecisionProv &p = pending_.domains[d];
            const dvfs::DomainAudit &a = audit_.domains[d];
            p.pcKey = a.pcKey;
            p.lookups = a.lookups;
            p.hits = a.hits;
            p.sameRegion = a.sameRegion;
            p.reactive = a.reactive;
            p.predictedSens = a.predictedSens;
            p.predictedLevel = a.predictedLevel;
            p.elapsedInstr = observedInputs_[d].instr;
            p.loadStallTicks = observedInputs_[d].loadStall;
            p.memAccesses = observedInputs_[d].memAccesses;
            p.chosenState =
                static_cast<std::uint8_t>(decisions[d].state);
            p.appliedState = static_cast<std::uint8_t>(out[d].state);
            p.predictedInstr = decisions[d].predictedInstr;
        }
        pending_.fallbackActive = audit_.fallbackActive;
        pendingValid_ = true;
    }
    return out;
}

void
EpochLedger::realizePending(const gpu::EpochRecord &record)
{
    // Hindsight scoring sees the physical record through the same
    // context and input builder the decision was made with.
    static const std::vector<gpu::WaveSnapshot> no_waves;
    const dvfs::EpochContext ctx = context(record, no_waves);
    const std::size_t num_states = table.numStates();
    std::vector<double> instr_at(num_states, 0.0);
    std::vector<double> scores(num_states, 0.0);
    pending_.stateScores.assign(num_states, 0.0);

    for (std::uint32_t d = 0; d < domainMap.numDomains(); ++d) {
        obs::DomainDecisionProv &p = pending_.domains[d];
        // The hindsight model: what the realized epoch says each
        // candidate frequency would have committed (STALL
        // decomposition, the paper's implementable baseline).
        models::domainInstrAt(models::EstimationKind::Stall, ctx, d,
                              instr_at);
        const dvfs::DomainScoreInputs in =
            dvfs::scoreInputs(ctx, d, instr_at);
        p.realizedInstr = static_cast<std::uint64_t>(in.baselineInstr);
        dvfs::scoreStates(table, power, in, cfg.objective, scores);

        std::size_t best = 0;
        for (std::size_t s = 1; s < num_states; ++s) {
            if (scores[s] < scores[best])
                best = s;
        }
        p.chosenScore = scores[p.appliedState];
        p.bestScore = scores[best];
        p.bestState = static_cast<std::uint8_t>(best);
        p.nominalScore = scores[nominalIdx];
        for (std::size_t s = 0; s < num_states; ++s)
            pending_.stateScores[s] += scores[s];
    }

    pending_.realized = true;
    regretSummary_.add(pending_.oracleRegretRel(),
                       pending_.staticRegretRel());
    if (cfg.provenance != nullptr)
        cfg.provenance->records.push_back(std::move(pending_));
    pendingValid_ = false;
}

void
EpochLedger::traceEpochFaults(const faults::FaultInjector::Totals &base,
                              const faults::FaultInjector &injector,
                              bool fallback_active)
{
    const faults::FaultInjector::Totals &now = injector.totals();
    gpu::FaultEpochCounters &fc = lastFaults_;
    fc.telemetryPerturbations =
        now.telemetryPerturbations - base.telemetryPerturbations;
    fc.telemetryDropouts =
        now.telemetryDropouts - base.telemetryDropouts;
    fc.transitionFailures =
        now.transitionFailures - base.transitionFailures;
    fc.transitionExtraLatency =
        now.transitionExtraLatency - base.transitionExtraLatency;
    fc.tableBitFlips = now.tableBitFlips - base.tableBitFlips;
    fc.clampedDecisions = lastClamped_;
    fc.fallbackActive = fallback_active;
    if (cfg.collectTrace && !traceEntries.empty())
        traceEntries.back().faults = lastFaults_;
    // The driver detects fallback from the controller's counters -
    // authoritative even for controllers that never touch the audit.
    if (auditEnabled_ && pendingValid_ && fallback_active)
        pending_.fallbackActive = true;
}

void
EpochLedger::finalize(RunResult &result, bool completed,
                      Tick last_commit, std::uint64_t total_committed,
                      const faults::FaultInjector &injector,
                      const dvfs::DvfsController &controller)
{
    result.completed = completed;
    result.execTime = completed ? last_commit : cfg.maxSimTime;
    result.instructions = total_committed;
    result.energy = energy;
    result.transitions = transitions;
    result.transitionEnergy = transitionEnergy;
    result.predictionAccuracy = accuracyN > 0
        ? accuracySum / static_cast<double>(accuracyN) : 0.0;
    result.freqTimeShare = freqShare;
    if (domainEpochs > 0) {
        for (double &share : result.freqTimeShare)
            share /= static_cast<double>(domainEpochs);
    }
    result.finalTemperature = thermal.temperature();
    result.trace = std::move(traceEntries);

    if (auditEnabled_) {
        // A decision whose epoch never completed (simulation wall,
        // cancellation) stays unrealized but is still recorded - the
        // audit trail should show what was decided, not pretend the
        // decision never happened.
        if (pendingValid_) {
            if (cfg.provenance != nullptr)
                cfg.provenance->records.push_back(std::move(pending_));
            pendingValid_ = false;
        }
        result.regret = regretSummary_;
        if (cfg.provenance != nullptr) {
            obs::ProvenanceMeta &meta = cfg.provenance->meta;
            meta.workload = result.workload;
            meta.controller = result.controller;
            meta.objective = dvfs::objectiveName(cfg.objective);
            meta.epochLen = cfg.epochLen;
            meta.numDomains = domainMap.numDomains();
            meta.numStates =
                static_cast<std::uint32_t>(table.numStates());
            meta.nominalState =
                static_cast<std::uint32_t>(nominalIdx);
            meta.stateFreqMhz.clear();
            for (std::size_t s = 0; s < table.numStates(); ++s) {
                meta.stateFreqMhz.push_back(static_cast<std::uint32_t>(
                    table.state(s).freq / freqMHz));
            }
            cfg.provenance->regret = regretSummary_;
        }
    }

    const faults::FaultInjector::Totals &tot = injector.totals();
    result.faults.telemetryPerturbations = tot.telemetryPerturbations;
    result.faults.telemetryDropouts = tot.telemetryDropouts;
    result.faults.transitionFailures = tot.transitionFailures;
    result.faults.transitionExtraLatency = tot.transitionExtraLatency;
    result.faults.tableBitFlips = controller.storageBitFlips();
    result.faults.tableScrubs = controller.storageScrubs();
    result.faults.watchdogTrips = controller.watchdogTrips();
    result.faults.fallbackEpochs = controller.fallbackEpochs();
    result.faults.clampedDecisions = clampedDecisions;

    if (obs::metricsEnabled()) {
        obs::Registry &registry = obs::reg();
        registry.counter("run.count").add(1);
        if (!completed)
            registry.counter("run.incomplete").add(1);
        registry.histogram("run.energy_j").record(result.energy);
        registry.histogram("run.exec_us")
            .record(static_cast<double>(result.execTime) / tickUs);
        registry.histogram("run.accuracy")
            .record(result.predictionAccuracy);
        const FaultSummary &fs = result.faults;
        registry.counter("faults.telemetry_perturbations")
            .add(fs.telemetryPerturbations);
        registry.counter("faults.telemetry_dropouts")
            .add(fs.telemetryDropouts);
        registry.counter("faults.transition_failures")
            .add(fs.transitionFailures);
        registry.counter("faults.table_bit_flips")
            .add(fs.tableBitFlips);
        registry.counter("faults.table_scrubs").add(fs.tableScrubs);
        registry.counter("faults.watchdog_trips")
            .add(fs.watchdogTrips);
        registry.counter("faults.fallback_epochs")
            .add(fs.fallbackEpochs);
        if (auditEnabled_ && !result.regret.empty()) {
            registry.counter("provenance.decisions")
                .add(result.regret.count);
            registry.histogram("provenance.regret.oracle_rel")
                .record(result.regret.meanOracle());
            registry.histogram("provenance.regret.static_rel")
                .record(result.regret.meanStatic());
        }
    }
}

std::vector<dvfs::DomainDecision>
decideEpoch(dvfs::DvfsController &controller,
            const dvfs::EpochContext &ctx, dvfs::SweepNeed need,
            bool have_elapsed, std::size_t num_domains,
            std::size_t nominal_idx)
{
    // The very first epoch has no elapsed-epoch estimate yet;
    // accurate-reactive controllers stay at nominal.
    if (need == dvfs::SweepNeed::Elapsed && !have_elapsed) {
        return std::vector<dvfs::DomainDecision>(
            num_domains, dvfs::DomainDecision{nominal_idx, -1.0});
    }
    return controller.decide(ctx);
}

} // namespace pcstall::sim
