#include "zoo/regr_controller.hh"

#include <algorithm>

#include "common/stats_util.hh"
#include "models/estimation.hh"
#include "obs/context.hh"

namespace pcstall::zoo
{

RegrController::RegrController(const RegrConfig &config,
                               std::uint32_t num_domains)
    : cfg(config), domains_(num_domains),
      watchdog(models::WatchdogConfig{config.watchdog})
{
    cfg.historyLength = std::max(cfg.historyLength, 2u);
    cfg.forget = clampTo(cfg.forget, 0.01, 1.0);
    cfg.deadlineMargin = clampTo(cfg.deadlineMargin, 0.0, 0.5);
}

bool
RegrController::fitDomain(const DomainState &dom, double &a,
                          double &b) const
{
    if (dom.ring.size() < 2)
        return false;
    // Forgetting-weighted normal equations; newest sample weight 1.
    double sw = 0.0, swx = 0.0, swy = 0.0, swxx = 0.0, swxy = 0.0;
    double w = 1.0;
    double fmin = dom.ring.back().freqGhz;
    double fmax = fmin;
    for (std::size_t i = dom.ring.size(); i-- > 0; w *= cfg.forget) {
        const Sample &s = dom.ring[i];
        fmin = std::min(fmin, s.freqGhz);
        fmax = std::max(fmax, s.freqGhz);
        sw += w;
        swx += w * s.freqGhz;
        swy += w * s.instr;
        swxx += w * s.freqGhz * s.freqGhz;
        swxy += w * s.freqGhz * s.instr;
    }
    // Rank: the fit needs real frequency spread (half a V/f step),
    // else the slope is noise amplified by 1/det.
    if (fmax - fmin < 0.05)
        return false;
    const double det = sw * swxx - swx * swx;
    if (det <= 1e-12)
        return false;
    b = (sw * swxy - swx * swy) / det;
    a = (swy - b * swx) / sw;
    // Throughput never falls with frequency; a negative learned slope
    // is noise (or a memory-bound plateau) - flatten it.
    if (b < 0.0) {
        b = 0.0;
        a = swy / sw;
    }
    return true;
}

std::vector<dvfs::DomainDecision>
RegrController::decide(const dvfs::EpochContext &ctx)
{
    const std::size_t num_states = ctx.table.numStates();
    const std::uint32_t num_domains = ctx.domains.numDomains();
    obs::Registry &registry = obs::reg();
    ++epochIndex;

    // 1. Learn: append the elapsed epoch's (frequency, throughput)
    //    observation, and score the previous prediction for the
    //    watchdog.
    for (std::uint32_t d = 0; d < num_domains; ++d) {
        DomainState &dom = domains_[d];
        const double committed =
            dvfs::domainCommitted(ctx.domains, d, ctx.record);
        const Freq freq = ctx.record.cus[ctx.domains.firstCu(d)].freq;
        if (committed > 0.0 && freq > 0) {
            dom.ring.push_back({freqGHzD(freq), committed});
            if (dom.ring.size() > cfg.historyLength)
                dom.ring.erase(dom.ring.begin());
            registry.counter("controller.regr.samples").add(1);
        }
    }
    watchdog.observe(ctx, prevInstrAt);

    // 2. Predict: the learned regression where it has rank, the STALL
    //    decomposition where it does not (cold start / no diversity).
    std::vector<std::vector<double>> instr_at(
        num_domains, std::vector<double>(num_states, 0.0));
    for (std::uint32_t d = 0; d < num_domains; ++d) {
        double a = 0.0, b = 0.0;
        const bool fitted = fitDomain(domains_[d], a, b);
        if (ctx.audit) {
            // A successful fit is this design's "table hit"; the
            // STALL anchor is its reactive path.
            dvfs::DomainAudit &aud = ctx.audit->domains[d];
            ++aud.lookups;
            if (fitted) {
                ++aud.hits;
                aud.predictedSens = b;
                aud.predictedLevel = a;
            } else {
                ++aud.reactive;
            }
        }
        if (!fitted) {
            registry.counter("controller.regr.anchor_decisions").add(1);
            models::domainInstrAt(models::EstimationKind::Stall, ctx, d,
                                  instr_at[d]);
            continue;
        }
        ++fitDecisions_;
        registry.counter("controller.regr.fit_decisions").add(1);
        for (std::size_t s = 0; s < num_states; ++s) {
            instr_at[d][s] = std::max(
                0.0, a + b * freqGHzD(ctx.table.state(s).freq));
        }
    }
    prevInstrAt = instr_at;

    // 3. Select. While the watchdog is tripped the reactive STALL
    //    fallback decides; otherwise the objective scores the model,
    //    with the deadline margin tightening the perf bound.
    if (watchdog.inFallback()) {
        registry.counter("controller.regr.fallback_epochs").add(1);
        return watchdog.decideFallback(ctx);
    }
    double limit_override = -1.0;
    if (ctx.objective == dvfs::Objective::EnergyUnderPerfBound) {
        limit_override = std::max(
            0.0, ctx.perfDegradationLimit - cfg.deadlineMargin);
    }
    std::vector<dvfs::DomainDecision> out =
        dvfs::decideDomains(ctx, instr_at, limit_override);

    // 4. Probe: periodically nudge each domain one state (alternating
    //    direction) so the regression keeps frequency diversity.
    if (cfg.probePeriod > 0 &&
        epochIndex % cfg.probePeriod == cfg.probePeriod - 1) {
        const bool up = (epochIndex / cfg.probePeriod) % 2 == 0;
        for (std::uint32_t d = 0; d < num_domains; ++d) {
            std::size_t probed = out[d].state;
            if (up && probed + 1 < num_states)
                ++probed;
            else if (!up && probed > 0)
                --probed;
            out[d].state = probed;
            out[d].predictedInstr = instr_at[d][probed];
        }
        registry.counter("controller.regr.probe_epochs").add(1);
    }
    return out;
}

} // namespace pcstall::zoo
