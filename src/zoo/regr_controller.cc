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
    std::uint64_t samples = 0;
    for (std::uint32_t d = 0; d < num_domains; ++d) {
        DomainState &dom = domains_[d];
        const double committed =
            dvfs::domainCommitted(ctx.domains, d, ctx.record);
        const Freq freq = ctx.record.cus[ctx.domains.firstCu(d)].freq;
        if (committed > 0.0 && freq > 0) {
            dom.ring.push_back({freqGHzD(freq), committed});
            if (dom.ring.size() > cfg.historyLength)
                dom.ring.erase(dom.ring.begin());
            ++samples;
        }
    }
    // Counted per domain, recorded once per decide; a counter is
    // created only by the outcome that happened.
    if (samples > 0)
        registry.counter("controller.regr.samples").add(samples);
    watchdog.observe(ctx, instrAt);

    // 2. Predict: the learned regression where it has rank, the STALL
    //    decomposition where it does not (cold start / no diversity).
    //    The watchdog has scored the previous predictions, so this
    //    epoch's overwrite them.
    instrAt.resize(num_domains);
    std::uint64_t anchors = 0;
    std::uint64_t fits = 0;
    for (std::uint32_t d = 0; d < num_domains; ++d) {
        std::vector<double> &instr_at = instrAt[d];
        instr_at.resize(num_states);
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
            ++anchors;
            models::domainInstrAt(models::EstimationKind::Stall, ctx, d,
                                  instr_at);
            continue;
        }
        ++fitDecisions_;
        ++fits;
        for (std::size_t s = 0; s < num_states; ++s) {
            instr_at[s] = std::max(
                0.0, a + b * freqGHzD(ctx.table.state(s).freq));
        }
    }
    if (anchors > 0) {
        registry.counter("controller.regr.anchor_decisions")
            .add(anchors);
    }
    if (fits > 0)
        registry.counter("controller.regr.fit_decisions").add(fits);

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
        dvfs::decideDomains(ctx, instrAt, limit_override);

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
            out[d].predictedInstr = instrAt[d][probed];
        }
        registry.counter("controller.regr.probe_epochs").add(1);
    }
    return out;
}

} // namespace pcstall::zoo
