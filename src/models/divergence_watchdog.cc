#include "models/divergence_watchdog.hh"

#include <cmath>

namespace pcstall::models
{

void
DivergenceWatchdog::score(double predicted, double realized)
{
    if (realized <= 0.0)
        return;
    errorSum += std::abs(predicted - realized) / realized;
    ++scored;
}

void
DivergenceWatchdog::observe(
    const dvfs::EpochContext &ctx,
    const std::vector<std::vector<double>> &prev_instr_at)
{
    for (std::uint32_t d = 0; d < prev_instr_at.size(); ++d) {
        const Freq freq = ctx.record.cus[ctx.domains.firstCu(d)].freq;
        const std::size_t ran = freq == 0 ? ctx.nominalState
                                          : ctx.table.nearestIndex(freq);
        score(prev_instr_at[d][ran],
              dvfs::domainCommitted(ctx.domains, d, ctx.record));
    }
    endEpoch();
}

void
DivergenceWatchdog::endEpoch(bool implausible)
{
    const double error_sum = errorSum;
    const std::uint32_t n = scored;
    errorSum = 0.0;
    scored = 0;
    if (!cfg.enabled || (n == 0 && !implausible))
        return;
    const bool bad = implausible ||
        error_sum / static_cast<double>(n) > cfg.errorThreshold;
    if (bad) {
        goodStreak = 0;
        if (!fallback && ++badStreak >= cfg.tripAfter) {
            fallback = true;
            ++trips_;
        }
    } else {
        badStreak = 0;
        if (fallback && ++goodStreak >= cfg.recoverAfter)
            fallback = false;
    }
}

std::vector<dvfs::DomainDecision>
DivergenceWatchdog::decideFallback(const dvfs::EpochContext &ctx)
{
    ++fallbackEpochs_;
    if (ctx.audit)
        ctx.audit->fallbackActive = true;
    return stall.decide(ctx);
}

} // namespace pcstall::models
