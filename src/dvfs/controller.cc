#include "dvfs/controller.hh"

#include <cmath>

namespace pcstall::dvfs
{

std::size_t
sanitizeDecisions(std::vector<DomainDecision> &decisions,
                  const power::VfTable &table, std::size_t num_domains,
                  std::size_t fallback_state)
{
    std::size_t repairs = 0;
    if (decisions.size() != num_domains) {
        ++repairs;
        decisions.resize(num_domains,
                         DomainDecision{fallback_state, -1.0});
    }
    const std::size_t top = table.numStates() - 1;
    for (DomainDecision &d : decisions) {
        if (d.state > top) {
            d.state = top;
            ++repairs;
        }
        if (!std::isfinite(d.predictedInstr)) {
            d.predictedInstr = -1.0;
            ++repairs;
        }
    }
    return repairs;
}

std::string
StaticController::name() const
{
    return "STATIC[" + std::to_string(state_) + "]";
}

std::vector<DomainDecision>
StaticController::decide(const EpochContext &ctx)
{
    std::vector<DomainDecision> out(ctx.domains.numDomains());
    for (DomainDecision &d : out)
        d.state = state_;
    return out;
}

memory::MemActivity
domainActivity(const DomainMap &domains, std::uint32_t domain,
               const gpu::EpochRecord &record)
{
    memory::MemActivity total;
    const std::uint32_t first = domains.firstCu(domain);
    for (std::uint32_t cu = first; cu < first + domains.cusPerDomain();
         ++cu) {
        total += record.cus[cu].mem;
    }
    return total;
}

double
domainCommitted(const DomainMap &domains, std::uint32_t domain,
                const gpu::EpochRecord &record)
{
    return sumOverDomain(domains, domain, [&](std::uint32_t cu) {
        return static_cast<double>(record.cus[cu].committed);
    });
}

DomainScoreInputs
scoreInputs(const EpochContext &ctx, std::uint32_t d,
            std::span<const double> instr_at, double perf_limit)
{
    DomainScoreInputs in;
    in.instrAtState = instr_at;
    in.baselineInstr = domainCommitted(ctx.domains, d, ctx.record);
    in.baselineActivity = domainActivity(ctx.domains, d, ctx.record);
    in.numCus = ctx.domains.cusPerDomain();
    in.staticShare =
        ctx.power.params().memStatic / ctx.domains.numDomains();
    in.costs = ctx.stateCosts;
    in.perfDegradationLimit =
        perf_limit >= 0.0 ? perf_limit : ctx.perfDegradationLimit;
    in.nominalState = ctx.nominalState;
    in.avgChipPower = ctx.avgChipPower;
    if (ctx.avgDomainInstr != nullptr)
        in.avgInstr = (*ctx.avgDomainInstr)[d];
    return in;
}

DomainDecision
decideDomain(const EpochContext &ctx, std::uint32_t d,
             std::span<const double> instr_at, double perf_limit)
{
    DomainDecision out;
    out.state = chooseState(ctx.table, ctx.power,
                            scoreInputs(ctx, d, instr_at, perf_limit),
                            ctx.objective);
    out.predictedInstr = instr_at[out.state];
    return out;
}

std::vector<DomainDecision>
decideDomains(const EpochContext &ctx,
              const std::vector<std::vector<double>> &instr_at,
              double perf_limit)
{
    std::vector<DomainDecision> out(ctx.domains.numDomains());
    for (std::uint32_t d = 0; d < ctx.domains.numDomains(); ++d)
        out[d] = decideDomain(ctx, d, instr_at[d], perf_limit);
    return out;
}

} // namespace pcstall::dvfs
