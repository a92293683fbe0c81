#include "models/reactive_controller.hh"

namespace pcstall::models
{

std::vector<dvfs::DomainDecision>
ReactiveController::decide(const dvfs::EpochContext &ctx)
{
    const std::size_t num_states = ctx.table.numStates();
    std::vector<dvfs::DomainDecision> out(ctx.domains.numDomains());

    std::vector<double> instr_at(num_states);
    for (std::uint32_t d = 0; d < ctx.domains.numDomains(); ++d) {
        domainInstrAt(kind, ctx, d, instr_at);
        out[d] = dvfs::decideDomain(ctx, d, instr_at);

        if (ctx.audit) {
            // Reactive estimates carry no table state; describe the
            // extrapolated model as a secant through the prediction
            // range so audits can compare designs on one axis.
            dvfs::DomainAudit &a = ctx.audit->domains[d];
            const double f_lo = freqGHzD(ctx.table.state(0).freq);
            const double f_hi =
                freqGHzD(ctx.table.state(num_states - 1).freq);
            a.predictedSens = f_hi > f_lo
                ? (instr_at[num_states - 1] - instr_at[0]) /
                    (f_hi - f_lo)
                : 0.0;
            a.predictedLevel =
                instr_at[num_states - 1] - a.predictedSens * f_hi;
        }
    }
    return out;
}

} // namespace pcstall::models
