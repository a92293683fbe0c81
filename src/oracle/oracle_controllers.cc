#include "oracle/oracle_controllers.hh"

#include "common/logging.hh"

namespace pcstall::oracle
{

std::vector<dvfs::DomainDecision>
OracleController::decide(const dvfs::EpochContext &ctx)
{
    panicIf(ctx.upcomingAccurate == nullptr,
            "ORACLE requires upcoming-epoch accurate estimates");
    return dvfs::decideDomains(ctx, ctx.upcomingAccurate->domainInstr);
}

std::vector<dvfs::DomainDecision>
AccurateReactiveController::decide(const dvfs::EpochContext &ctx)
{
    panicIf(ctx.elapsedAccurate == nullptr,
            "ACCREAC requires elapsed-epoch accurate estimates");
    return dvfs::decideDomains(ctx, ctx.elapsedAccurate->domainInstr);
}

} // namespace pcstall::oracle
