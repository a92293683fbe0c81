/**
 * @file
 * The three accurate-estimate designs of Table III:
 *  - ORACLE:  uses accurate estimates of the *upcoming* epoch
 *             (near-optimal, not implementable);
 *  - ACCREAC: uses accurate estimates of the *elapsed* epoch,
 *             applied reactively (a perfect last-value predictor);
 *  - ACCPC is realized by PcstallController(accurateEstimates=true).
 * ORACLE and ACCREAC hand the sweep's measured I(f) curves straight to
 * dvfs::decideDomains, the selection step every design shares.
 */

#ifndef PCSTALL_ORACLE_ORACLE_CONTROLLERS_HH
#define PCSTALL_ORACLE_ORACLE_CONTROLLERS_HH

#include "dvfs/controller.hh"

namespace pcstall::oracle
{

/** Near-optimal oracle: accurate estimates of the upcoming epoch. */
class OracleController : public dvfs::DvfsController
{
  public:
    std::string name() const override { return "ORACLE"; }

    dvfs::SweepNeed sweepNeed() const override
    {
        return dvfs::SweepNeed::Upcoming;
    }

    std::vector<dvfs::DomainDecision>
    decide(const dvfs::EpochContext &ctx) override;
};

/** Perfect reactive design: accurate estimates applied last-value. */
class AccurateReactiveController : public dvfs::DvfsController
{
  public:
    std::string name() const override { return "ACCREAC"; }

    dvfs::SweepNeed sweepNeed() const override
    {
        return dvfs::SweepNeed::Elapsed;
    }

    std::vector<dvfs::DomainDecision>
    decide(const dvfs::EpochContext &ctx) override;
};

} // namespace pcstall::oracle

#endif // PCSTALL_ORACLE_ORACLE_CONTROLLERS_HH
