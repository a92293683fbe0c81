/**
 * @file
 * The DVFS controller interface every evaluated design implements
 * (Table III), plus the "accurate estimate" record the oracle's
 * fork-pre-execute machinery supplies to ACCREAC/ACCPC/ORACLE.
 */

#ifndef PCSTALL_DVFS_CONTROLLER_HH
#define PCSTALL_DVFS_CONTROLLER_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dvfs/decision_audit.hh"
#include "dvfs/domain_map.hh"
#include "dvfs/objective.hh"
#include "gpu/epoch_stats.hh"
#include "power/power_model.hh"
#include "power/vf_table.hh"

namespace pcstall::faults
{
class FaultInjector;
} // namespace pcstall::faults

namespace pcstall::dvfs
{

/**
 * Accurate (fork-pre-execute) estimates of one epoch, produced by the
 * oracle machinery in src/oracle. domainInstr[d][s] is the number of
 * instructions domain d committed when sampled at V/f state s.
 */
struct AccurateEstimates
{
    std::vector<std::vector<double>> domainInstr;

    /** Wave-level sensitivity measured across the sampled states. */
    struct WaveSens
    {
        std::uint32_t cu = 0;
        std::uint32_t slot = 0;
        /** PC byte address the wave started the sampled epoch at. */
        std::uint64_t startPcAddr = 0;
        /** d(instructions)/d(frequency in GHz) from the regression. */
        double sensitivity = 0.0;
        /** Regression intercept: the instruction floor I0. */
        double level = 0.0;
        /** Age rank at the start of the sampled epoch. */
        std::uint32_t ageRank = 0;
    };
    std::vector<WaveSens> waves;

    bool empty() const { return domainInstr.empty(); }
};

/** Everything a controller sees at an epoch boundary. */
struct EpochContext
{
    /** Statistics of the epoch that just ended. */
    const gpu::EpochRecord &record;
    /** Waves resident right now (their PCs key the next epoch). */
    const std::vector<gpu::WaveSnapshot> &snapshots;

    const DomainMap &domains;
    const power::VfTable &table;
    const power::PowerModel &power;

    Tick epochLen = 0;
    double temperature = 45.0;
    Objective objective = Objective::Ed2p;
    double perfDegradationLimit = 0.05;
    /** Nominal state index (static baseline / perf-bound reference). */
    std::size_t nominalState = 0;

    /**
     * Accurate estimates of the epoch that just ended (taken at its
     * start); null unless the controller requested them.
     */
    const AccurateEstimates *elapsedAccurate = nullptr;
    /**
     * Accurate estimates of the upcoming epoch (taken right now);
     * null unless the controller requested them. Only the ORACLE
     * design may consume these - they are not implementable.
     */
    const AccurateEstimates *upcomingAccurate = nullptr;

    /** Running average chip power over the run so far (0 = cold). */
    Watts avgChipPower = 0.0;
    /** Running average instructions/epoch per domain (null = cold).
     *  Used by the marginal objectives to price time. */
    const std::vector<double> *avgDomainInstr = nullptr;

    /**
     * Decision-audit scratch (decision_audit.hh); null when provenance
     * is disabled. Controllers that consult predictor state should
     * describe what they looked up: `if (ctx.audit) ...`.
     */
    DecisionAudit *audit = nullptr;

    /**
     * The epoch's state-only energy terms at epochLen and temperature
     * (objective.hh), computed once per epoch by the run's ledger;
     * scoring needs them, so a context built by hand must set them.
     */
    const StateCosts *stateCosts = nullptr;
};

/** One domain's decision for the next epoch. */
struct DomainDecision
{
    /** Chosen V/f state index. */
    std::size_t state = 0;
    /**
     * Predicted instructions the domain will commit next epoch at the
     * chosen state (< 0 when the controller makes no prediction).
     * The experiment driver scores prediction accuracy against this.
     */
    double predictedInstr = -1.0;
};

/** Which fork-pre-execute sweeps a controller needs per epoch. */
enum class SweepNeed : std::uint8_t
{
    /** No oracle machinery (implementable designs). */
    None,
    /** Needs accurate estimates of each *elapsed* epoch. */
    Elapsed,
    /** Needs accurate estimates of each *upcoming* epoch (oracle). */
    Upcoming,
};

/** Interface for all Table III designs. */
class DvfsController
{
  public:
    virtual ~DvfsController() = default;

    /** Display name (matches Table III). */
    virtual std::string name() const = 0;

    /** Which sweeps the driver must perform for this controller. */
    virtual SweepNeed sweepNeed() const { return SweepNeed::None; }

    /** True when sweeps must also regress per-wavefront sensitivity. */
    virtual bool needsWaveLevel() const { return false; }

    /**
     * Called at every epoch boundary after harvesting; returns one
     * decision per V/f domain for the upcoming epoch.
     */
    virtual std::vector<DomainDecision> decide(const EpochContext &ctx)
        = 0;

    /**
     * Expose any predictor storage to the fault injector (called once
     * per epoch boundary, before decide()). Stateless controllers
     * have nothing to corrupt; the default is a no-op.
     */
    virtual void applyStorageFaults(faults::FaultInjector &injector)
    {
        (void)injector;
    }

    /** Times a divergence watchdog tripped into its fallback policy. */
    virtual std::uint64_t watchdogTrips() const { return 0; }

    /** Epochs decided by the fallback policy instead of the primary. */
    virtual std::uint64_t fallbackEpochs() const { return 0; }

    /** Storage bits flipped in this controller's predictor tables. */
    virtual std::uint64_t storageBitFlips() const { return 0; }

    /** Corrupted entries caught and scrubbed by parity protection. */
    virtual std::uint64_t storageScrubs() const { return 0; }
};

/**
 * Repair a decision vector in place so it is always legal to apply:
 * wrong-length vectors are resized (new slots run at
 * @p fallback_state), out-of-range state indices are clamped into the
 * table, and non-finite instruction predictions are dropped. Returns
 * the number of repairs, so the driver can count how often a
 * controller emitted something illegal.
 */
std::size_t sanitizeDecisions(std::vector<DomainDecision> &decisions,
                              const power::VfTable &table,
                              std::size_t num_domains,
                              std::size_t fallback_state);

/** Always runs every domain at one fixed state (static baselines). */
class StaticController : public DvfsController
{
  public:
    explicit StaticController(std::size_t state) : state_(state) {}

    std::string name() const override;
    std::vector<DomainDecision> decide(const EpochContext &ctx) override;

  private:
    std::size_t state_;
};

/** Sum a per-CU quantity over the CUs of one domain. */
template <typename Fn>
double
sumOverDomain(const DomainMap &domains, std::uint32_t domain, Fn &&fn)
{
    double sum = 0.0;
    const std::uint32_t first = domains.firstCu(domain);
    for (std::uint32_t cu = first; cu < first + domains.cusPerDomain();
         ++cu) {
        sum += fn(cu);
    }
    return sum;
}

/** Aggregate memory activity over the CUs of one domain. */
memory::MemActivity domainActivity(const DomainMap &domains,
                                   std::uint32_t domain,
                                   const gpu::EpochRecord &record);

/** Instructions the CUs of one domain committed in @p record. */
double domainCommitted(const DomainMap &domains, std::uint32_t domain,
                       const gpu::EpochRecord &record);

/**
 * The scoring inputs of domain @p d at this epoch boundary: @p instr_at
 * against the elapsed epoch's committed work and memory activity, the
 * domain's share of static memory power, and the context's objective
 * parameters and running averages. @p perf_limit, when >= 0, replaces
 * the context's EnergyUnderPerfBound degradation limit. The only
 * builder of DomainScoreInputs: decisions and the ledger's hindsight
 * scoring (docs/provenance.md) both go through it.
 */
DomainScoreInputs scoreInputs(const EpochContext &ctx, std::uint32_t d,
                              std::span<const double> instr_at,
                              double perf_limit = -1.0);

/**
 * The selection step every design ends in (Section 5.2: the frequency
 * choice is independent of the prediction): choose domain @p d's
 * state from its predicted I(f), @p instr_at (one entry per V/f
 * state), by chooseState() on scoreInputs(); predictedInstr is
 * @p instr_at at the chosen state.
 */
DomainDecision decideDomain(const EpochContext &ctx, std::uint32_t d,
                            std::span<const double> instr_at,
                            double perf_limit = -1.0);

/** decideDomain() for every domain; @p instr_at[d] is domain d's. */
std::vector<DomainDecision>
decideDomains(const EpochContext &ctx,
              const std::vector<std::vector<double>> &instr_at,
              double perf_limit = -1.0);

} // namespace pcstall::dvfs

#endif // PCSTALL_DVFS_CONTROLLER_HH
