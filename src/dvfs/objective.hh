/**
 * @file
 * DVFS objective functions (paper Section 5.2). For fixed-time epochs
 * the per-epoch decision reduces to minimizing P(f)/I(f)^(n+1) for an
 * ED^nP objective: with work W = I instructions done in epoch T, the
 * delay per unit work is T/I and energy per unit work is P*T/I, so
 *   EDP  per work unit ~ P * T^2 / I^2   -> minimize P/I^2
 *   ED2P per work unit ~ P * T^3 / I^3   -> minimize P/I^3.
 * The EnergyUnderPerfBound objective instead minimizes power among
 * states whose predicted throughput stays within a degradation limit
 * of the nominal frequency (Figure 18a).
 */

#ifndef PCSTALL_DVFS_OBJECTIVE_HH
#define PCSTALL_DVFS_OBJECTIVE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "memory/memory_system.hh"
#include "power/power_model.hh"
#include "power/vf_table.hh"

namespace pcstall::dvfs
{

/** Supported objective functions. */
enum class Objective : std::uint8_t
{
    /** Minimize energy-delay product. */
    Edp,
    /** Minimize energy-delay^2 product. */
    Ed2p,
    /** Minimize energy-delay^3 product. */
    Ed3p,
    /** Minimize energy subject to a performance-degradation bound. */
    EnergyUnderPerfBound,
    /**
     * Marginal-cost formulations (extension; see docs/architecture.md
     * section 4): for a global objective E * T^n, the correct
     * per-epoch greedy minimizes E(f) - n * Pavg * T_epoch * I(f)/Iavg,
     * pricing the time each extra instruction saves at n times the
     * chip's average power. Requires the running averages in
     * DomainScoreInputs; falls back to the ratio heuristic when they
     * are unavailable (cold start).
     */
    MarginalEdp,
    MarginalEd2p,
};

/** Name of an objective. */
const char *objectiveName(Objective objective);

/**
 * The state-only energy terms of one epoch: what each V/f state costs
 * a CU over an epoch of a given length at a given die temperature,
 * whatever work it does (power::CuStateTerms: V^2, clock energy,
 * leakage, IVR efficiency). Every domain of the epoch shares them, so
 * the run's ledger keeps one table (sim::EpochLedger,
 * EpochContext::stateCosts) and every (domain, state) score is left
 * with its work-dependent arithmetic alone. Only the leakage moves
 * with the temperature, so a new epoch recomputes nothing else.
 */
class StateCosts
{
  public:
    /** The costs of every state of @p table over @p epoch_len ticks at
     *  @p temperature (C). Keeps references to @p table and @p model,
     *  which must outlive it. */
    StateCosts(const power::VfTable &table,
               const power::PowerModel &model, Tick epoch_len,
               double temperature);

    /** Move to a new die temperature: one exp() and each state's
     *  leakage. */
    void setTemperature(double temperature);

    std::size_t numStates() const { return states_.size(); }
    const power::CuStateTerms &state(std::size_t s) const
    {
        return states_[s];
    }

    /** The leakage temperature factor the terms are at. */
    power::LeakageFactor leakage() const { return leak_; }
    /** tickSeconds() of the epoch length. */
    double epochSeconds() const { return epochSeconds_; }

  private:
    const power::VfTable &table_;
    const power::PowerModel &model_;
    double epochSeconds_ = 0.0;
    power::LeakageFactor leak_;
    std::vector<power::CuStateTerms> states_;
};

/**
 * Inputs needed to score candidate states for one V/f domain. Filled
 * from an epoch context by dvfs::scoreInputs() (controller.hh), the
 * one builder every design's decision and the ledger's hindsight
 * scoring share.
 */
struct DomainScoreInputs
{
    /**
     * Predicted instructions committed by the domain in the next
     * epoch, one entry per V/f state (same order as the table).
     */
    std::span<const double> instrAtState;

    /** Instructions the domain committed in the elapsed epoch. */
    double baselineInstr = 0.0;
    /** The domain's memory activity in the elapsed epoch (scaled by
     *  predicted throughput to estimate activity at other states). */
    memory::MemActivity baselineActivity;
    /** Number of CUs in the domain. */
    std::uint32_t numCus = 1;

    /**
     * The domain's share of frequency-independent chip power (the
     * fixed-clock memory domain's static power divided across
     * domains). Work done slowly still pays this floor, which is what
     * couples the per-epoch greedy choice to global ED^nP.
     */
    Watts staticShare = 0.0;

    /** The epoch's state-only energy terms, which also fix the epoch
     *  length; required (scoring panics without them). */
    const StateCosts *costs = nullptr;

    /** For EnergyUnderPerfBound: allowed fractional slowdown. */
    double perfDegradationLimit = 0.05;
    /** For EnergyUnderPerfBound: index of the nominal state. */
    std::size_t nominalState = 0;

    /** Running average chip power (W); 0 = unknown (cold start). */
    Watts avgChipPower = 0.0;
    /** Running average instructions/epoch for this domain; 0 =
     *  unknown. Used by the marginal objectives to price time. */
    double avgInstr = 0.0;
};

/**
 * Predicted energy the domain (CUs + attributed memory-side dynamic
 * energy) would consume in one epoch at state @p state, assuming
 * memory activity scales with predicted instruction throughput. The
 * state-only terms come from @p in.costs; chooseState() and
 * scoreStates() run the same arithmetic.
 */
Joules domainEpochEnergy(const power::VfTable &table,
                         const power::PowerModel &model,
                         const DomainScoreInputs &in, std::size_t state);

/**
 * Pick the V/f state optimizing @p objective for one domain: the
 * argmin of scoreStates() (first state on ties). Under
 * EnergyUnderPerfBound only states predicted to stay within the
 * degradation floor compete, and the nominal state is kept when none
 * does. A domain with no work predicted at any state parks at state 0.
 * Allocates nothing; callers normally reach it through
 * dvfs::decideDomain() (controller.hh).
 * @return the chosen state index.
 */
std::size_t chooseState(const power::VfTable &table,
                        const power::PowerModel &model,
                        const DomainScoreInputs &in, Objective objective);

/**
 * Score every candidate state under @p objective into @p out (size
 * table.numStates(); lower is better). chooseState() decides from the
 * same loop; the provenance subsystem (docs/provenance.md) scores
 * hindsight regret with it. Infeasible EnergyUnderPerfBound states are
 * charged a finite energy * (floor / predicted) penalty instead of
 * being excluded, so hindsight scoring (where the applied state may
 * turn out infeasible) always yields finite, comparable scores.
 */
void scoreStates(const power::VfTable &table,
                 const power::PowerModel &model,
                 const DomainScoreInputs &in, Objective objective,
                 std::span<double> out);

} // namespace pcstall::dvfs

#endif // PCSTALL_DVFS_OBJECTIVE_HH
