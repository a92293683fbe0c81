/**
 * @file
 * REGR: an online counter-regression DVFS policy after Ilager et al.,
 * "A Data-Driven Frequency Scaling Approach for Deadline-aware Energy
 * Efficient Scheduling on GPUs" (arXiv:2004.08177), transplanted from
 * their offline-profiled kernel model to this simulator's per-epoch
 * telemetry.
 *
 * Per V/f domain the controller keeps a short forgetting-weighted
 * history of (frequency, committed instructions) observations and
 * fits I(f) = a + b*f by weighted least squares - a data-driven model
 * of the domain's frequency sensitivity learned from the frequencies
 * the domain actually visited. The fit drives the objective function
 * directly; while it is rank-deficient (too few samples, or every
 * sample at one frequency) predictions are anchored on the reactive
 * STALL decomposition instead, so cold starts behave like the
 * baseline reactive design.
 *
 * Two transplanted ideas from the paper:
 *  - deadline awareness: under EnergyUnderPerfBound the allowed
 *    degradation is tightened by a safety margin (knob `margin`),
 *    because a learned regression can overestimate throughput and a
 *    deadline miss is worse than a few per-mille of energy;
 *  - active profiling: every `probe` epochs the chosen state is
 *    nudged one step (alternating up/down) so the history keeps
 *    frequency diversity even in steady phases - the online analogue
 *    of the paper's profiling runs. Deterministic (epoch-counter
 *    driven), so replays reproduce decisions bit-for-bit.
 *
 * Config knobs: hist=8 (ring length), forget=0.9 (per-epoch weight
 * decay), margin=0.02 (deadline safety margin), probe=16 (probe
 * period; 0 = off).
 */

#ifndef PCSTALL_ZOO_REGR_CONTROLLER_HH
#define PCSTALL_ZOO_REGR_CONTROLLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "models/divergence_watchdog.hh"

namespace pcstall::zoo
{

/** REGR configuration (see file comment for the knob semantics). */
struct RegrConfig
{
    std::uint32_t historyLength = 8;
    double forget = 0.9;
    double deadlineMargin = 0.02;
    std::uint32_t probePeriod = 16;
    /** Divergence watchdog (wired to --watchdog). */
    bool watchdog = false;
};

/** Online frequency/throughput regression controller. */
class RegrController : public dvfs::DvfsController
{
  public:
    RegrController(const RegrConfig &config, std::uint32_t num_domains);

    std::string name() const override { return "REGR"; }

    std::vector<dvfs::DomainDecision>
    decide(const dvfs::EpochContext &ctx) override;

    std::uint64_t watchdogTrips() const override
    {
        return watchdog.trips();
    }
    std::uint64_t fallbackEpochs() const override
    {
        return watchdog.fallbackEpochs();
    }

    /** Domains whose last decision used the regression fit
     *  (vs. the STALL anchor); test hook. */
    std::uint64_t fitDecisions() const { return fitDecisions_; }

    const RegrConfig &config() const { return cfg; }

  private:
    /** One observation: domain frequency (GHz) and instructions. */
    struct Sample
    {
        double freqGhz = 0.0;
        double instr = 0.0;
    };

    /** Per-domain learning state. */
    struct DomainState
    {
        /** Newest-last observation ring. */
        std::vector<Sample> ring;
    };

    /** Weighted least-squares fit over a domain's ring; returns false
     *  when rank-deficient (caller anchors on STALL instead). */
    bool fitDomain(const DomainState &dom, double &a, double &b) const;

    RegrConfig cfg;
    std::vector<DomainState> domains_;
    std::uint64_t epochIndex = 0;
    std::uint64_t fitDecisions_ = 0;
    /** The latest decision's predicted instructions per domain and
     *  V/f state: the watchdog scores them at the next decide(), which
     *  then overwrites them in place (empty until the first
     *  decision). */
    std::vector<std::vector<double>> instrAt;
    models::DivergenceWatchdog watchdog;
};

} // namespace pcstall::zoo

#endif // PCSTALL_ZOO_REGR_CONTROLLER_HH
