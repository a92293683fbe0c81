/**
 * @file
 * The divergence watchdog: graceful degradation shared by every
 * predictive design that has one (PCSTALL/ACCPC, REGR, DSO). An epoch
 * is flagged bad on either of two signals:
 *
 *  - model divergence: the controller scores its own previous
 *    prediction against what the elapsed epoch realized (at the
 *    frequency the domain actually ran, so DVFS transition faults do
 *    not count against the predictor) and the mean relative error
 *    exceeds WatchdogConfig::errorThreshold;
 *  - implausible telemetry (PCSTALL): a CU's counters violate timing
 *    invariants every clean record satisfies by construction.
 *
 * After tripAfter consecutive bad epochs decisions come from the
 * reactive STALL policy, which the watchdog owns; the controller keeps
 * learning in the background, and recoverAfter consecutive good
 * epochs hand control back (hysteresis, so a borderline predictor
 * does not flap). Epochs with nothing to score leave the streaks
 * alone.
 */

#ifndef PCSTALL_MODELS_DIVERGENCE_WATCHDOG_HH
#define PCSTALL_MODELS_DIVERGENCE_WATCHDOG_HH

#include <cstdint>
#include <vector>

#include "dvfs/controller.hh"
#include "models/reactive_controller.hh"

namespace pcstall::models
{

/** Divergence watchdog settings (off by default; wired to
 *  --watchdog). */
struct WatchdogConfig
{
    bool enabled = false;
    /**
     * Mean relative prediction error that counts as a bad epoch.
     * Deliberately loose - phase-spiky workloads predict no better
     * than ~50% fault-free, and that is the predictor's job, not a
     * fault; the threshold only catches a model that has become
     * nonsense (e.g. corrupted table storage).
     */
    double errorThreshold = 0.75;
    /** Consecutive bad epochs before falling back to STALL. */
    std::uint32_t tripAfter = 3;
    /** Consecutive good epochs before trusting the model again. */
    std::uint32_t recoverAfter = 8;
};

/** See file comment. One instance per controller. */
class DivergenceWatchdog
{
  public:
    explicit DivergenceWatchdog(const WatchdogConfig &config)
        : cfg(config)
    {
    }

    bool enabled() const { return cfg.enabled; }

    /** Add one domain's prediction error to the epoch being scored;
     *  idle domains (@p realized <= 0) are skipped. */
    void score(double predicted, double realized);

    /**
     * Score last epoch's per-state predictions of every domain
     * (@p prev_instr_at[d], empty before the first decision) at the
     * state the domain actually ran - the nearest table entry to its
     * recorded frequency - then close the epoch.
     */
    void observe(const dvfs::EpochContext &ctx,
                 const std::vector<std::vector<double>> &prev_instr_at);

    /** Close the epoch: advance the hysteresis with the mean error of
     *  the scored domains, or as bad when @p implausible. */
    void endEpoch(bool implausible = false);

    /** True while decisions should come from the STALL fallback. */
    bool inFallback() const { return fallback; }

    /** Decide an epoch by the STALL fallback: counts a fallback epoch
     *  and flags the decision audit. */
    std::vector<dvfs::DomainDecision>
    decideFallback(const dvfs::EpochContext &ctx);

    std::uint64_t trips() const { return trips_; }
    std::uint64_t fallbackEpochs() const { return fallbackEpochs_; }

  private:
    WatchdogConfig cfg;
    ReactiveController stall{EstimationKind::Stall};
    /** The epoch being scored. */
    double errorSum = 0.0;
    std::uint32_t scored = 0;
    bool fallback = false;
    std::uint32_t badStreak = 0;
    std::uint32_t goodStreak = 0;
    std::uint64_t trips_ = 0;
    std::uint64_t fallbackEpochs_ = 0;
};

} // namespace pcstall::models

#endif // PCSTALL_MODELS_DIVERGENCE_WATCHDOG_HH
