/**
 * @file
 * Per-run bookkeeping shared by the live ExperimentDriver and the
 * trace replay engine (trace::ReplayDriver): prediction-accuracy
 * scoring, energy/thermal accounting, the running averages consumed by
 * the marginal objectives, frequency residency, per-epoch trace
 * entries, and the decision-sanitize/apply step.
 *
 * Both drivers funnel every piece of metric arithmetic through this
 * class in the same order, so replaying a captured trace reproduces
 * the live run's RunResult bit-for-bit instead of merely
 * approximately - the determinism the capture/replay subsystem
 * promises (docs/trace_format.md).
 */

#ifndef PCSTALL_SIM_EPOCH_LEDGER_HH
#define PCSTALL_SIM_EPOCH_LEDGER_HH

#include <cstdint>
#include <vector>

#include "dvfs/controller.hh"
#include "faults/fault_injector.hh"
#include "obs/context.hh"
#include "sim/experiment.hh"

namespace pcstall::sim
{

/** See file comment. One instance per run; not reusable. */
class EpochLedger
{
  public:
    EpochLedger(const RunConfig &config, const power::VfTable &table,
                const power::PowerModel &power_model,
                const dvfs::DomainMap &domain_map,
                std::size_t nominal_idx);

    /**
     * Account one harvested epoch: score the previous epoch's
     * predictions, accumulate energy and thermal state, update the
     * running averages, frequency residency and (when
     * RunConfig::collectTrace) the per-epoch trace entry.
     *
     * @param record   The physical epoch record (energy/accuracy).
     * @param observed What the controller sees (may carry telemetry
     *                 faults; same object as @p record when clean).
     */
    void observeEpoch(const gpu::EpochRecord &record,
                      const gpu::EpochRecord &observed,
                      Tick epoch_start, Tick accounted_end);

    /** Build the controller's context for the upcoming epoch. */
    dvfs::EpochContext
    makeContext(const gpu::EpochRecord &observed,
                const std::vector<gpu::WaveSnapshot> &snapshots,
                const dvfs::AccurateEstimates *elapsed,
                const dvfs::AccurateEstimates *upcoming) const;

    /** What one domain's V/f request resolved to. */
    struct AppliedTransition
    {
        std::size_t state = 0;
        Tick extraLatency = 0;
    };

    /**
     * Sanitize @p decisions in place, resolve each against the fault
     * injector, advance the per-domain state and the prediction
     * shadow, and charge transition counts/energy. Returns the
     * per-domain outcome so the live driver can program the chip.
     */
    std::vector<AppliedTransition>
    applyDecisions(std::vector<dvfs::DomainDecision> &decisions,
                   faults::FaultInjector &injector);

    /**
     * Compute this epoch's fault counters from the injector deltas
     * (exposed via lastEpochFaults(); also copied into the newest
     * trace entry when collecting one). Call after applyDecisions()
     * with the totals snapshot taken before the epoch's first
     * injector use.
     */
    void traceEpochFaults(const faults::FaultInjector::Totals &base,
                          const faults::FaultInjector &injector,
                          bool fallback_active);

    /** Fault deltas computed by the last traceEpochFaults() call. */
    const gpu::FaultEpochCounters &lastEpochFaults() const
    {
        return lastFaults_;
    }

    /** Final accumulation of everything this ledger tracked. */
    void finalize(RunResult &result, bool completed, Tick last_commit,
                  std::uint64_t total_committed,
                  const faults::FaultInjector &injector,
                  const dvfs::DvfsController &controller);

  private:
    /** The context a decision at this boundary sees of @p record (no
     *  accurate estimates, no audit). */
    dvfs::EpochContext
    context(const gpu::EpochRecord &record,
            const std::vector<gpu::WaveSnapshot> &snapshots) const;

    /**
     * Fill in the pending DecisionRecord's realized outcome from the
     * epoch that just completed: per-state hindsight scores (STALL
     * estimation model, dvfs::scoreInputs and dvfs::scoreStates on the
     * physical record), the regret against best-in-hindsight and
     * best-static, and the regret-summary rollup. Called at the top of
     * observeEpoch().
     */
    void realizePending(const gpu::EpochRecord &record);
    const RunConfig &cfg;
    const power::VfTable &table;
    const power::PowerModel &power;
    const dvfs::DomainMap &domainMap;
    std::size_t nominalIdx;

    power::ThermalModel thermal;
    /** The state-only energy terms at the current temperature: every
     *  context scores from them, and the next observeEpoch() charges
     *  leakage with their factor. Their leakage follows the
     *  temperature, i.e. moves once per epoch. */
    dvfs::StateCosts stateCosts;
    std::vector<std::size_t> domainState;
    /** Last predicted instructions per domain (< 0 = no prediction). */
    std::vector<double> prevPred;

    // Running averages for the marginal objectives (EWMA, alpha 0.2).
    Watts avgPower = 0.0;
    std::vector<double> avgInstr;
    static constexpr double avgAlpha = 0.2;

    double accuracySum = 0.0;
    std::size_t accuracyN = 0;

    Joules energy = 0.0;
    Joules transitionEnergy = 0.0;
    std::uint64_t transitions = 0;
    std::uint64_t clampedDecisions = 0;
    std::size_t lastClamped_ = 0;

    std::vector<double> freqShare;
    std::uint64_t domainEpochs = 0;

    std::vector<EpochTraceEntry> traceEntries;
    gpu::FaultEpochCounters lastFaults_;

    // --- decision provenance (docs/provenance.md) -----------------
    /** What the controller saw in the observed (possibly telemetry-
     *  faulted) record, stashed per domain for the next decision. */
    struct ObservedDomainInputs
    {
        std::uint64_t instr = 0;
        std::uint64_t loadStall = 0;
        std::uint64_t memAccesses = 0;
    };

    /** Armed iff RunConfig::auditRegret or a provenance sink is set;
     *  the disabled path is this single bool check per call. */
    bool auditEnabled_ = false;
    /** Controller-side audit scratch, reset per decide() by
     *  makeContext() (mutable: arming the scratch does not change
     *  what the context describes). */
    mutable dvfs::DecisionAudit audit_;
    obs::RegretSummary regretSummary_;
    /** The decision awaiting its realized outcome. */
    obs::DecisionRecord pending_;
    bool pendingValid_ = false;
    std::uint64_t epochsObserved_ = 0;
    Tick lastEpochStart_ = 0;
    std::vector<ObservedDomainInputs> observedInputs_;

    // Observability handles, resolved once against the run context's
    // registry at construction (stable for the registry's lifetime).
    obs::Counter *epochsMetric;
    obs::Counter *transitionsMetric;
    obs::Counter *clampedMetric;
    obs::Histogram *errorPctMetric;
    std::vector<obs::Counter *> residencyMetric;
};

/**
 * The shared decide step: ask @p controller for the upcoming epoch's
 * decisions, except on the cold first epoch of an elapsed-sweep
 * controller (no elapsed-epoch estimate exists yet), which stays at
 * nominal without consulting the controller.
 */
std::vector<dvfs::DomainDecision>
decideEpoch(dvfs::DvfsController &controller,
            const dvfs::EpochContext &ctx, dvfs::SweepNeed need,
            bool have_elapsed, std::size_t num_domains,
            std::size_t nominal_idx);

} // namespace pcstall::sim

#endif // PCSTALL_SIM_EPOCH_LEDGER_HH
