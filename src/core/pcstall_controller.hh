/**
 * @file
 * PCSTALL: the paper's contribution. A wavefront-level, PC-indexed
 * sensitivity predictor driving per-domain DVFS decisions
 * (Sections 4.2-4.4, Figure 12).
 *
 * Per epoch boundary:
 *  1. UPDATE - each wavefront active in the elapsed epoch estimates
 *     its sensitivity with the wavefront STALL model, normalizes it by
 *     scheduling age, and stores it in the PC table indexed by the PC
 *     the epoch started at.
 *  2. LOOKUP - each resident wavefront indexes the table with its
 *     *next* PC; the retrieved per-wave sensitivities are de-
 *     normalized by current age and summed into the domain
 *     sensitivity (the metric is commutative, Section 4.2).
 *  3. SELECT - the summed phase model I(f) = I0 + S * f at each
 *     candidate state goes to dvfs::decideDomain, the objective-driven
 *     selection step every design shares (it is orthogonal to the
 *     prediction, Section 5.2).
 *
 * With cfg.accurateEstimates = true this becomes ACCPC: the table is
 * filled with fork-pre-execute measured wavefront sensitivities
 * instead of the STALL-model estimates (Table III).
 */

#ifndef PCSTALL_CORE_PCSTALL_CONTROLLER_HH
#define PCSTALL_CORE_PCSTALL_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "dvfs/controller.hh"
#include "models/divergence_watchdog.hh"
#include "models/wave_estimator.hh"
#include "predict/pc_table.hh"

namespace pcstall::core
{

/** Full PCSTALL configuration. */
struct PcstallConfig
{
    predict::PcTableConfig table;
    models::WaveEstimatorConfig estimator;
    /** One PC table per this many CUs (paper: tables may be shared). */
    std::uint32_t cusPerTable = 1;
    /** ACCPC mode: fill the table from oracle wave sensitivities. */
    bool accurateEstimates = false;
    /**
     * Learn the age-rank contention factors from observed per-age
     * throughput shares (an EWMA over epochs) instead of the static
     * linear model. This is the paper's "normalized depending on the
     * relative age" with a self-calibrating correction; hardware cost
     * is one small counter per wave slot. Ablation toggle.
     */
    bool adaptiveContention = true;
    /** EWMA weight for the adaptive contention update. */
    double contentionAlpha = 0.25;
    /**
     * On table miss, fall back to the wave's own last-epoch estimate
     * (reactive fallback) instead of predicting zero.
     */
    bool reactiveFallback = true;
    /**
     * While a wave's PC stays inside the granule its previous epoch
     * started in, its own last-epoch model is the best predictor (the
     * region has not changed); the table entry is consulted only when
     * the PC has moved - precisely where last-value prediction fails.
     * Hardware cost: one compare against the starting-PC register
     * PCSTALL already keeps per wave (Table I). Ablation toggle.
     */
    bool lookupOnRegionChange = true;
    /** Divergence watchdog with STALL fallback (off by default; see
     *  models/divergence_watchdog.hh). Besides scoring its phase
     *  model, PCSTALL flags implausible telemetry: counters violating
     *  loadStall + storeStall <= epoch, overlap <= busy or
     *  leadLoad <= memInterval <= epoch, which independent
     *  per-counter corruption breaks whenever two sides are close
     *  and no clean record can. */
    models::WatchdogConfig watchdog;

    /**
     * Scale the quantization range for an epoch length (longer epochs
     * commit proportionally more instructions per wave).
     */
    static PcstallConfig forEpoch(Tick epoch_len,
                                  std::uint32_t wave_slots = 40);
};

/** The PCSTALL (or ACCPC) DVFS controller. */
class PcstallController : public dvfs::DvfsController
{
  public:
    PcstallController(const PcstallConfig &config, std::uint32_t num_cus);

    std::string name() const override;

    dvfs::SweepNeed sweepNeed() const override
    {
        return cfg.accurateEstimates ? dvfs::SweepNeed::Elapsed
                                     : dvfs::SweepNeed::None;
    }

    bool needsWaveLevel() const override { return cfg.accurateEstimates; }

    std::vector<dvfs::DomainDecision>
    decide(const dvfs::EpochContext &ctx) override;

    void applyStorageFaults(faults::FaultInjector &injector) override;

    std::uint64_t watchdogTrips() const override
    {
        return watchdog.trips();
    }
    std::uint64_t fallbackEpochs() const override
    {
        return watchdog.fallbackEpochs();
    }
    std::uint64_t storageBitFlips() const override { return bitFlips_; }
    std::uint64_t storageScrubs() const override;

    /** True while decisions come from the STALL fallback (test hook). */
    bool inFallback() const { return watchdog.inFallback(); }

    /** Aggregate PC-table hit ratio across all instances. */
    double tableHitRatio() const;

    /** Current contention factor for an age rank (test hook). */
    double contention(std::uint32_t age_rank) const;

    /** Total predictor storage in bytes across all instances. */
    std::uint64_t storageBytes() const;

    const PcstallConfig &config() const { return cfg; }

    /** The PC-table instances (snapshot/restore, see src/trace). */
    const std::vector<predict::PcSensitivityTable> &pcTables() const
    {
        return tables;
    }
    std::vector<predict::PcSensitivityTable> &pcTables()
    {
        return tables;
    }

  private:
    predict::PcSensitivityTable &tableFor(std::uint32_t cu)
    {
        return tables[cu / cfg.cusPerTable];
    }

    /** Refresh the adaptive age-share EWMA from an epoch record. */
    void learnContention(const dvfs::EpochContext &ctx);

    /**
     * Score the previous epoch's phase-model prediction and the
     * telemetry's plausibility against what the elapsed epoch
     * realized, advancing the watchdog.
     */
    void observeWatchdog(const dvfs::EpochContext &ctx);

    /** A wave's elapsed-epoch phase model and where it started. */
    struct WaveModel
    {
        double sens = 0.0;
        double level = 0.0;
        /** PC-table granule the elapsed epoch started at. */
        std::uint64_t granule = ~0ULL;
        /** The decide() that wrote it (see epochStamp). */
        std::uint64_t epoch = 0;
    };

    /** Record (cu, slot)'s model for this epoch; a later write for
     *  the same wave replaces an earlier one. */
    void storeModel(std::uint32_t cu, std::uint32_t slot,
                    const models::WavePhase &phase,
                    std::uint64_t granule);

    /** (cu, slot)'s model written this epoch, or null. */
    const WaveModel *findModel(std::uint32_t cu, std::uint32_t slot) const;

    PcstallConfig cfg;
    std::vector<predict::PcSensitivityTable> tables;
    /**
     * Last-epoch model per (cu, slot), flat at cu * modelStride + slot:
     * used directly while the wave stays in the same code region, and
     * as the miss fallback. An entry is current only while its epoch
     * equals epochStamp, so starting an epoch empties the table
     * without touching it.
     */
    std::vector<WaveModel> lastModel;
    /** Slots per CU row: the configured wave slots, widened when a
     *  higher slot is written. */
    std::size_t modelStride = 1;
    /** Counts decide() calls; 0 marks an entry never written. */
    std::uint64_t epochStamp = 0;
    /** Measured throughput share per age rank (adaptive contention). */
    std::vector<double> ageShare;
    /** learnContention() scratch: per-age committed sums and counts. */
    std::vector<double> ageCommitted;
    std::vector<double> ageCount;

    models::DivergenceWatchdog watchdog;
    /** Per-domain phase model of the latest decision (the watchdog's
     *  prediction shadow, scored at the next decide(); empty before
     *  the first decision). */
    std::vector<double> domainSens;
    std::vector<double> domainLevel;
    /** Selection scratch: one domain's I(f) at every state. */
    std::vector<double> instrAt;
    std::uint64_t bitFlips_ = 0;
};

} // namespace pcstall::core

#endif // PCSTALL_CORE_PCSTALL_CONTROLLER_HH
