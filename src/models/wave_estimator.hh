/**
 * @file
 * Wavefront-level STALL sensitivity estimation (paper Section 4.4):
 *
 *   Sens_WF = IPC_WF * T_core,WF
 *
 * which equals dI/df of the stall model evaluated at the elapsed
 * frequency (instructions per GHz here). The estimate is further
 * normalized by the wavefront's scheduling age: with oldest-first
 * scheduling, younger waves see suppressed throughput purely from
 * contention (Figure 11a), so the table stores an age-corrected
 * intrinsic sensitivity and lookups re-apply the correction for the
 * wave's age at prediction time.
 */

#ifndef PCSTALL_MODELS_WAVE_ESTIMATOR_HH
#define PCSTALL_MODELS_WAVE_ESTIMATOR_HH

#include <cstdint>
#include <span>

#include "common/types.hh"
#include "gpu/epoch_stats.hh"
#include "power/vf_table.hh"

namespace pcstall::models
{

/** Tunables of the wavefront-level estimator. */
struct WaveEstimatorConfig
{
    /** Apply age normalization (ablation toggle). */
    bool normalizeAge = true;
    /**
     * Maximum relative throughput suppression of the youngest wave
     * versus the oldest (linear in age rank).
     */
    double contentionCoeff = 0.35;
    /** Number of wave slots (age ranks span [0, slots-1]). */
    std::uint32_t waveSlots = 40;
    /** Weight of barrier-wait time in the async component. */
    double barrierWeight = 1.0;
};

/**
 * Relative throughput factor a wave at @p age_rank experiences from
 * oldest-first scheduling contention (1.0 for the oldest wave).
 */
double contentionFactor(const WaveEstimatorConfig &cfg,
                        std::uint32_t age_rank);

/**
 * Raw (un-normalized) wavefront sensitivity of an elapsed epoch in
 * instructions per GHz: committed * T_core / (T_epoch * f_GHz).
 */
double waveSensitivity(const gpu::WaveEpochRecord &record,
                       const WaveEstimatorConfig &cfg, Tick epoch_len,
                       Freq freq);

/** Age-normalized sensitivity for storage in the PC table. */
double normalizedWaveSensitivity(const gpu::WaveEpochRecord &record,
                                 const WaveEstimatorConfig &cfg,
                                 Tick epoch_len, Freq freq);

/** A wave's linear phase model I(f) = level + sens * f (f in GHz). */
struct WavePhase
{
    /** waveSensitivity(): instructions per GHz. */
    double sens = 0.0;
    /**
     * The frequency-independent instruction floor I0, from the
     * stall-model linearization: I0 = I1 * T_async / T (a fully
     * stalled wave keeps its throughput, a fully compute wave scales
     * through the origin).
     */
    double level = 0.0;
};

/** The wave's elapsed-epoch phase model: its sensitivity and the
 *  level of the same linearization, computed together. */
WavePhase wavePhase(const gpu::WaveEpochRecord &record,
                    const WaveEstimatorConfig &cfg, Tick epoch_len,
                    Freq freq);

/**
 * A summed phase model I(f) = level + sens * f (f in GHz) evaluated at
 * @p freq, clamped at zero: the prediction PCSTALL and GPHT select
 * from (and PCSTALL's watchdog scores).
 */
double phaseModelInstr(double level, double sens, Freq freq);

/** phaseModelInstr() at every state of @p table, written to @p out. */
void phaseModelInstrAt(double level, double sens,
                       const power::VfTable &table,
                       std::span<double> out);

} // namespace pcstall::models

#endif // PCSTALL_MODELS_WAVE_ESTIMATOR_HH
