/**
 * @file
 * Pooled simulator snapshots for the fork-pre-execute oracle.
 *
 * The paper's methodology (Section 5.1) re-executes every upcoming
 * epoch once per V/f state. Naively that is one deep copy of the
 * whole GpuChip per sample per epoch boundary - the dominant
 * allocation cost of every ACCPC/ORACLE run. A SnapshotPool instead
 * keeps one reusable scratch chip per sample slot and *restores* it
 * by copy assignment: vectors assign element-wise into their existing
 * allocations, so after the first epoch the pool reaches a capacity
 * high-water mark and restores stop touching the heap entirely
 * (Scarab-style cheap per-interval checkpointing). restore() is the
 * only way the oracle forks a chip; a slot's first restore (or the
 * ensureSlots() pre-warm) is a plain deep copy.
 *
 * The pool also owns the per-sample harvest records, the per-sample
 * wave-observation buffers and the reduction scratch, so a steady-
 * state `forkPreExecuteSweep` allocates only its returned estimates.
 *
 * A pool is single-owner state: share one per experiment run (it is
 * not thread-safe across concurrent *sweeps*), but the per-slot
 * accessors are safe to use from concurrent per-sample tasks as long
 * as each task touches only its own slot index (that is exactly what
 * the in-cell parallel sweep does). ensureSlots() must be called from
 * the sweep's serial prologue.
 */

#ifndef PCSTALL_ORACLE_SNAPSHOT_POOL_HH
#define PCSTALL_ORACLE_SNAPSHOT_POOL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "gpu/epoch_stats.hh"
#include "gpu/gpu_chip.hh"

namespace pcstall::oracle
{

/** One wave-level observation from one V/f sample (reduction input). */
struct WaveSample
{
    std::uint32_t cu = 0;
    std::uint32_t slot = 0;
    /** PC byte address the wave started the sampled epoch at. */
    std::uint64_t startPcAddr = 0;
    /** Age rank at the start of the sampled epoch. */
    std::uint32_t ageRank = 0;
    /** Sample index k the point was measured in (reduction order). */
    std::uint32_t sampleIndex = 0;
    /** Frequency the wave's domain ran at during the sample, in GHz. */
    double freqGHz = 0.0;
    /** Instructions the wave committed during the sample. */
    double instr = 0.0;
};

/** Reusable scratch chips + reduction buffers for oracle sweeps. */
class SnapshotPool
{
  public:
    /** Does nothing: kept only so perfbench/traced.cc compiles.
     *  Every restore is a copy-assign. */
    void setDeltaRestore(bool) {}

    /**
     * Restore a slot's scratch chip to an exact copy of a base chip.
     * The first use of a slot copy-constructs its chip (unless
     * pre-warmed by ensureSlots); later uses copy-assign into the
     * existing storage. Verify builds then shadow-check the chip's
     * derived scheduling state. Safe to call concurrently for
     * distinct slot indices.
     *
     * @param i     Sample slot index; must be < slotCount().
     * @param base  Chip state to restore the scratch chip to.
     * @return The slot's scratch chip, equal to @p base.
     */
    gpu::GpuChip &restore(std::size_t i, const gpu::GpuChip &base);

    /**
     * Reusable harvest record for one sample slot.
     *
     * @param i  Sample slot index; must be < slotCount().
     * @return The slot's epoch record (contents are stale until the
     *         sweep harvests into it).
     */
    gpu::EpochRecord &record(std::size_t i);

    /**
     * Reusable wave-observation buffer for one sample slot.
     *
     * @param i  Sample slot index; must be < slotCount().
     * @return The slot's wave-sample buffer (cleared by the sweep
     *         before refilling; capacity persists across epochs).
     */
    std::vector<WaveSample> &waves(std::size_t i);

    /**
     * Grow the pool to at least @p n sample slots. Serial prologue
     * only: growing may reallocate the slot array, which the
     * concurrent per-slot accessors never do.
     *
     * @param n  Minimum number of sample slots to provide.
     */
    void ensureSlots(std::size_t n);

    /**
     * Grow the pool to at least @p n sample slots and pre-warm every
     * chipless slot with a copy of @p base, so the first sweep's
     * (possibly parallel, possibly timed) restore phase never
     * copy-constructs. Serial prologue only.
     */
    void ensureSlots(std::size_t n, const gpu::GpuChip &base);

    /** @return Number of sample slots currently allocated. */
    std::size_t slotCount() const { return slots_.size(); }

    /** Reduction scratch shared across one sweep (and reused by the
     *  next one). Owned here so sweeps are allocation-free in steady
     *  state; only forkPreExecuteSweep should touch it. */
    struct Scratch
    {
        /** All samples' wave observations, flattened for sorting. */
        std::vector<WaveSample> merged;
        /** Regression inputs for one wave group. */
        std::vector<double> fitFreqs;
        std::vector<double> fitInstr;
        /** Per-state frequency cache (hoisted VfTable lookups). */
        std::vector<Freq> stateFreq;
        std::vector<double> stateGHz;
        /** Per-sample wall time in ns (-1 = metrics disabled). */
        std::vector<std::int64_t> sampleWallNs;
    };

    Scratch &scratch() { return scratch_; }

  private:
    struct Slot
    {
        /** Deferred: GpuChip has no default constructor, so the chip
         *  is created on first restore() (or pre-warmed) and reused
         *  afterwards. */
        std::unique_ptr<gpu::GpuChip> chip;
        gpu::EpochRecord record;
        std::vector<WaveSample> waves;
    };

    std::vector<Slot> slots_;
    Scratch scratch_;
};

} // namespace pcstall::oracle

#endif // PCSTALL_ORACLE_SNAPSHOT_POOL_HH
