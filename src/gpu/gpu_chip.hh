/**
 * @file
 * The whole simulated GPU: compute units, the shared memory hierarchy,
 * the workgroup dispatcher and the global event loop.
 *
 * GpuChip is copyable; a copy is a fully independent simulation with
 * identical state (the application itself is immutable and shared).
 * This is the primitive the oracle's fork-pre-execute methodology is
 * built on (paper Section 5.1).
 */

#ifndef PCSTALL_GPU_GPU_CHIP_HH
#define PCSTALL_GPU_GPU_CHIP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bit_mask.hh"
#include "common/types.hh"
#include "gpu/compute_unit.hh"
#include "gpu/epoch_stats.hh"
#include "gpu/gpu_config.hh"
#include "isa/kernel.hh"
#include "memory/memory_system.hh"

namespace pcstall::gpu
{

/**
 * Dirty marks for a whole chip relative to its last snapshot take:
 * which CUs changed (and which of their wave slots), plus the memory
 * hierarchy's marks. curTick and the dispatcher are tiny and always
 * restored, so they are not tracked.
 */
struct ChipDirty
{
    /** Per-CU: anything on that CU changed. */
    std::vector<std::uint8_t> cuTouched;
    /** Per-CU: wave slots whose cold record changed. */
    std::vector<BitMask> cuSlots;
    memory::MemDirty mem;

    void
    clearAll()
    {
        for (std::uint8_t &b : cuTouched)
            b = 0;
        for (BitMask &m : cuSlots)
            m.clearAll();
        mem.clearAll();
    }

    ChipDirty &
    operator|=(const ChipDirty &other)
    {
        if (cuTouched.size() < other.cuTouched.size()) {
            cuTouched.resize(other.cuTouched.size(), 0);
            cuSlots.resize(other.cuSlots.size());
        }
        for (std::size_t i = 0; i < other.cuTouched.size(); ++i) {
            cuTouched[i] |= other.cuTouched[i];
            cuSlots[i] |= other.cuSlots[i];
        }
        mem |= other.mem;
        return *this;
    }
};

/**
 * Identity of a chip as a snapshot-delta base. Copying a chip (either
 * construction or assignment) creates a *different* simulation whose
 * subsequent mutations are unrelated, so the copy gets a fresh uid and
 * a reset take counter; a snapshot pool uses (uid, takeSeq) to prove
 * that the dirt it accumulated still describes the same base lineage.
 */
struct SnapshotIdentity
{
    SnapshotIdentity();
    SnapshotIdentity(const SnapshotIdentity &);
    SnapshotIdentity &operator=(const SnapshotIdentity &);

    std::uint64_t uid = 0;
    /** Number of takeDirty() calls on this chip since it got its uid. */
    mutable std::uint64_t takeSeq = 0;
};

/** The simulated GPU chip. */
class GpuChip
{
  public:
    /**
     * Build a GPU and enqueue @p app for execution. The application is
     * shared immutably so snapshots do not deep-copy kernel code.
     */
    GpuChip(const GpuConfig &config,
            std::shared_ptr<const isa::Application> app);

    /** Current global time in ticks. */
    Tick now() const { return curTick; }

    /** True once every kernel launch has fully completed. */
    bool done() const;

    /**
     * Advance simulation to @p until (an epoch boundary). Returns
     * true when the application finished at or before @p until.
     */
    bool runUntil(Tick until);

    /**
     * Harvest per-CU and per-wave statistics for the epoch that ended
     * at the current time, resetting all epoch accounting.
     */
    EpochRecord harvestEpoch(Tick epoch_start);

    /**
     * Harvest into @p out, reusing its buffers. The hot-path variant:
     * the oracle harvests one record per V/f sample per epoch, and
     * reusing the record's vectors keeps that loop allocation-free in
     * steady state. @p out is fully overwritten.
     */
    void harvestEpoch(Tick epoch_start, EpochRecord &out);

    /**
     * Set CU @p cu_id's frequency. A change stalls the CU's issue for
     * @p transition_latency (IVR/FLL settle time).
     */
    void setCuFrequency(std::uint32_t cu_id, Freq freq,
                        Tick transition_latency);

    /** CU @p cu_id's current frequency. */
    Freq cuFrequency(std::uint32_t cu_id) const;

    /** Snapshots of all resident waves (predictor lookup keys). */
    std::vector<WaveSnapshot> waveSnapshots() const;

    /** Lifetime committed instructions across all CUs. */
    std::uint64_t totalCommitted() const;

    /** Tick of the most recent commit anywhere on the chip. */
    Tick lastCommitTick() const;

    /**
     * Order-sensitive digest of the chip's complete simulation state
     * (time, dispatcher, every CU and wavefront, and the memory
     * hierarchy including cache tags). Two chips with equal
     * fingerprints are, for all practical purposes, the same
     * simulation state; the oracle uses this to verify that pooled
     * snapshot restores are exact and that `forkPreExecuteSweep`
     * leaves its input chip untouched.
     */
    std::uint64_t stateFingerprint() const;

    /**
     * Rebuild every CU's derived scheduling state from its primary
     * state and panic on a mismatch (ComputeUnit::verifyDerivedState).
     * stateFingerprint() excludes derived state, so this is the check
     * that a copy or restore carried it over intact.
     */
    void verifyDerivedState() const;

    const GpuConfig &config() const { return cfg; }
    const memory::MemorySystem &memory() const { return mem; }
    const isa::Application &application() const { return *app; }

    // --- dirty-region snapshot support -------------------------------

    /** Identity of this chip as a delta base (fresh after any copy). */
    std::uint64_t snapshotUid() const { return ident_.uid; }

    /**
     * Move all dirty marks accumulated since the last take into
     * @p out and return this chip's new take sequence number.
     * Consecutive takes with the same snapshotUid() and consecutive
     * sequence numbers cover the chip's mutations with no gap.
     */
    std::uint64_t takeDirty(ChipDirty &out) const;

    /** True when un-taken dirty marks are pending anywhere. */
    bool hasPendingDirty() const;

    /**
     * Make this chip equal to @p base given that the two differ only
     * in curTick, the dispatcher and the regions flagged in @p dirty
     * (the union of both chips' dirt since they were last identical).
     * The chips must share the application and geometry.
     */
    void restoreDeltaFrom(const GpuChip &base, const ChipDirty &dirty);

  private:
    CuContext makeContext();

    /** Digest of the state CUs share: the dispatcher and the memory
     *  system's shared levels (verify builds' run-ahead check). */
    std::uint64_t sharedDigest() const;

    GpuConfig cfg;
    std::shared_ptr<const isa::Application> app;
    memory::MemorySystem mem;
    DispatchState dispatch;
    std::vector<ComputeUnit> cus;
    Tick curTick = 0;
    SnapshotIdentity ident_;
};

/**
 * V/f transition latency the paper assumes for a given epoch length:
 * 4 ns at 1 µs epochs, 40 ns at 10 µs, 200 ns at 50 µs, 400 ns at
 * 100 µs (linear in between, clamped outside).
 */
Tick transitionLatencyFor(Tick epoch_length);

} // namespace pcstall::gpu

#endif // PCSTALL_GPU_GPU_CHIP_HH
