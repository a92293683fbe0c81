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

#include "common/types.hh"
#include "gpu/compute_unit.hh"
#include "gpu/epoch_stats.hh"
#include "gpu/gpu_config.hh"
#include "isa/kernel.hh"
#include "memory/memory_system.hh"

namespace pcstall::gpu
{

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
};

/**
 * V/f transition latency the paper assumes for a given epoch length:
 * 4 ns at 1 µs epochs, 40 ns at 10 µs, 200 ns at 50 µs, 400 ns at
 * 100 µs (linear in between, clamped outside).
 */
Tick transitionLatencyFor(Tick epoch_length);

} // namespace pcstall::gpu

#endif // PCSTALL_GPU_GPU_CHIP_HH
