/**
 * @file
 * One GCN3-like compute unit: up to 40 resident wavefronts scheduled
 * oldest-first, one issue slot per CU cycle, workgroup barriers, and
 * the per-epoch instrumentation every estimation model consumes
 * (stall time, leading loads, in-flight-load interval union, overlap).
 *
 * A ComputeUnit is pure data plus methods that receive an explicit
 * context (memory system, application, dispatcher); it contains no
 * pointers, so GpuChip snapshots are plain copies.
 *
 * Layout: the scheduling-hot per-wave fields are stored SoA
 * (wstate_/readyAt_/seq_) next to pending/occupied bitmasks, so
 * per-tick work touches mask words and a few contiguous arrays
 * instead of the cold Wavefront records. Two derived structures keep
 * that work from growing with the number of resident waves:
 *  - the age order: resident slots in dispatch order, with ready and
 *    per-SIMD masks indexed by age rank, so each SIMD's oldest-ready
 *    pick is a countr_zero and a wave's age rank is a lookup;
 *  - the wake wheel: Busy/WaitMem wakes bucketed by tick into a ring
 *    of slot masks plus a far set, so a wake touches only the waves
 *    due by then and the current bucket's members.
 * Derived structures are rebuilt-and-compared by verifyDerivedState(),
 * which verify builds run after every step and every snapshot restore.
 */

#ifndef PCSTALL_GPU_COMPUTE_UNIT_HH
#define PCSTALL_GPU_COMPUTE_UNIT_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bit_mask.hh"
#include "common/types.hh"
#include "gpu/epoch_stats.hh"
#include "gpu/gpu_config.hh"
#include "gpu/wavefront.hh"
#include "isa/kernel.hh"
#include "memory/memory_system.hh"

namespace pcstall::gpu
{

/** GPU-wide workgroup dispatch state (lives in GpuChip). */
struct DispatchState
{
    /** Index of the kernel launch currently being dispatched. */
    std::uint32_t curLaunch = 0;
    /** Workgroups of the current launch not yet handed to a CU. */
    std::uint32_t wgUndispatched = 0;
    /** Workgroups of the current launch fully completed. */
    std::uint32_t wgCompleted = 0;
    /** Monotone wavefront id source. */
    std::uint64_t nextGlobalWaveId = 0;
};

/** Shared references a ComputeUnit needs while executing. */
struct CuContext
{
    memory::MemorySystem &mem;
    const isa::Application &app;
    DispatchState &dispatch;
    const GpuConfig &cfg;
};

/** Why a CU-wide sleep is gated (for STALL/CRISP accounting). */
enum class SleepGate : std::uint8_t { None, Load, Store };

/** Outcome of one CU activation. */
struct StepResult
{
    /** When this CU next wants to run (tickInf = parked). */
    Tick next = tickInf;
    /** True when the current kernel launch completed: wake all CUs. */
    bool launchFinished = false;
};

/** A workgroup resident on a CU (barrier bookkeeping). */
struct ResidentWg
{
    bool valid = false;
    std::uint32_t launchIndex = 0;
    std::uint32_t waveCount = 0;
    std::uint32_t arrived = 0;
    std::uint32_t done = 0;
};

/** One compute unit. */
class ComputeUnit
{
  public:
    /**
     * Prepare @p slot_count empty wave slots for CU @p id with
     * @p num_simds issue pipes (slot i belongs to SIMD i % num_simds).
     */
    void init(std::uint32_t id, std::uint32_t slot_count,
              std::uint32_t num_simds, Freq freq);

    /**
     * Process one activation at global time @p now: wake waves, issue
     * at most one instruction per SIMD, or compute the next wake time.
     */
    StepResult step(CuContext &ctx, Tick now);

    /**
     * Decide whether the step at @p now touches only this CU's own
     * state, so it commutes with every other CU's step before it and
     * may run ahead of the chip's (tick, id) order. Private: VALU,
     * SALU, LDS, branch and waitcnt issues, an MSHR-full retry, an L1
     * load hit, a write-combined store, a step inside a V/f
     * transition stall, and a step that only goes to sleep. Shared:
     * an L1 miss, a store that reaches L2, a barrier, EndPgm, and any
     * step that would call the dispatcher.
     *
     * To decide, the probe brings the CU to @p now (load drains, sleep
     * close and wakes are idempotent at a fixed tick), picks each
     * SIMD's oldest ready wave and reads the instruction at each
     * pick's pc; step(@p now) reuses those picks. An idle CU is never
     * probed forward: a launch-finished broadcast may wake it before
     * @p now.
     */
    bool probe(const CuContext &ctx, Tick now);

    /**
     * Rebuild every derived scheduling structure (free count, pending
     * and occupied masks, the age order and its ready/SIMD masks, wake
     * wheel and far-set membership, and the far bound) from
     * wstate_/seq_/readyAt_, and panic on any mismatch. Verify builds
     * call it after every step and every snapshot restore.
     */
    void verifyDerivedState() const;

    /**
     * Close all accrual intervals at @p boundary, emit this CU's and
     * its waves' epoch records into @p out, and reset epoch state.
     */
    void harvest(CuContext &ctx, Tick boundary, CuEpochRecord &cu_out,
                 std::vector<WaveEpochRecord> &waves_out);

    /** Change the operating frequency (stalls issue for @p trans). */
    void setFrequency(Freq freq, Tick now, Tick trans);

    Freq frequency() const { return freq_; }
    Tick period() const { return period_; }

    /** When this CU next wants to be activated (tickInf = parked). */
    Tick nextEventAt = 0;

    /** True when no wavefronts are resident. */
    bool idle() const { return !occMask_.any(); }

    /** Resident-wave snapshots with age ranks (predictor lookups). */
    void appendSnapshots(const isa::Application &app,
                         std::vector<WaveSnapshot> &out) const;

    /** Lifetime committed-instruction count. */
    std::uint64_t lifeCommitted() const { return lifeCommitted_; }

    /** Tick of the most recent commit on this CU. */
    Tick lastCommitTick() const { return lastCommit_; }

    std::uint32_t id() const { return cuId; }

    /**
     * Mix this CU's complete simulation state (scheduling, accrual
     * markers, per-epoch counters and every resident wavefront) into
     * the FNV-style digest @p h. Used by GpuChip::stateFingerprint()
     * to verify snapshot restores and sweep const-ness.
     */
    void fingerprint(std::uint64_t &h) const;

  private:
    /** Retire completions, close the sleep and wake waves up to @p now
     *  (idempotent at a fixed tick). */
    void catchUp(Tick now);
    /** Retire CU-level load completions up to @p now. */
    void drainLoadCompletions(Tick now);
    /** Move waves whose wake time has passed back to Ready. */
    void wakeWaves(Tick now);
    /** Close an in-progress CU sleep interval. */
    void closeSleep(Tick now);
    /**
     * Issue slot @p slot's next instruction. Returns true when it
     * released a barrier, which readies waves on every SIMD.
     */
    bool issue(CuContext &ctx, std::uint32_t slot, Tick now);
    /** Try to pull new workgroups from the dispatcher. */
    bool tryDispatch(CuContext &ctx, Tick now);
    /** Release every wave of workgroup @p wg_index blocked at barrier. */
    void releaseBarrier(std::uint32_t wg_index, Tick now);
    /** Compute the address of a vector memory access. */
    std::uint64_t genAddress(const isa::Kernel &kernel,
                             const Wavefront &wave,
                             const isa::Instruction &ins) const;
    /** Fill picks_ with each SIMD's oldest ready wave (-1 when none). */
    void pickReady();

    /** Append newly dispatched slot @p i to the age order. */
    void joinAge(std::uint32_t i);
    /** Remove retiring slot @p i from the age order. */
    void leaveAge(std::uint32_t i);
    /** Wake slot @p i (its wake time has passed) back to Ready. */
    void wakeSlot(std::uint32_t i);
    /** Drain every member of wheel bucket @p b (all are due). */
    void drainBucket(std::size_t b);
    /** Move far-set waves whose wake entered the wheel's horizon. */
    void pullFar();
    /**
     * Packed (readyAt << 16 | slot) minimum over the slots set in the
     * mask whose word wi is @p word_at(wi): the earliest wake, ties to
     * the lowest slot (all ones when the mask is empty).
     */
    template <typename WordAt>
    std::uint64_t minWakeKey(WordAt word_at) const;
    /** minWakeKey() over every pending slot, read from the wake wheel:
     *  only its first live bucket, or the far set when it is empty. */
    std::uint64_t earliestWakeKey() const;

    /**
     * Move slot @p i to state @p ns, maintaining the pending/occupied
     * masks, the age order and its ready mask and the free count. The
     * single chokepoint for wave-state transitions;
     * a move into Busy/WaitMem goes through park() to arm its wake.
     */
    void
    setWaveState(std::uint32_t i, WaveState ns)
    {
        const WaveState os = wstate_[i];
        if (os == WaveState::Ready)
            readyAge_.reset(ageOf_[i]);
        else if (os == WaveState::Busy || os == WaveState::WaitMem)
            pendMask_.reset(i);
        else if (os == WaveState::Idle)
            joinAge(i);
        if (ns == WaveState::Ready)
            readyAge_.set(ageOf_[i]);
        else if (ns == WaveState::Busy || ns == WaveState::WaitMem)
            pendMask_.set(i);
        else if (ns == WaveState::Idle)
            leaveAge(i);
        wstate_[i] = ns;
    }

    /** Put slot @p i into Busy or WaitMem until tick @p at. */
    void
    park(std::uint32_t i, WaveState ns, Tick at)
    {
        setWaveState(i, ns);
        readyAt_[i] = at;
        armWake(i, at);
    }

    /**
     * File pending slot @p i under its wake tick @p at: in the bucket
     * of its block (never earlier than the current one) while that
     * block lies inside the wheel, otherwise in the far set.
     */
    void
    armWake(std::uint32_t i, Tick at)
    {
        const Tick block = std::max(at >> wheelShift, wheelBlock_);
        if (block - wheelBlock_ < wheelBuckets) {
            const std::size_t b =
                static_cast<std::size_t>(block) & (wheelBuckets - 1);
            wheel_[b * pendMask_.wordCount() + (i >> 6)] |=
                1ULL << (i & 63);
            wheelLive_ |= 1ULL << b;
        } else {
            farMask_.set(i);
            farWakeAt_ = std::min(farWakeAt_, at);
        }
    }

    std::uint32_t cuId = 0;
    Freq freq_ = 0;
    Tick period_ = 0;
    /** Issue blocked until this tick after a V/f transition. */
    Tick freqStallUntil = 0;

    /** Cold per-wave records (hot fields live in the SoA arrays). */
    std::vector<Wavefront> slots;
    std::vector<ResidentWg> wgs;

    // --- SoA scheduling state (one entry per slot) ---
    std::vector<WaveState> wstate_;
    /** For Busy: when the wave can issue again. For WaitMem: wake. */
    std::vector<Tick> readyAt_;
    /** Dispatch order within the CU; oldest-first scheduling key. */
    std::vector<std::uint64_t> seq_;
    /** Slots in Busy or WaitMem (have a pending wake in readyAt_). */
    BitMask pendMask_;
    /** Slots not Idle. */
    BitMask occMask_;

    // --- age order (derived state, excluded from fingerprint()) ---
    // Resident slots sorted by seq_. A dispatch appends (seqs only
    // grow); a retiring wave is erased and the age-indexed masks are
    // rebuilt, which costs O(resident) but happens once per wave.
    /** Slot of each age rank (0 = oldest), for ranks < resident. */
    std::vector<std::uint32_t> ageSlot_;
    /** Age rank of each resident slot (inverse of ageSlot_). */
    std::vector<std::uint32_t> ageOf_;
    /** Age ranks whose wave is Ready. */
    BitMask readyAge_;
    /** Per SIMD: age ranks whose slot belongs to it (slot % simds). */
    std::vector<BitMask> simdAge_;

    // --- wake wheel (derived state, excluded from fingerprint()) ---
    // Every Busy/WaitMem slot sits in exactly one place: the bucket of
    // its wake block max(readyAt >> wheelShift, wheelBlock_) while
    // that block is below wheelBlock_ + wheelBuckets, otherwise the
    // far set. Buckets of passed blocks are wholly due; only the
    // current bucket's members need their wake tick checked.
    /** log2 of the ticks one bucket spans. */
    static constexpr unsigned wheelShift = 9;
    /** Buckets in the ring (one bit each in wheelLive_). */
    static constexpr Tick wheelBuckets = 64;
    /** Bucket b's slot mask: words [b * W, (b + 1) * W), W =
     *  pendMask_.wordCount(). */
    std::vector<std::uint64_t> wheel_;
    /** Bit b set when bucket b has members. */
    std::uint64_t wheelLive_ = 0;
    /** Block (tick >> wheelShift) of the current bucket: the block of
     *  the latest wakeWaves() call. */
    Tick wheelBlock_ = 0;
    /** Pending slots whose wake lies past the wheel's horizon. */
    BitMask farMask_;
    /** Exact earliest wake in farMask_ (tickInf when empty). */
    Tick farWakeAt_ = tickInf;

    /** Per SIMD: the slot it issues next (-1 = none), valid only at
     *  tick pickedAt_. probe() fills them and the step at the same
     *  tick consumes them; every step resets pickedAt_, so they never
     *  outlive GpuChip::runUntil. Excluded from fingerprint(). */
    std::vector<std::int32_t> picks_;
    Tick pickedAt_ = tickInf;

    /** Cached count of Idle slots (dispatch gating). */
    std::uint32_t freeSlots = 0;
    std::uint64_t seqCounter = 0;
    std::uint64_t lifeCommitted_ = 0;
    Tick lastCommit_ = 0;

    /** Min-heap (via std::*_heap with std::greater) of in-flight load
     *  completion ticks, CU-wide. */
    std::vector<Tick> loadCompletions;
    /** Min-heap of in-flight store completion ticks (MSHR release). */
    std::vector<Tick> storeCompletions;
    std::uint32_t outstandingLoads = 0;
    std::uint32_t outstandingTotal = 0;

    // --- accrual markers ---
    bool sleeping = false;
    Tick sleepStart = 0;
    Tick sleepUntil = 0;
    SleepGate sleepGate = SleepGate::None;

    bool memActive = false;
    Tick memStart = 0;

    bool leadActive = false;
    Tick leadStart = 0;
    Tick leadUntil = 0;

    // --- per-epoch counters ---
    std::uint64_t epCommitted = 0;
    std::uint64_t epLoads = 0;
    std::uint64_t epStores = 0;
    Tick epBusy = 0;
    Tick epOverlap = 0;
    Tick epLoadStall = 0;
    Tick epStoreStall = 0;
    Tick epLeadLoad = 0;
    Tick epMemInterval = 0;
};

} // namespace pcstall::gpu

#endif // PCSTALL_GPU_COMPUTE_UNIT_HH
