#include "oracle/snapshot_pool.hh"

#include "common/logging.hh"

namespace pcstall::oracle
{

void
SnapshotPool::beginSweep(const gpu::GpuChip &base)
{
    if (!delta_)
        return;
    const std::uint64_t seq = base.takeDirty(baseTake_);
    // The chain is unbroken only if this is the same base chip as the
    // previous sweep and we observed every take in between: then the
    // dirt taken now covers exactly what the base did since the slots
    // were last synced.
    const bool continuous =
        base.snapshotUid() == baseUid_ && seq == baseSeq_ + 1;
    baseUid_ = base.snapshotUid();
    baseSeq_ = seq;
    ++sweepSeq_;
    for (Slot &slot : slots_) {
        if (!continuous)
            slot.canDelta = false;
        else if (slot.canDelta)
            slot.pending |= baseTake_;
        slot.syncSeq = sweepSeq_;
    }
}

gpu::GpuChip &
SnapshotPool::restore(std::size_t i, const gpu::GpuChip &base)
{
    panicIf(i >= slots_.size(), "snapshot pool slot out of range");
    Slot &slot = slots_[i];
    // Delta is sound only when the slot was synced for this very
    // sweep against this very base chip and the base has no untaken
    // dirt (i.e. it was not mutated after beginSweep).
    const bool use_delta = delta_ && slot.chip && slot.canDelta &&
        sweepSeq_ > 0 && slot.syncSeq == sweepSeq_ &&
        base.snapshotUid() == baseUid_ && !base.hasPendingDirty();
    if (!slot.chip) {
        slot.chip = std::make_unique<gpu::GpuChip>(base);
        slot.canDelta = delta_;
        fullRestores_.fetch_add(1, std::memory_order_relaxed);
    } else if (use_delta) {
        // Regions to copy: what this slot's chip touched since its
        // last take (the previous sample's pre-execution) plus what
        // the base did while the slot sat out.
        slot.chip->takeDirty(slot.takeBuf);
        slot.takeBuf |= slot.pending;
        slot.chip->restoreDeltaFrom(base, slot.takeBuf);
        deltaRestores_.fetch_add(1, std::memory_order_relaxed);
    } else {
        // Copy assignment: every vector inside the chip assigns into
        // its existing allocation, so steady-state restores are pure
        // memcpy-like work with no heap traffic. The assignment also
        // copies the base's (clean) dirty marks, re-anchoring the
        // slot's delta chain.
        *slot.chip = base;
        slot.canDelta = delta_;
        fullRestores_.fetch_add(1, std::memory_order_relaxed);
    }
    slot.pending.clearAll();
    // Consume the sync: a restore without a fresh beginSweep in
    // between must not take the delta path again.
    slot.syncSeq = 0;
    // The fingerprint check leaves derived scheduling state out, so a
    // member restoreDeltaFrom forgot would otherwise only diverge
    // epochs later.
    if constexpr (verifyBuild)
        slot.chip->verifyDerivedState();
    return *slot.chip;
}

gpu::EpochRecord &
SnapshotPool::record(std::size_t i)
{
    panicIf(i >= slots_.size(), "snapshot pool slot out of range");
    return slots_[i].record;
}

std::vector<WaveSample> &
SnapshotPool::waves(std::size_t i)
{
    panicIf(i >= slots_.size(), "snapshot pool slot out of range");
    return slots_[i].waves;
}

void
SnapshotPool::ensureSlots(std::size_t n)
{
    if (slots_.size() < n)
        slots_.resize(n);
}

void
SnapshotPool::ensureSlots(std::size_t n, const gpu::GpuChip &base)
{
    ensureSlots(n);
    for (Slot &slot : slots_) {
        if (!slot.chip) {
            slot.chip = std::make_unique<gpu::GpuChip>(base);
            // Pre-warm counts as a full restore at an arbitrary point
            // in the base's history; the next beginSweep + full
            // restore anchors the delta chain properly.
            slot.pending.clearAll();
            slot.canDelta = false;
            slot.syncSeq = 0;
        }
    }
}

void
SnapshotPool::clear()
{
    for (Slot &slot : slots_) {
        slot.record.waves.clear();
        slot.record.cus.clear();
        slot.waves.clear();
        slot.pending.clearAll();
        slot.canDelta = false;
        slot.syncSeq = 0;
    }
    scratch_.merged.clear();
    scratch_.fitFreqs.clear();
    scratch_.fitInstr.clear();
    scratch_.stateFreq.clear();
    scratch_.stateGHz.clear();
    scratch_.sampleWallNs.clear();
    baseUid_ = 0;
    baseSeq_ = 0;
    sweepSeq_ = 0;
}

} // namespace pcstall::oracle
