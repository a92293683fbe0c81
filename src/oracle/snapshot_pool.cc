#include "oracle/snapshot_pool.hh"

#include "common/logging.hh"

namespace pcstall::oracle
{

gpu::GpuChip &
SnapshotPool::restore(std::size_t i, const gpu::GpuChip &base)
{
    panicIf(i >= slots_.size(), "snapshot pool lane out of range");
    Slot &slot = slots_[i];
    if (!slot.chip) {
        slot.chip = std::make_unique<gpu::GpuChip>(base);
    } else {
        // Copy assignment: every vector inside the chip assigns into
        // its existing allocation, so steady-state restores are pure
        // memcpy-like work with no heap traffic.
        *slot.chip = base;
    }
    // The fingerprint check leaves derived scheduling state out, so a
    // copy that dropped part of it would otherwise only diverge
    // epochs later.
    if constexpr (verifyBuild)
        slot.chip->verifyDerivedState();
    return *slot.chip;
}

gpu::EpochRecord &
SnapshotPool::record(std::size_t i)
{
    panicIf(i >= slots_.size(), "snapshot pool lane out of range");
    return slots_[i].record;
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
        if (!slot.chip)
            slot.chip = std::make_unique<gpu::GpuChip>(base);
    }
}

} // namespace pcstall::oracle
