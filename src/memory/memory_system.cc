#include "memory/memory_system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pcstall::memory
{

const char *
serviceLevelName(ServiceLevel level)
{
    switch (level) {
      case ServiceLevel::L1: return "L1";
      case ServiceLevel::L2: return "L2";
      case ServiceLevel::Dram: return "DRAM";
    }
    return "?";
}

MemActivity &
MemActivity::operator+=(const MemActivity &other)
{
    l1Hits += other.l1Hits;
    l1Misses += other.l1Misses;
    l2Hits += other.l2Hits;
    l2Misses += other.l2Misses;
    stores += other.stores;
    storesCombined += other.storesCombined;
    return *this;
}

MemorySystem::MemorySystem(const MemConfig &config) : cfg(config)
{
    fatalIf(cfg.numCus == 0, "memory system needs at least one CU");
    fatalIf(cfg.l2Banks == 0, "memory system needs at least one L2 bank");
    fatalIf(cfg.dramChannels == 0, "memory system needs a DRAM channel");
    fatalIf(cfg.l2SizeBytes % cfg.l2Banks != 0,
            "L2 size must divide evenly across banks");

    l1s.reserve(cfg.numCus);
    for (std::uint32_t cu = 0; cu < cfg.numCus; ++cu)
        l1s.emplace_back(cfg.l1SizeBytes, cfg.lineBytes, cfg.l1Ways);

    const std::uint64_t slice_size = cfg.l2SizeBytes / cfg.l2Banks;
    l2Slices.reserve(cfg.l2Banks);
    for (std::uint32_t b = 0; b < cfg.l2Banks; ++b)
        l2Slices.emplace_back(slice_size, cfg.lineBytes, cfg.l2Ways);

    bankFree.assign(cfg.l2Banks, 0);
    channelFree.assign(cfg.dramChannels, 0);
    cuActivity.assign(cfg.numCus, MemActivity{});
    lastStoreLine.assign(cfg.numCus, ~0ULL);
    l2Period = clockPeriod(cfg.l2Freq);
}

std::uint32_t
MemorySystem::bankOf(std::uint64_t addr) const
{
    return static_cast<std::uint32_t>((addr / cfg.lineBytes) % cfg.l2Banks);
}

std::uint32_t
MemorySystem::channelOf(std::uint64_t addr) const
{
    return static_cast<std::uint32_t>(
        (addr / cfg.lineBytes / cfg.l2Banks) % cfg.dramChannels);
}

MemResult
MemorySystem::access(std::uint32_t cu_id, std::uint64_t addr, bool is_store,
                     Tick now, Tick cu_period)
{
    panicIf(cu_id >= cfg.numCus, "memory access from unknown CU");
    // Every access at least bumps an activity counter; the touched
    // caches mark their own sets.
    smallDirty_ = true;
    MemActivity &act = cuActivity[cu_id];
    MemResult result;

    const std::uint64_t line_addr = addr & ~static_cast<std::uint64_t>(
        cfg.lineBytes - 1);

    if (is_store) {
        // Write-through, no-allocate: touch L1 if present, then occupy
        // the L2 bank. The store is architecturally complete (for
        // waitcnt purposes) once the bank accepts it. Back-to-back
        // stores to the same line merge in the L1 write buffer.
        ++act.stores;
        if (cfg.storeCombining && lastStoreLine[cu_id] == line_addr) {
            // Absorbed by the write buffer in a single CU cycle.
            ++act.storesCombined;
            result.completion = now + cu_period;
            result.servicedBy = ServiceLevel::L1;
            return result;
        }
        lastStoreLine[cu_id] = line_addr;
        l1s[cu_id].probe(line_addr);

        const Tick arrive = now + cfg.l1MissOverhead;
        const std::uint32_t bank = bankOf(line_addr);
        const Tick start = std::max(arrive, bankFree[bank]);
        bankFree[bank] = start + cfg.l2ServiceCycles * l2Period;

        const bool l2_hit = l2Slices[bank].access(line_addr, true);
        if (l2_hit) {
            ++act.l2Hits;
        } else {
            ++act.l2Misses;
            // Dirty line eventually writes back; occupy the channel
            // but do not delay store completion.
            const std::uint32_t chan = channelOf(line_addr);
            const Tick dram_start = std::max(bankFree[bank],
                                             channelFree[chan]);
            channelFree[chan] = dram_start + cfg.dramServicePerLine;
        }
        result.completion = bankFree[bank];
        result.servicedBy = l2_hit ? ServiceLevel::L2 : ServiceLevel::Dram;
        return result;
    }

    // Loads: L1 in the CU's own clock domain.
    const bool l1_hit = l1s[cu_id].access(line_addr, true);
    if (l1_hit) {
        ++act.l1Hits;
        result.completion = now + cfg.l1HitCycles * cu_period;
        result.servicedBy = ServiceLevel::L1;
        return result;
    }
    ++act.l1Misses;

    const Tick arrive = now + cfg.l1HitCycles * cu_period +
        cfg.l1MissOverhead;
    const std::uint32_t bank = bankOf(line_addr);
    const Tick start = std::max(arrive, bankFree[bank]);
    bankFree[bank] = start + cfg.l2ServiceCycles * l2Period;

    const bool l2_hit = l2Slices[bank].access(line_addr, true);
    if (l2_hit) {
        ++act.l2Hits;
        result.completion = start + cfg.l2HitCycles * l2Period;
        result.servicedBy = ServiceLevel::L2;
        return result;
    }
    ++act.l2Misses;

    const std::uint32_t chan = channelOf(line_addr);
    const Tick lookup_done = start + cfg.l2HitCycles * l2Period;
    const Tick dram_start = std::max(lookup_done, channelFree[chan]);
    channelFree[chan] = dram_start + cfg.dramServicePerLine;
    result.completion = dram_start + cfg.dramLatency;
    result.servicedBy = ServiceLevel::Dram;
    return result;
}

bool
MemorySystem::staysInCu(std::uint32_t cu_id, std::uint64_t addr,
                        bool is_store) const
{
    const std::uint64_t line_addr = addr & ~static_cast<std::uint64_t>(
        cfg.lineBytes - 1);
    if (is_store)
        return cfg.storeCombining && lastStoreLine[cu_id] == line_addr;
    return l1s[cu_id].probe(line_addr);
}

std::uint64_t
MemorySystem::sharedDigest() const
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (Tick t : bankFree)
        h = hashCombine(h, static_cast<std::uint64_t>(t));
    for (Tick t : channelFree)
        h = hashCombine(h, static_cast<std::uint64_t>(t));
    for (const CacheModel &slice : l2Slices)
        h = hashCombine(h, slice.accessCount());
    return h;
}

void
MemorySystem::resetActivity()
{
    std::fill(cuActivity.begin(), cuActivity.end(), MemActivity{});
    smallDirty_ = true;
}

bool
MemorySystem::takeDirty(MemDirty &out) const
{
    if (out.l1Sets.size() != l1s.size())
        out.l1Sets.resize(l1s.size());
    if (out.l2Sets.size() != l2Slices.size())
        out.l2Sets.resize(l2Slices.size());

    bool touched = smallDirty_;
    out.smallState = smallDirty_;
    smallDirty_ = false;
    for (std::size_t i = 0; i < l1s.size(); ++i)
        touched = l1s[i].takeDirty(out.l1Sets[i]) || touched;
    for (std::size_t i = 0; i < l2Slices.size(); ++i)
        touched = l2Slices[i].takeDirty(out.l2Sets[i]) || touched;
    return touched;
}

bool
MemorySystem::hasPendingDirty() const
{
    if (smallDirty_)
        return true;
    for (const CacheModel &l1 : l1s)
        if (l1.hasPendingDirty())
            return true;
    for (const CacheModel &slice : l2Slices)
        if (slice.hasPendingDirty())
            return true;
    return false;
}

void
MemorySystem::restoreDeltaFrom(const MemorySystem &base,
                               const MemDirty &dirty)
{
    if (dirty.smallState) {
        bankFree = base.bankFree;
        channelFree = base.channelFree;
        cuActivity = base.cuActivity;
        lastStoreLine = base.lastStoreLine;
    }
    for (std::size_t i = 0; i < l1s.size(); ++i)
        l1s[i].restoreSetsFrom(base.l1s[i], dirty.l1Sets[i]);
    for (std::size_t i = 0; i < l2Slices.size(); ++i)
        l2Slices[i].restoreSetsFrom(base.l2Slices[i], dirty.l2Sets[i]);
}

void
MemorySystem::fingerprint(std::uint64_t &h) const
{
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    for (const CacheModel &l1 : l1s)
        l1.fingerprint(h);
    for (const CacheModel &slice : l2Slices)
        slice.fingerprint(h);
    for (Tick t : bankFree)
        mix(static_cast<std::uint64_t>(t));
    for (Tick t : channelFree)
        mix(static_cast<std::uint64_t>(t));
    for (const MemActivity &act : cuActivity) {
        mix(act.l1Hits);
        mix(act.l1Misses);
        mix(act.l2Hits);
        mix(act.l2Misses);
        mix(act.stores);
        mix(act.storesCombined);
    }
    for (std::uint64_t line : lastStoreLine)
        mix(line);
}

} // namespace pcstall::memory
