#include "memory/cache_model.hh"

#include <bit>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pcstall::memory
{

CacheModel::CacheModel(std::uint64_t size_bytes, std::uint32_t line_bytes,
                       std::uint32_t ways)
    : lineBytes(line_bytes), ways(ways)
{
    fatalIf(line_bytes == 0 || !std::has_single_bit(line_bytes),
            "cache line size must be a nonzero power of two");
    fatalIf(ways == 0, "cache associativity must be nonzero");
    fatalIf(size_bytes % (static_cast<std::uint64_t>(line_bytes) * ways)
            != 0,
            "cache size must be a multiple of line size * ways");
    sets = static_cast<std::uint32_t>(
        size_bytes / (static_cast<std::uint64_t>(line_bytes) * ways));
    fatalIf(sets == 0, "cache must have at least one set");
    lineShift = static_cast<std::uint32_t>(std::countr_zero(line_bytes));
    lines.assign(static_cast<std::size_t>(sets) * ways, Line{});
}

std::uint64_t
CacheModel::setIndex(std::uint64_t addr) const
{
    return (addr >> lineShift) % sets;
}

std::uint64_t
CacheModel::tagOf(std::uint64_t addr) const
{
    return (addr >> lineShift) / sets;
}

bool
CacheModel::access(std::uint64_t addr, bool allocate_on_miss)
{
    ++accesses;
    const std::uint64_t set = setIndex(addr);
    const std::uint64_t tag = tagOf(addr);
    Line *base = &lines[set * ways];

    Line *victim = base;
    for (std::uint32_t w = 0; w < ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lastUse = ++useCounter;
            ++hits;
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    if (allocate_on_miss) {
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = ++useCounter;
    }
    return false;
}

bool
CacheModel::probe(std::uint64_t addr) const
{
    const std::uint64_t set = setIndex(addr);
    const std::uint64_t tag = tagOf(addr);
    const Line *base = &lines[set * ways];
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
CacheModel::flush()
{
    for (Line &line : lines)
        line.valid = false;
}

void
CacheModel::fingerprint(std::uint64_t &h) const
{
    auto mix = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    mix(useCounter);
    mix(hits);
    mix(accesses);
    for (const Line &line : lines) {
        mix(line.valid ? 1 : 0);
        if (line.valid) {
            mix(line.tag);
            mix(line.lastUse);
        }
    }
}

} // namespace pcstall::memory
