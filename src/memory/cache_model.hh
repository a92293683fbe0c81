/**
 * @file
 * A set-associative, LRU, value-semantic cache tag store.
 *
 * Only tags and replacement state are modelled (no data), which is all
 * that timing simulation needs. The class is a plain value so that the
 * oracle's snapshot/restore is a struct copy.
 */

#ifndef PCSTALL_MEMORY_CACHE_MODEL_HH
#define PCSTALL_MEMORY_CACHE_MODEL_HH

#include <cstdint>
#include <vector>

namespace pcstall::memory
{

/** Tag-only set-associative cache with true-LRU replacement. */
class CacheModel
{
  public:
    /**
     * @param size_bytes Total capacity; must be a multiple of
     *                   line_bytes * ways.
     * @param line_bytes Line size (power of two).
     * @param ways       Associativity.
     */
    CacheModel(std::uint64_t size_bytes, std::uint32_t line_bytes,
               std::uint32_t ways);

    /**
     * Look up @p addr; on miss optionally allocate (evicting LRU).
     * @return true on hit.
     */
    bool access(std::uint64_t addr, bool allocate_on_miss);

    /** Probe without touching replacement state. */
    bool probe(std::uint64_t addr) const;

    /** Invalidate everything (used between applications in tests). */
    void flush();

    std::uint32_t numSets() const { return sets; }
    std::uint32_t numWays() const { return ways; }
    std::uint32_t lineSize() const { return lineBytes; }

    /** Lifetime hit/access counters (diagnostics and tests). */
    std::uint64_t hitCount() const { return hits; }
    std::uint64_t accessCount() const { return accesses; }

    /** Mix every tag, LRU stamp and counter into the digest @p h
     *  (oracle snapshot-restore verification). */
    void fingerprint(std::uint64_t &h) const;

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::uint64_t setIndex(std::uint64_t addr) const;
    std::uint64_t tagOf(std::uint64_t addr) const;

    std::uint32_t lineBytes;
    std::uint32_t ways;
    std::uint32_t sets;
    std::uint32_t lineShift;
    std::vector<Line> lines;
    std::uint64_t useCounter = 0;
    std::uint64_t hits = 0;
    std::uint64_t accesses = 0;
};

} // namespace pcstall::memory

#endif // PCSTALL_MEMORY_CACHE_MODEL_HH
