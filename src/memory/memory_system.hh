/**
 * @file
 * The GPU memory hierarchy: per-CU L1 caches (clocked in the CU's V/f
 * domain), a banked shared L2 at a fixed clock (1.6 GHz in the paper),
 * and DRAM channels with bandwidth queues.
 *
 * Completion times are computed at issue. Because the GPU event loop
 * processes compute units in global time order, requests arrive at the
 * shared levels in (approximately) true temporal order, so per-bank and
 * per-channel "next free" times produce frequency-sensitive contention:
 * raising one domain's clock raises its request rate and queues behind
 * it grow — this is the second-order effect behind the paper's FwdSoft
 * observation (Section 6.2).
 *
 * The whole object is value-semantic for oracle snapshot/restore.
 */

#ifndef PCSTALL_MEMORY_MEMORY_SYSTEM_HH
#define PCSTALL_MEMORY_MEMORY_SYSTEM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "memory/cache_model.hh"

namespace pcstall::memory
{

/** Configuration of the full hierarchy. */
struct MemConfig
{
    std::uint32_t numCus = 64;

    /** Line size used at every level. */
    std::uint32_t lineBytes = 64;

    // --- L1 (per CU, in the CU's clock domain) ---
    std::uint64_t l1SizeBytes = 16 * 1024;
    std::uint32_t l1Ways = 4;
    /** Hit latency in CU cycles (scales with the domain frequency). */
    Cycles l1HitCycles = 28;
    /** Fixed cost to detect a miss and traverse to the L2 crossbar. */
    Tick l1MissOverhead = 2 * tickNs;

    // --- L2 (shared, banked, fixed clock) ---
    std::uint32_t l2Banks = 16;
    std::uint64_t l2SizeBytes = 4ULL * 1024 * 1024;
    std::uint32_t l2Ways = 16;
    Freq l2Freq = 1'600 * freqMHz;
    /** Bank occupancy per request, in L2 cycles. */
    Cycles l2ServiceCycles = 2;
    /** Hit latency (lookup + return), in L2 cycles. */
    Cycles l2HitCycles = 32;

    // --- DRAM ---
    std::uint32_t dramChannels = 8;
    /** Row access latency. */
    Tick dramLatency = 120 * tickNs;
    /** Channel occupancy per line transfer (64 B per pseudo-channel
     *  pair at HBM2 rates, ~128 GB/s per channel). */
    Tick dramServicePerLine = tickNs / 2;

    /** Maximum in-flight vector memory requests per CU (MSHR bound). */
    std::uint32_t maxOutstandingPerCu = 64;

    /**
     * Model per-CU store write-combining: consecutive stores to the
     * same line merge in the L1 write buffer and only the first one
     * occupies an L2 bank (GCN-style coalescing write-back path).
     */
    bool storeCombining = true;
};

/** Which level serviced a request. */
enum class ServiceLevel : std::uint8_t { L1, L2, Dram };

/** Name of a ServiceLevel. */
const char *serviceLevelName(ServiceLevel level);

/** Outcome of a memory access. */
struct MemResult
{
    /** Global tick at which the requesting wavefront's op completes. */
    Tick completion = 0;
    ServiceLevel servicedBy = ServiceLevel::L1;
};

/** Per-CU activity counters for the power model and diagnostics. */
struct MemActivity
{
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t stores = 0;
    /** Stores absorbed by the L1 write-combining buffer. */
    std::uint64_t storesCombined = 0;

    MemActivity &operator+=(const MemActivity &other);
};

/**
 * The full hierarchy. Copyable: a copy is an independent, identical
 * memory system (caches, queues, counters).
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemConfig &config);

    /**
     * Issue an access from CU @p cu_id at global time @p now.
     *
     * @param cu_period Current clock period of the CU's domain (ticks);
     *                  L1 hit latency is counted in these cycles.
     * @param is_store  Stores are write-through/no-allocate and are
     *                  considered complete when the L2 bank accepts
     *                  them (s_waitcnt vscnt semantics).
     */
    MemResult access(std::uint32_t cu_id, std::uint64_t addr, bool is_store,
                     Tick now, Tick cu_period);

    /**
     * True when access(@p cu_id, @p addr, @p is_store, ...) would touch
     * only CU @p cu_id's own state (its L1, activity counters and
     * write-combining line): a load that hits the L1, or a store the
     * write buffer absorbs. Every other access reaches an L2 bank.
     */
    bool staysInCu(std::uint32_t cu_id, std::uint64_t addr,
                   bool is_store) const;

    /**
     * Digest of the state every CU's accesses share: L2 bank and DRAM
     * channel queue heads and each L2 slice's access count. A step
     * that leaves it unchanged touched no shared level (verify
     * builds check this around every CU-private step).
     */
    std::uint64_t sharedDigest() const;

    const MemConfig &config() const { return cfg; }

    /** Activity accumulated for a CU since the last reset. */
    const MemActivity &activity(std::uint32_t cu_id) const
    {
        return cuActivity[cu_id];
    }

    /** Reset all per-CU activity counters (per-epoch harvesting). */
    void resetActivity();

    /** Direct access to a CU's L1 (tests). */
    const CacheModel &l1(std::uint32_t cu_id) const { return l1s[cu_id]; }

    /** Mix the hierarchy's complete state (cache tags, queue heads,
     *  activity counters) into the digest @p h. */
    void fingerprint(std::uint64_t &h) const;

  private:
    std::uint32_t bankOf(std::uint64_t addr) const;
    std::uint32_t channelOf(std::uint64_t addr) const;

    MemConfig cfg;
    std::vector<CacheModel> l1s;
    std::vector<CacheModel> l2Slices;
    /** Earliest tick each L2 bank can accept the next request. */
    std::vector<Tick> bankFree;
    /** Earliest tick each DRAM channel can start the next transfer. */
    std::vector<Tick> channelFree;
    std::vector<MemActivity> cuActivity;
    /** Line address of each CU's most recent store (write combining). */
    std::vector<std::uint64_t> lastStoreLine;
    Tick l2Period;
};

} // namespace pcstall::memory

#endif // PCSTALL_MEMORY_MEMORY_SYSTEM_HH
