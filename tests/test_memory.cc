/** @file Unit tests for src/memory: caches, hierarchy, contention. */

#include <gtest/gtest.h>

#include "expect_fatal.hh"

#include "memory/cache_model.hh"
#include "memory/memory_system.hh"

using namespace pcstall;
using namespace pcstall::memory;

TEST(CacheModel, HitAfterFill)
{
    CacheModel c(1024, 64, 4);
    EXPECT_FALSE(c.access(0x1000, true));
    EXPECT_TRUE(c.access(0x1000, true));
    EXPECT_TRUE(c.access(0x1010, true)); // same line
}

TEST(CacheModel, LruEviction)
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    CacheModel c(512, 64, 2);
    // Three lines mapping to the same set (stride = sets * line).
    const std::uint64_t stride = 4 * 64;
    c.access(0 * stride, true);
    c.access(1 * stride, true);
    c.access(0 * stride, true);      // touch 0: 1 becomes LRU
    c.access(2 * stride, true);      // evicts 1
    EXPECT_TRUE(c.probe(0 * stride));
    EXPECT_FALSE(c.probe(1 * stride));
    EXPECT_TRUE(c.probe(2 * stride));
}

TEST(CacheModel, NoAllocateLeavesMiss)
{
    CacheModel c(1024, 64, 4);
    EXPECT_FALSE(c.access(0x2000, false));
    EXPECT_FALSE(c.probe(0x2000));
}

TEST(CacheModel, FlushInvalidates)
{
    CacheModel c(1024, 64, 4);
    c.access(0x40, true);
    c.flush();
    EXPECT_FALSE(c.probe(0x40));
}

TEST(CacheModel, CountersTrack)
{
    CacheModel c(1024, 64, 4);
    c.access(0, true);
    c.access(0, true);
    EXPECT_EQ(c.accessCount(), 2u);
    EXPECT_EQ(c.hitCount(), 1u);
}

TEST(CacheModel, Geometry)
{
    CacheModel c(16 * 1024, 64, 4);
    EXPECT_EQ(c.numSets(), 64u);
    EXPECT_EQ(c.numWays(), 4u);
    EXPECT_EQ(c.lineSize(), 64u);
}

namespace
{

MemConfig
smallConfig()
{
    MemConfig cfg;
    cfg.numCus = 2;
    cfg.l2Banks = 4;
    cfg.l2SizeBytes = 256 * 1024;
    cfg.dramChannels = 2;
    return cfg;
}

} // namespace

TEST(MemorySystem, L1HitIsFastAndScalesWithCuClock)
{
    MemorySystem mem(smallConfig());
    const Tick fast = clockPeriod(2'000 * freqMHz);
    const Tick slow = clockPeriod(1'000 * freqMHz);

    mem.access(0, 0x100, false, 0, fast); // fill
    const MemResult hit_fast = mem.access(0, 0x100, false, 1000, fast);
    EXPECT_EQ(hit_fast.servicedBy, ServiceLevel::L1);
    EXPECT_EQ(hit_fast.completion - 1000,
              smallConfig().l1HitCycles * fast);

    MemorySystem mem2(smallConfig());
    mem2.access(0, 0x100, false, 0, slow);
    const MemResult hit_slow = mem2.access(0, 0x100, false, 1000, slow);
    EXPECT_GT(hit_slow.completion, hit_fast.completion);
}

TEST(MemorySystem, MissGoesToL2ThenDram)
{
    MemorySystem mem(smallConfig());
    const Tick period = clockPeriod(1'700 * freqMHz);
    const MemResult first = mem.access(0, 0x5000, false, 0, period);
    EXPECT_EQ(first.servicedBy, ServiceLevel::Dram);

    // Second access from the *other* CU misses its own L1 but hits L2.
    const MemResult second =
        mem.access(1, 0x5000, false, first.completion, period);
    EXPECT_EQ(second.servicedBy, ServiceLevel::L2);
    EXPECT_LT(second.completion - first.completion,
              first.completion - 0);
}

TEST(MemorySystem, BankContentionQueues)
{
    MemorySystem mem(smallConfig());
    const Tick period = clockPeriod(1'700 * freqMHz);
    // Two simultaneous misses to the same bank (same line address
    // spacing puts them in the same bank when line/banks align).
    const std::uint64_t addr1 = 0x10000;
    const std::uint64_t addr2 = addr1 + 64 * smallConfig().l2Banks;
    const MemResult r1 = mem.access(0, addr1, false, 0, period);
    const MemResult r2 = mem.access(1, addr2, false, 0, period);
    // The second request queues behind the first at the bank.
    EXPECT_GT(r2.completion, r1.completion);
}

TEST(MemorySystem, StoresCompleteAtL2Acceptance)
{
    MemorySystem mem(smallConfig());
    const Tick period = clockPeriod(1'700 * freqMHz);
    const MemResult load = mem.access(0, 0x9000, false, 0, period);
    MemorySystem mem2(smallConfig());
    const MemResult store = mem2.access(0, 0x9000, true, 0, period);
    // Store completion does not wait for DRAM latency.
    EXPECT_LT(store.completion, load.completion);
    EXPECT_EQ(mem2.activity(0).stores, 1u);
}

TEST(MemorySystem, ActivityCountersAndReset)
{
    MemorySystem mem(smallConfig());
    const Tick period = clockPeriod(1'700 * freqMHz);
    mem.access(0, 0x100, false, 0, period);  // L1 miss -> DRAM
    mem.access(0, 0x100, false, 5000000, period); // L1 hit
    EXPECT_EQ(mem.activity(0).l1Misses, 1u);
    EXPECT_EQ(mem.activity(0).l1Hits, 1u);
    mem.resetActivity();
    EXPECT_EQ(mem.activity(0).l1Hits, 0u);
    EXPECT_EQ(mem.activity(0).l1Misses, 0u);
}

TEST(MemorySystem, CopyIsIndependent)
{
    MemorySystem a(smallConfig());
    const Tick period = clockPeriod(1'700 * freqMHz);
    a.access(0, 0x100, false, 0, period);
    MemorySystem b = a;
    // A hit in the copy (state was copied) ...
    const MemResult hit = b.access(0, 0x100, false, 1000, period);
    EXPECT_EQ(hit.servicedBy, ServiceLevel::L1);
    // ... and divergent updates do not leak back.
    b.access(0, 0xFF000, false, 1000, period);
    EXPECT_EQ(a.activity(0).l1Misses, 1u);
    EXPECT_EQ(b.activity(0).l1Misses, 2u);
}

TEST(MemorySystem, HigherFrequencyRaisesContention)
{
    // Issue a burst of misses back to back at two CU clock rates; the
    // completion spread at the bank should reflect queueing, and the
    // faster clock should finish the burst sooner overall but see
    // relatively more queueing (less than proportional speedup).
    auto run_burst = [](Freq freq) {
        MemorySystem mem(smallConfig());
        const Tick period = clockPeriod(freq);
        Tick t = 0;
        Tick last = 0;
        for (int i = 0; i < 64; ++i) {
            const MemResult r = mem.access(
                0, 0x100000 + static_cast<std::uint64_t>(i) * 64, false,
                t, period);
            last = std::max(last, r.completion);
            t += period; // one issue per CU cycle
        }
        return last;
    };
    const Tick fast = run_burst(2'200 * freqMHz);
    const Tick slow = run_burst(1'300 * freqMHz);
    EXPECT_LE(fast, slow);
    // Far from linear scaling: the memory side is fixed-clock.
    EXPECT_GT(static_cast<double>(fast) / static_cast<double>(slow),
              1300.0 / 2200.0);
}

TEST(MemActivity, Accumulates)
{
    MemActivity a;
    a.l1Hits = 1;
    MemActivity b;
    b.l1Hits = 2;
    b.stores = 3;
    a += b;
    EXPECT_EQ(a.l1Hits, 3u);
    EXPECT_EQ(a.stores, 3u);
}

TEST(ServiceLevelNames, AreStable)
{
    EXPECT_STREQ(serviceLevelName(ServiceLevel::L1), "L1");
    EXPECT_STREQ(serviceLevelName(ServiceLevel::L2), "L2");
    EXPECT_STREQ(serviceLevelName(ServiceLevel::Dram), "DRAM");
}

TEST(MemorySystem, StoreWriteCombiningMergesSameLine)
{
    MemorySystem mem(smallConfig());
    const Tick period = clockPeriod(1'700 * freqMHz);
    mem.access(0, 0x4000, true, 0, period);
    // Same line: absorbed by the write buffer in one CU cycle.
    const MemResult second = mem.access(0, 0x4010, true, 1000, period);
    EXPECT_EQ(second.servicedBy, ServiceLevel::L1);
    EXPECT_EQ(second.completion - 1000, period);
    EXPECT_EQ(mem.activity(0).storesCombined, 1u);
    EXPECT_EQ(mem.activity(0).stores, 2u);
}

TEST(MemorySystem, StoreCombiningBreaksOnNewLine)
{
    MemorySystem mem(smallConfig());
    const Tick period = clockPeriod(1'700 * freqMHz);
    mem.access(0, 0x4000, true, 0, period);
    const MemResult other = mem.access(0, 0x8000, true, 1000, period);
    EXPECT_NE(other.servicedBy, ServiceLevel::L1);
    EXPECT_EQ(mem.activity(0).storesCombined, 0u);
}

TEST(MemorySystem, StoreCombiningIsPerCu)
{
    MemorySystem mem(smallConfig());
    const Tick period = clockPeriod(1'700 * freqMHz);
    mem.access(0, 0x4000, true, 0, period);
    // A different CU writing the same line does not combine.
    const MemResult other = mem.access(1, 0x4010, true, 1000, period);
    EXPECT_NE(other.servicedBy, ServiceLevel::L1);
}

TEST(MemorySystem, StoreCombiningCanBeDisabled)
{
    MemConfig cfg = smallConfig();
    cfg.storeCombining = false;
    MemorySystem mem(cfg);
    const Tick period = clockPeriod(1'700 * freqMHz);
    mem.access(0, 0x4000, true, 0, period);
    const MemResult second = mem.access(0, 0x4010, true, 1000, period);
    EXPECT_NE(second.servicedBy, ServiceLevel::L1);
    EXPECT_EQ(mem.activity(0).storesCombined, 0u);
}

using MemoryDeath = ::testing::Test;

TEST(MemoryDeath, RejectsBadGeometry)
{
    EXPECT_FATAL(CacheModel(1000, 48, 4), "power of two");
    EXPECT_FATAL(CacheModel(1000, 64, 4), "multiple");
    MemConfig cfg = smallConfig();
    cfg.l2SizeBytes = 100 * 1024; // not divisible by 4 banks evenly?
    cfg.l2Banks = 3;
    EXPECT_FATAL(MemorySystem{cfg}, "divide evenly");
}

TEST(MemoryDeath, RejectsNonPowerOfTwoSetCount)
{
    // 3 sets of 4 ways of 64 B: a valid multiple, but not indexable by
    // a mask.
    EXPECT_FATAL(CacheModel(3 * 4 * 64, 64, 4),
                 "768 B / (64 B lines x 4 ways) gives 3 sets");
}

TEST(MemoryDeath, RejectsZeroResources)
{
    MemConfig cfg = smallConfig();
    cfg.dramChannels = 0;
    EXPECT_FATAL(MemorySystem{cfg}, "DRAM channel");
}
