/**
 * @file
 * Regression tests for the hot-path performance work
 * (docs/performance.md): a pooled restore must reproduce a fresh deep
 * copy of the base chip at every epoch, the pooled oracle must match
 * a sweep-local pool's deep copies (sweep by sweep and at every
 * boundary of whole runs, including a fault-injected run), the
 * in-cell parallel sweep must match the serial one (sweep by sweep
 * and end to end) and keep one scratch chip per sampling lane, the
 * sweep must leave its input chip untouched and reuse pool storage
 * across epochs, and a steady-state sweep must not allocate per
 * sample.
 *
 * The binary overrides global operator new/delete with a counting
 * shim so the allocation guard can measure the sweep hot path
 * directly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "dvfs/domain_map.hh"
#include "dvfs/hierarchical.hh"
#include "gpu/gpu_chip.hh"
#include "harness.hh"
#include "oracle/fork_pre_execute.hh"
#include "oracle/snapshot_pool.hh"
#include "power/vf_table.hh"
#include "sim/experiment.hh"
#include "sim/parallel_executor.hh"

using namespace pcstall;

// --- counting allocator shim (whole binary) -------------------------

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
}

// GCC pairs the replaced operator delete with the *default* operator
// new at some inlined call sites and warns about free(); the shim's
// operator new really does malloc, so the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

// --- fixtures -------------------------------------------------------

namespace
{

bench::BenchOptions
smallOpts()
{
    bench::BenchOptions opts;
    opts.cus = 4;
    opts.scale = 0.125;
    opts.collectTrace = true;
    return opts;
}

/** The workloads the identity matrix runs over. */
const std::vector<std::string> kWorkloads = {"comd", "lulesh",
                                             "minife"};

/** The controllers of the end-to-end identity matrix: ACCPC and
 *  ORACLE sweep the oracle every epoch, the others never do. */
const std::vector<std::string> kControllers = {
    "STALL", "PCSTALL", "PCSTALL+CAP", "ACCPC", "ORACLE"};

/** Exact field-by-field RunResult comparison (no tolerances). */
void
expectIdenticalResults(const sim::RunResult &a, const sim::RunResult &b,
                       const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.predictionAccuracy, b.predictionAccuracy);
    EXPECT_EQ(a.transitions, b.transitions);
    EXPECT_EQ(a.transitionEnergy, b.transitionEnergy);
    EXPECT_EQ(a.freqTimeShare, b.freqTimeShare);
    EXPECT_EQ(a.finalTemperature, b.finalTemperature);
    EXPECT_EQ(a.faults.tableBitFlips, b.faults.tableBitFlips);
    EXPECT_EQ(a.faults.tableScrubs, b.faults.tableScrubs);
    EXPECT_EQ(a.faults.transitionFailures, b.faults.transitionFailures);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].start, b.trace[i].start);
        EXPECT_EQ(a.trace[i].domainState, b.trace[i].domainState);
        EXPECT_EQ(a.trace[i].domainCommitted,
                  b.trace[i].domainCommitted);
    }
}

/** The run config of one identity-matrix cell. */
sim::RunConfig
cellConfig(unsigned oracle_threads, const faults::FaultConfig *fault_cfg,
           bool ecc_tables)
{
    sim::RunConfig cfg = smallOpts().runConfig();
    cfg.oracleThreads = oracle_threads;
    if (fault_cfg != nullptr)
        cfg.faults = *fault_cfg;
    cfg.eccProtectTables = ecc_tables;
    return cfg;
}

std::unique_ptr<dvfs::DvfsController>
cellController(const std::string &controller, const sim::RunConfig &cfg)
{
    // "PCSTALL+CAP" is not a registry name: it is the hierarchical
    // power manager wrapped around PCSTALL (bench/extensions.cc).
    if (controller == "PCSTALL+CAP") {
        dvfs::HierarchicalConfig hcfg;
        hcfg.powerCap = 40.0;
        hcfg.reviewEpochs = 10;
        return std::make_unique<dvfs::HierarchicalPowerManager>(
            bench::makeController("PCSTALL", cfg), hcfg);
    }
    return bench::makeController(controller, cfg);
}

sim::RunResult
runCell(const std::string &workload, const std::string &controller,
        unsigned oracle_threads,
        const faults::FaultConfig *fault_cfg = nullptr,
        bool ecc_tables = false)
{
    const auto app = bench::makeApp(workload, smallOpts());
    EXPECT_TRUE(app);
    const sim::RunConfig cfg =
        cellConfig(oracle_threads, fault_cfg, ecc_tables);
    sim::ExperimentDriver driver(cfg);
    const auto ctrl = cellController(controller, cfg);
    return driver.run(app, *ctrl);
}

/** Exact AccurateEstimates comparison. */
void
expectIdenticalEstimates(const dvfs::AccurateEstimates &a,
                         const dvfs::AccurateEstimates &b)
{
    EXPECT_EQ(a.domainInstr, b.domainInstr);
    ASSERT_EQ(a.waves.size(), b.waves.size());
    for (std::size_t i = 0; i < a.waves.size(); ++i) {
        EXPECT_EQ(a.waves[i].cu, b.waves[i].cu);
        EXPECT_EQ(a.waves[i].slot, b.waves[i].slot);
        EXPECT_EQ(a.waves[i].startPcAddr, b.waves[i].startPcAddr);
        EXPECT_EQ(a.waves[i].sensitivity, b.waves[i].sensitivity);
        EXPECT_EQ(a.waves[i].level, b.waves[i].level);
        EXPECT_EQ(a.waves[i].ageRank, b.waves[i].ageRank);
    }
}

/** A chip two epochs into @p workload (live waves at the boundary). */
std::unique_ptr<gpu::GpuChip>
warmChip(const std::string &workload, const bench::BenchOptions &opts)
{
    const auto app = bench::makeApp(workload, opts);
    EXPECT_TRUE(app);
    gpu::GpuConfig gcfg = opts.runConfig().gpu;
    auto chip = std::make_unique<gpu::GpuChip>(gcfg, app);
    gpu::EpochRecord scratch;
    for (int e = 0; e < 2; ++e) {
        chip->runUntil((e + 1) * opts.epochLen);
        chip->harvestEpoch(e * opts.epochLen, scratch);
    }
    return chip;
}

/**
 * The deep-copy reference for the pooled oracle of an
 * ExperimentDriver run. It steps a chip of its own in lockstep with
 * the run (same config, same applied V/f states) and, at every
 * boundary where the run swept, sweeps its chip again without a
 * caller pool, so that every sample starts from a first-use deep
 * copy, and demands the estimates the run's reused pool produced.
 */
class DeepCopyOracle : public sim::EpochObserver
{
  public:
    DeepCopyOracle(const sim::RunConfig &cfg,
                   std::shared_ptr<const isa::Application> app,
                   bool wave_level)
        : epochLen(cfg.epochLen), chip(chipConfig(cfg), std::move(app)),
          domains(cfg.gpu.numCus, cfg.cusPerDomain),
          table(power::VfTable::paperTable()),
          trans(cfg.transitionLatency >= 0
                    ? cfg.transitionLatency
                    : gpu::transitionLatencyFor(cfg.epochLen))
    {
        // The run adds its injector's extra switch latency, which the
        // lockstep chip cannot see.
        EXPECT_FALSE(cfg.faults.dvfs.enabled);
        options.shuffle = true;
        options.waveLevel = wave_level;
    }

    void
    onEpoch(const sim::EpochCapture &epoch) override
    {
        chip.runUntil(epoch.end);
        chip.harvestEpoch(epoch.start, record);
        ASSERT_EQ(record.cus.size(), epoch.record.cus.size());
        for (std::size_t cu = 0; cu < record.cus.size(); ++cu)
            ASSERT_EQ(record.cus[cu].committed,
                      epoch.record.cus[cu].committed);

        if (epoch.sweep != nullptr) {
            SCOPED_TRACE("sweep " + std::to_string(sweeps));
            expectIdenticalEstimates(
                *epoch.sweep,
                oracle::forkPreExecuteSweep(chip, domains, table,
                                            epochLen, options));
            ++sweeps;
        }
        if (epoch.done)
            return;
        for (std::uint32_t d = 0; d < domains.numDomains(); ++d) {
            const Freq freq = table.state(epoch.appliedStates[d]).freq;
            const std::uint32_t first = domains.firstCu(d);
            for (std::uint32_t cu = first;
                 cu < first + domains.cusPerDomain(); ++cu) {
                chip.setCuFrequency(cu, freq, trans);
            }
        }
    }

    /** Sweeps checked so far. */
    std::size_t sweeps = 0;

  private:
    static gpu::GpuConfig
    chipConfig(const sim::RunConfig &cfg)
    {
        gpu::GpuConfig gcfg = cfg.gpu;
        gcfg.defaultFreq = cfg.nominalFreq;
        return gcfg;
    }

    Tick epochLen;
    gpu::GpuChip chip;
    dvfs::DomainMap domains;
    power::VfTable table;
    Tick trans;
    oracle::SweepOptions options;
    gpu::EpochRecord record;
};

/**
 * Run one serial-oracle cell with the deep-copy reference attached;
 * @p sweeps receives the number of sweeps it checked.
 */
sim::RunResult
runAgainstDeepCopies(const std::string &workload,
                     const std::string &controller, std::size_t &sweeps,
                     const faults::FaultConfig *fault_cfg = nullptr,
                     bool ecc_tables = false)
{
    const auto app = bench::makeApp(workload, smallOpts());
    EXPECT_TRUE(app);
    const sim::RunConfig cfg = cellConfig(1, fault_cfg, ecc_tables);
    const auto ctrl = cellController(controller, cfg);
    DeepCopyOracle reference(cfg, app, ctrl->needsWaveLevel());
    sim::ExperimentDriver driver(cfg);
    sim::RunResult result = driver.run(app, *ctrl, &reference);
    sweeps = reference.sweeps;
    return result;
}

} // namespace

// --- pooled restore vs fresh deep copy, every epoch ----------------

/**
 * Drive a base chip epoch by epoch; at every boundary restore each
 * V/f sample slot from one pool reused across epochs and, next to it,
 * take a fresh deep copy of the base. Pin per-CU frequencies to a
 * perturbed pattern, pre-execute the upcoming epoch on both chips,
 * and demand fingerprint equality before and after.
 */
TEST(PerfPath, PooledRestoreMatchesFreshCopyEveryEpoch)
{
    const power::VfTable table = power::VfTable::paperTable();
    const std::size_t num_states = table.numStates();

    for (const std::string &workload : kWorkloads) {
        SCOPED_TRACE(workload);
        const bench::BenchOptions opts = smallOpts();
        const auto app = bench::makeApp(workload, opts);
        ASSERT_TRUE(app);
        gpu::GpuConfig gcfg = opts.runConfig().gpu;
        gpu::GpuChip chip(gcfg, app);
        oracle::SnapshotPool pool;

        gpu::EpochRecord scratch, pool_rec, copy_rec;
        Tick t = 0;
        for (int e = 0; e < 4; ++e) {
            SCOPED_TRACE("epoch " + std::to_string(e));
            chip.runUntil(t + opts.epochLen);
            chip.harvestEpoch(t, scratch);
            t += opts.epochLen;

            const std::uint64_t base_fp = chip.stateFingerprint();
            pool.ensureSlots(num_states, chip);
            for (std::size_t k = 0; k < num_states; ++k) {
                SCOPED_TRACE("state " + std::to_string(k));
                gpu::GpuChip &p = pool.restore(k, chip);
                gpu::GpuChip c = chip;
                ASSERT_EQ(p.stateFingerprint(), base_fp);
                ASSERT_EQ(c.stateFingerprint(), base_fp);

                // Perturb per-CU frequencies (shuffled per CU, like
                // the sweep's per-domain shuffle) and pre-execute the
                // upcoming epoch on each chip independently.
                for (std::uint32_t cu = 0; cu < gcfg.numCus; ++cu) {
                    const Freq freq =
                        table.state((k + cu) % num_states).freq;
                    p.setCuFrequency(cu, freq, 0);
                    c.setCuFrequency(cu, freq, 0);
                }
                p.runUntil(t + opts.epochLen);
                p.harvestEpoch(t, pool_rec);
                c.runUntil(t + opts.epochLen);
                c.harvestEpoch(t, copy_rec);

                // ... and still agree after diverging from the base.
                ASSERT_EQ(p.stateFingerprint(), c.stateFingerprint());
                ASSERT_EQ(pool_rec.cus.size(), copy_rec.cus.size());
                for (std::size_t cu = 0; cu < copy_rec.cus.size();
                     ++cu) {
                    EXPECT_EQ(pool_rec.cus[cu].committed,
                              copy_rec.cus[cu].committed);
                }
            }
            // The restores never touch the base chip.
            ASSERT_EQ(chip.stateFingerprint(), base_fp);
        }
    }
}

// --- end-to-end identity: pooled oracle vs per-sample deep copies ---

/**
 * Every sweep of a pooled run must equal the sweep taken through
 * per-sample deep copies of the same chip. ACCPC and ORACLE sweep at
 * every boundary but the last.
 */
TEST(PerfPath, PooledRunsAreByteIdenticalAcrossWorkloadsAndControllers)
{
    for (const std::string &workload : kWorkloads) {
        for (const std::string &controller :
             {std::string("ACCPC"), std::string("ORACLE")}) {
            SCOPED_TRACE(workload + "/" + controller);
            std::size_t sweeps = 0;
            const auto result =
                runAgainstDeepCopies(workload, controller, sweeps);
            EXPECT_TRUE(result.completed);
            EXPECT_EQ(sweeps + 1, result.epochs);
        }
    }
}

// --- end-to-end identity: serial vs in-cell parallel oracle ---------

/**
 * The oracle thread count must be invisible in every observable run
 * output across the workload x controller grid.
 */
TEST(PerfPath, OracleThreadCountDoesNotChangeResults)
{
    for (const std::string &workload : kWorkloads) {
        for (const std::string &controller : kControllers) {
            const sim::RunResult serial = runCell(workload, controller, 1);
            // 3 threads split the 10 samples into uneven lanes.
            for (const unsigned threads : {3u, 4u}) {
                expectIdenticalResults(
                    serial, runCell(workload, controller, threads),
                    workload + "/" + controller + " at " +
                        std::to_string(threads) + " oracle threads");
            }
        }
    }
}

// --- SnapshotDelta: how the oracle forks is invisible ---------------
//
// The suite is named after the dirty-region delta restore these cases
// once compared with full restores and deep copies; they now hold the
// one pooled path to the per-sample deep-copy reference.

/**
 * How the oracle forks its samples must be invisible in every
 * observable run output across the workload x controller grid: each
 * sweep of the run must match the deep-copy reference, and the run
 * with the reference attached must match a plain run field for field.
 * Controllers that never invoke the oracle take no sweep; ORACLE
 * exercises the pool every epoch.
 */
TEST(SnapshotDelta, OracleModeIsInvisibleAcrossWorkloadsAndControllers)
{
    for (const std::string &workload : kWorkloads) {
        for (const char *name :
             {"STALL", "PCSTALL", "PCSTALL+CAP", "ORACLE"}) {
            const std::string controller = name;
            const std::string cell = workload + "/" + controller;
            SCOPED_TRACE(cell);
            std::size_t sweeps = 0;
            const auto checked =
                runAgainstDeepCopies(workload, controller, sweeps);
            const std::size_t expected_sweeps =
                controller == "ORACLE" ? checked.epochs - 1 : 0;
            EXPECT_EQ(sweeps, expected_sweeps);
            expectIdenticalResults(checked,
                                   runCell(workload, controller, 1),
                                   cell);
        }
    }
}

/**
 * Parity-scrubbed (ECC) predictor tables under storage fault
 * injection: bit upsets land in the PC table, lookups scrub the
 * corrupted entries, and how the oracle forks still must not leak
 * into any observable - the injector's random streams are driven by
 * the epoch sequence, not by how the oracle restores its scratch
 * chips. ACCPC both trains its tables from pooled oracle sweeps and
 * takes the storage upsets, so this run crosses the two subsystems:
 * every sweep must match the deep-copy reference, and the run must
 * not change at 4 oracle threads.
 */
TEST(SnapshotDelta, EccScrubbedFaultRunsAreModeInvariant)
{
    faults::FaultConfig faults;
    faults.storage.enabled = true;
    faults.storage.upsetsPerEpoch = 64.0;

    std::size_t sweeps = 0;
    const auto serial =
        runAgainstDeepCopies("comd", "ACCPC", sweeps, &faults, true);
    const auto threaded = runCell("comd", "ACCPC", 4, &faults, true);

    // The fault campaign really ran: bits flipped, and parity caught
    // at least one corrupted entry before it could mispredict.
    EXPECT_GT(serial.faults.tableBitFlips, 0u);
    EXPECT_GT(serial.faults.tableScrubs, 0u);
    EXPECT_EQ(sweeps + 1, serial.epochs);

    expectIdenticalResults(serial, threaded, "ecc/comd/ACCPC");
}

/**
 * A caller's pool gets one scratch chip per sampling lane: sweeps on
 * T threads leave exactly min(T, S) chips, and their estimates equal
 * the serial sweep's. 3 threads split the 10 samples into lanes of 4,
 * 3 and 3.
 */
TEST(PerfPath, ParallelSweepMatchesSerialSweep)
{
    const bench::BenchOptions opts = smallOpts();
    const auto chip = warmChip("lulesh", opts);
    const dvfs::DomainMap domains(opts.cus, opts.cusPerDomain);
    const power::VfTable table = power::VfTable::paperTable();

    oracle::SnapshotPool serial_pool;
    oracle::SweepOptions serial_opts;
    serial_opts.pool = &serial_pool;
    const auto serial = oracle::forkPreExecuteSweep(
        *chip, domains, table, opts.epochLen, serial_opts);
    EXPECT_EQ(serial_pool.slotCount(), 1u);

    for (const unsigned threads : {2u, 3u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        oracle::SnapshotPool mt_pool;
        sim::ParallelExecutor exec(threads);
        oracle::SweepOptions mt_opts;
        mt_opts.pool = &mt_pool;
        mt_opts.executor = &exec;
        for (int sweep = 0; sweep < 2; ++sweep) {
            expectIdenticalEstimates(
                serial, oracle::forkPreExecuteSweep(
                            *chip, domains, table, opts.epochLen,
                            mt_opts));
            EXPECT_EQ(mt_pool.slotCount(),
                      std::min<std::size_t>(threads, table.numStates()));
        }
    }
}

// --- pool reuse across epochs ---------------------------------------

TEST(PerfPath, PoolIsReusedAcrossEpochsAndStaysIdenticalToCopies)
{
    const bench::BenchOptions opts = smallOpts();
    const auto app = bench::makeApp("comd", opts);
    ASSERT_TRUE(app);
    gpu::GpuConfig gcfg = opts.runConfig().gpu;
    gpu::GpuChip chip(gcfg, app);
    const dvfs::DomainMap domains(opts.cus, opts.cusPerDomain);
    const power::VfTable table = power::VfTable::paperTable();

    oracle::SnapshotPool pool;
    oracle::SweepOptions pooled;
    pooled.pool = &pool;

    gpu::EpochRecord scratch;
    Tick t = 0;
    for (int epoch = 0; epoch < 4; ++epoch) {
        chip.runUntil(t + opts.epochLen);
        chip.harvestEpoch(t, scratch);
        t += opts.epochLen;

        const auto from_pool = oracle::forkPreExecuteSweep(
            chip, domains, table, opts.epochLen, pooled);
        // Without a pool the sweep deep-copies the chip per sample.
        const auto from_copies = oracle::forkPreExecuteSweep(
            chip, domains, table, opts.epochLen, oracle::SweepOptions{});
        SCOPED_TRACE("epoch " + std::to_string(epoch));
        expectIdenticalEstimates(from_pool, from_copies);
        // A serial sweep's pool holds exactly one scratch chip and
        // never grows past it across epochs.
        EXPECT_EQ(pool.slotCount(), 1u);
    }
}

// --- const-ness of the input chip (restore verification) ------------

TEST(PerfPath, SweepLeavesInputChipUntouchedUnderVerification)
{
    const bench::BenchOptions opts = smallOpts();
    const auto chip = warmChip("minife", opts);
    const dvfs::DomainMap domains(opts.cus, opts.cusPerDomain);
    const power::VfTable table = power::VfTable::paperTable();
    const std::uint64_t before = chip->stateFingerprint();

    oracle::SnapshotPool pool;
    oracle::SweepOptions verified;
    verified.pool = &pool;
    // Forces the per-restore and end-of-sweep fingerprint checks even
    // in NDEBUG builds; a mutation of the input chip would fatal()
    // inside the sweep.
    verified.verifyRestore = true;
    const auto est = oracle::forkPreExecuteSweep(
        *chip, domains, table, opts.epochLen, verified);
    EXPECT_FALSE(est.empty());
    EXPECT_EQ(chip->stateFingerprint(), before);

    // Same property with a sweep-local pool.
    oracle::SweepOptions copy_verified;
    copy_verified.verifyRestore = true;
    (void)oracle::forkPreExecuteSweep(*chip, domains, table,
                                      opts.epochLen, copy_verified);
    EXPECT_EQ(chip->stateFingerprint(), before);
}

// --- allocation guard -----------------------------------------------

TEST(PerfPath, SteadyStatePooledSweepBarelyAllocates)
{
    const bench::BenchOptions opts = smallOpts();
    const auto chip = warmChip("comd", opts);
    const dvfs::DomainMap domains(opts.cus, opts.cusPerDomain);
    const power::VfTable table = power::VfTable::paperTable();

    oracle::SnapshotPool pool;
    oracle::SweepOptions pooled;
    pooled.pool = &pool;

    // First pooled sweep pays the pool's one-time chip copies and
    // buffer high-water marks; it is not the steady state.
    (void)oracle::forkPreExecuteSweep(*chip, domains, table,
                                      opts.epochLen, pooled);
    (void)oracle::forkPreExecuteSweep(*chip, domains, table,
                                      opts.epochLen, pooled);

    const std::uint64_t pool_before =
        g_allocs.load(std::memory_order_relaxed);
    const auto est = oracle::forkPreExecuteSweep(
        *chip, domains, table, opts.epochLen, pooled);
    const std::uint64_t pool_allocs =
        g_allocs.load(std::memory_order_relaxed) - pool_before;

    const std::uint64_t copy_before =
        g_allocs.load(std::memory_order_relaxed);
    const auto est_copy = oracle::forkPreExecuteSweep(
        *chip, domains, table, opts.epochLen, oracle::SweepOptions{});
    const std::uint64_t copy_allocs =
        g_allocs.load(std::memory_order_relaxed) - copy_before;

    expectIdenticalEstimates(est, est_copy);

    // Running the sampled epochs allocates either way (cache / MSHR
    // bookkeeping inside the simulation), but the warm pool must at
    // least save the per-sample chip copies a sweep-local pool makes.
    EXPECT_LT(pool_allocs, copy_allocs)
        << "warm pooled sweep should allocate strictly less than a "
        << "sweep-local pool (copy: " << copy_allocs
        << ", pool: " << pool_allocs << ")";
}

TEST(PerfPath, SteadyStateRestoreBarelyAllocates)
{
    const bench::BenchOptions opts = smallOpts();
    const auto chip = warmChip("comd", opts);

    oracle::SnapshotPool pool;
    pool.ensureSlots(1);
    // First restore copy-constructs the scratch chip; the second
    // settles container high-water marks. Steady state starts at the
    // third.
    pool.restore(0, *chip);
    pool.restore(0, *chip);

    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    gpu::GpuChip &restored = pool.restore(0, *chip);
    const std::uint64_t restore_allocs =
        g_allocs.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(restored.now(), chip->now());

    const std::uint64_t copy_before =
        g_allocs.load(std::memory_order_relaxed);
    const gpu::GpuChip copy = *chip;
    const std::uint64_t copy_allocs =
        g_allocs.load(std::memory_order_relaxed) - copy_before;
    EXPECT_EQ(copy.now(), chip->now());

    // A steady-state restore reuses the scratch chip's buffers; a
    // fresh deep copy allocates every container again.
    EXPECT_LE(restore_allocs, 16)
        << "pool restore should be (nearly) allocation-free";
    EXPECT_LT(restore_allocs * 4, copy_allocs)
        << "restore should allocate <<25% of a deep copy (copy: "
        << copy_allocs << ", restore: " << restore_allocs << ")";
}
