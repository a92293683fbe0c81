/** @file Unit tests for src/faults and the graceful-degradation path. */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/pcstall_controller.hh"
#include "dvfs/controller.hh"
#include "faults/fault_injector.hh"
#include "isa/kernel_builder.hh"
#include "predict/pc_table.hh"
#include "sim/experiment.hh"

using namespace pcstall;
using namespace pcstall::faults;

namespace
{

gpu::EpochRecord
sampleRecord(std::size_t num_cus = 2, std::size_t waves_per_cu = 4)
{
    gpu::EpochRecord r;
    r.start = 0;
    r.end = tickUs;
    r.cus.resize(num_cus);
    for (std::size_t c = 0; c < num_cus; ++c) {
        auto &cu = r.cus[c];
        cu.committed = 4000 + 100 * c;
        cu.vmemLoads = 300;
        cu.vmemStores = 120;
        cu.busy = tickUs / 2;
        cu.loadStall = tickUs / 4;
        cu.storeStall = tickUs / 8;
        cu.leadLoad = tickUs / 8;
        cu.memInterval = tickUs / 3;
        cu.overlap = tickUs / 6;
        cu.freq = 1'700 * freqMHz;
        for (std::size_t s = 0; s < waves_per_cu; ++s) {
            gpu::WaveEpochRecord w;
            w.cu = static_cast<std::uint32_t>(c);
            w.slot = static_cast<std::uint32_t>(s);
            w.startPcAddr = 0x1000 + 16 * s;
            w.committed = 900 + 10 * s;
            w.memStall = tickUs / 4;
            w.barrierStall = tickUs / 16;
            w.active = true;
            r.waves.push_back(w);
        }
    }
    return r;
}

bool
sameRecord(const gpu::EpochRecord &a, const gpu::EpochRecord &b)
{
    if (a.cus.size() != b.cus.size() || a.waves.size() != b.waves.size())
        return false;
    for (std::size_t i = 0; i < a.cus.size(); ++i) {
        const auto &x = a.cus[i];
        const auto &y = b.cus[i];
        if (x.committed != y.committed || x.vmemLoads != y.vmemLoads ||
            x.vmemStores != y.vmemStores || x.busy != y.busy ||
            x.loadStall != y.loadStall || x.storeStall != y.storeStall ||
            x.leadLoad != y.leadLoad || x.memInterval != y.memInterval ||
            x.overlap != y.overlap) {
            return false;
        }
    }
    for (std::size_t i = 0; i < a.waves.size(); ++i) {
        const auto &x = a.waves[i];
        const auto &y = b.waves[i];
        if (x.committed != y.committed || x.memStall != y.memStall ||
            x.barrierStall != y.barrierStall) {
            return false;
        }
    }
    return true;
}

std::shared_ptr<const isa::Application>
loopApp()
{
    isa::KernelBuilder b("mix");
    const auto r = b.region("data", 32 << 20);
    b.grid(16, 4);
    b.loop(400);
    b.load(r, isa::AccessPattern::Random);
    b.waitcnt(0);
    b.valu(4, 4);
    b.endLoop();
    auto app = std::make_shared<isa::Application>();
    app->name = "mix_app";
    app->launches.push_back(b.build());
    app->assignCodeBases();
    return app;
}

sim::RunConfig
smallConfig()
{
    sim::RunConfig cfg;
    cfg.gpu.numCus = 2;
    cfg.gpu.waveSlotsPerCu = 8;
    cfg.maxSimTime = 2 * tickMs;
    cfg.scaled();
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// FaultInjector basics.
// ---------------------------------------------------------------------

TEST(FaultInjector, DisabledInjectorIsIdentity)
{
    FaultInjector inj{FaultConfig{}};
    EXPECT_FALSE(inj.active());

    gpu::EpochRecord record = sampleRecord();
    const gpu::EpochRecord before = record;
    const auto out = inj.perturbRecord(record, tickUs);
    EXPECT_TRUE(sameRecord(before, record));
    EXPECT_EQ(out.perturbed, 0u);
    EXPECT_EQ(out.dropouts, 0u);

    const auto table = power::VfTable::paperTable();
    const auto t = inj.transition(2, 7, table);
    EXPECT_EQ(t.state, 7u);
    EXPECT_EQ(t.extraLatency, 0);
    EXPECT_FALSE(t.failed);

    predict::PcSensitivityTable pc{predict::PcTableConfig{}};
    EXPECT_EQ(inj.corrupt(pc), 0u);

    const auto sum = inj.totals();
    EXPECT_EQ(sum.telemetryPerturbations, 0u);
    EXPECT_EQ(sum.transitionFailures, 0u);
    EXPECT_EQ(sum.tableBitFlips, 0u);
}

TEST(FaultInjector, SameSeedDrawsSameFaults)
{
    FaultConfig cfg;
    cfg.telemetry.enabled = true;
    cfg.telemetry.sigma = 0.2;
    cfg.telemetry.dropoutProb = 0.05;

    FaultInjector a(cfg), b(cfg);
    gpu::EpochRecord ra = sampleRecord();
    gpu::EpochRecord rb = sampleRecord();
    a.perturbRecord(ra, tickUs);
    b.perturbRecord(rb, tickUs);
    EXPECT_TRUE(sameRecord(ra, rb));

    cfg.seed ^= 0x1234;
    FaultInjector c(cfg);
    gpu::EpochRecord rc = sampleRecord();
    c.perturbRecord(rc, tickUs);
    EXPECT_FALSE(sameRecord(ra, rc));
}

TEST(FaultInjector, PerturbedCountersStayInPhysicalRange)
{
    FaultConfig cfg;
    cfg.telemetry.enabled = true;
    cfg.telemetry.sigma = 3.0; // absurd noise to stress the clamps
    FaultInjector inj(cfg);

    for (int i = 0; i < 50; ++i) {
        gpu::EpochRecord r = sampleRecord();
        inj.perturbRecord(r, tickUs);
        for (const auto &cu : r.cus) {
            EXPECT_LE(cu.busy, tickUs);
            EXPECT_LE(cu.loadStall, tickUs);
            EXPECT_LE(cu.storeStall, tickUs);
            EXPECT_LE(cu.leadLoad, tickUs);
            EXPECT_LE(cu.memInterval, tickUs);
            EXPECT_LE(cu.overlap, tickUs);
            EXPECT_GE(cu.busy, 0);
            EXPECT_GE(cu.loadStall, 0);
        }
        for (const auto &w : r.waves) {
            EXPECT_LE(w.memStall, tickUs);
            EXPECT_LE(w.barrierStall, tickUs);
            EXPECT_GE(w.memStall, 0);
        }
    }
    EXPECT_GT(inj.totals().telemetryPerturbations, 0u);
}

TEST(FaultInjector, FullDropoutZeroesEveryCounter)
{
    FaultConfig cfg;
    cfg.telemetry.enabled = true;
    cfg.telemetry.dropoutProb = 1.0;
    FaultInjector inj(cfg);

    gpu::EpochRecord r = sampleRecord();
    const auto out = inj.perturbRecord(r, tickUs);
    for (const auto &cu : r.cus) {
        EXPECT_EQ(cu.committed, 0u);
        EXPECT_EQ(cu.busy, 0);
        EXPECT_EQ(cu.memInterval, 0);
    }
    for (const auto &w : r.waves)
        EXPECT_EQ(w.committed, 0u);
    EXPECT_GT(out.dropouts, 0u);
}

TEST(FaultInjector, TransitionAlwaysFailsAtProbabilityOne)
{
    FaultConfig cfg;
    cfg.dvfs.enabled = true;
    cfg.dvfs.transitionFailProb = 1.0;
    FaultInjector inj(cfg);
    const auto table = power::VfTable::paperTable();

    for (std::size_t req = 0; req < table.numStates(); ++req) {
        const auto out = inj.transition(3, req, table);
        if (req == 3)
            EXPECT_FALSE(out.failed); // no change requested
        else
            EXPECT_TRUE(out.failed);
        EXPECT_EQ(out.state, 3u); // stuck at the old state either way
    }
    EXPECT_EQ(inj.totals().transitionFailures, table.numStates() - 1);
}

TEST(FaultInjector, TransitionChargesExtraLatency)
{
    FaultConfig cfg;
    cfg.dvfs.enabled = true;
    cfg.dvfs.extraSwitchLatency = 5 * tickUs;
    FaultInjector inj(cfg);
    const auto table = power::VfTable::paperTable();

    const auto out = inj.transition(0, 4, table);
    EXPECT_EQ(out.state, 4u);
    EXPECT_FALSE(out.failed);
    EXPECT_EQ(out.extraLatency, 5 * tickUs);
    // Staying put costs nothing.
    EXPECT_EQ(inj.transition(4, 4, table).extraLatency, 0);
}

TEST(FaultInjector, QuantizedTransitionsStayLegal)
{
    FaultConfig cfg;
    cfg.dvfs.enabled = true;
    cfg.dvfs.granularity = 200 * freqMHz;
    FaultInjector inj(cfg);
    const auto table = power::VfTable::paperTable();

    for (std::size_t req = 0; req < table.numStates() + 3; ++req) {
        const auto out = inj.transition(0, req, table);
        EXPECT_LT(out.state, table.numStates());
    }
}

TEST(FaultInjector, OutOfRangeRequestIsClamped)
{
    FaultInjector inj{FaultConfig{}};
    const auto table = power::VfTable::paperTable();
    const auto out = inj.transition(0, table.numStates() + 50, table);
    EXPECT_EQ(out.state, table.numStates() - 1);
}

// ---------------------------------------------------------------------
// PC-table storage faults and the parity scrub.
// ---------------------------------------------------------------------

TEST(PcTableFaults, BitFlipPerturbsUnprotectedEntry)
{
    predict::PcTableConfig cfg;
    predict::PcSensitivityTable table(cfg);
    table.update(0x1000, 8.0, 32.0);
    const auto before = table.lookup(0x1000);
    ASSERT_TRUE(before.has_value());

    EXPECT_TRUE(table.injectBitFlip((0x1000 >> cfg.offsetBits) %
                                        cfg.entries,
                                    false, 7));
    const auto after = table.lookup(0x1000);
    ASSERT_TRUE(after.has_value()); // no parity: silently wrong
    EXPECT_NE(after->sensitivity, before->sensitivity);
    EXPECT_EQ(table.scrubCount(), 0u);
}

TEST(PcTableFaults, ParityScrubTurnsFlipIntoMiss)
{
    predict::PcTableConfig cfg;
    cfg.parityProtected = true;
    predict::PcSensitivityTable table(cfg);
    table.update(0x1000, 8.0, 32.0);
    ASSERT_TRUE(table.lookup(0x1000).has_value());

    const std::size_t idx = (0x1000 >> cfg.offsetBits) % cfg.entries;
    EXPECT_TRUE(table.injectBitFlip(idx, false, 3));
    EXPECT_FALSE(table.lookup(0x1000).has_value());
    EXPECT_EQ(table.scrubCount(), 1u);
    EXPECT_FALSE(table.entryValid(idx)); // scrub invalidates

    // A fresh update heals the entry.
    table.update(0x1000, 8.0, 32.0);
    EXPECT_TRUE(table.lookup(0x1000).has_value());
    EXPECT_EQ(table.scrubCount(), 1u);
}

TEST(PcTableFaults, FlipOnInvalidEntryIsRejected)
{
    predict::PcSensitivityTable table{predict::PcTableConfig{}};
    EXPECT_FALSE(table.injectBitFlip(0, false, 0));

    predict::PcTableConfig no_level;
    no_level.storeLevel = false;
    predict::PcSensitivityTable slope_only(no_level);
    slope_only.update(0x0, 4.0);
    EXPECT_FALSE(slope_only.injectBitFlip(0, true, 0));
    EXPECT_TRUE(slope_only.injectBitFlip(0, false, 0));
}

// ---------------------------------------------------------------------
// Decision sanitizer.
// ---------------------------------------------------------------------

TEST(SanitizeDecisions, LegalDecisionsPassUntouched)
{
    const auto table = power::VfTable::paperTable();
    std::vector<dvfs::DomainDecision> d = {{2, 100.0}, {5, 50.0}};
    const auto copy = d;
    EXPECT_EQ(dvfs::sanitizeDecisions(d, table, 2, 4), 0u);
    ASSERT_EQ(d.size(), copy.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
        EXPECT_EQ(d[i].state, copy[i].state);
        EXPECT_EQ(d[i].predictedInstr, copy[i].predictedInstr);
    }
}

TEST(SanitizeDecisions, RepairsCountStateAndNonFinite)
{
    const auto table = power::VfTable::paperTable();

    std::vector<dvfs::DomainDecision> wrong_count = {{2, 1.0}};
    EXPECT_GE(dvfs::sanitizeDecisions(wrong_count, table, 3, 4), 1u);
    ASSERT_EQ(wrong_count.size(), 3u);
    EXPECT_EQ(wrong_count[2].state, 4u); // filled with the fallback

    std::vector<dvfs::DomainDecision> bad = {
        {200, 1.0},
        {1, std::nan("")},
    };
    EXPECT_EQ(dvfs::sanitizeDecisions(bad, table, 2, 4), 2u);
    EXPECT_EQ(bad[0].state, table.numStates() - 1);
    EXPECT_TRUE(std::isfinite(bad[1].predictedInstr));
}

// ---------------------------------------------------------------------
// PCSTALL divergence watchdog.
// ---------------------------------------------------------------------

namespace
{

/** Minimal live context around a caller-owned record. */
struct WatchCtx
{
    gpu::EpochRecord record = sampleRecord(1, 2);
    std::vector<gpu::WaveSnapshot> snaps;
    dvfs::DomainMap domains{1, 1};
    power::VfTable table = power::VfTable::paperTable();
    power::PowerModel pm{power::PowerParams{}};
    dvfs::StateCosts costs{table, pm, tickUs, 45.0};

    WatchCtx()
    {
        gpu::WaveSnapshot s;
        s.cu = 0;
        s.slot = 0;
        s.pcAddr = 0x1000;
        snaps.push_back(s);
    }

    dvfs::EpochContext ctx()
    {
        dvfs::EpochContext c{record, snaps, domains, table, pm,
                             tickUs, 45.0, dvfs::Objective::Ed2p,
                             0.05, 4, nullptr, nullptr};
        c.stateCosts = &costs;
        return c;
    }
};

} // namespace

TEST(Watchdog, TripsOnImplausibleTelemetryAndRecovers)
{
    core::PcstallConfig cfg =
        core::PcstallConfig::forEpoch(tickUs, 8);
    cfg.watchdog.enabled = true;
    // The hand-built record is not self-consistent with the phase
    // model, so disarm the divergence signal and exercise the
    // telemetry-plausibility signal in isolation.
    cfg.watchdog.errorThreshold = 1e9;
    core::PcstallController c(cfg, 1);

    WatchCtx good;
    for (int i = 0; i < 4; ++i)
        c.decide(good.ctx());
    EXPECT_FALSE(c.inFallback());
    EXPECT_EQ(c.watchdogTrips(), 0u);

    // loadStall + storeStall above the epoch span is impossible for a
    // clean record: the watchdog must flag it and trip after
    // `tripAfter` consecutive occurrences.
    WatchCtx corrupt;
    corrupt.record.cus[0].loadStall = tickUs;
    corrupt.record.cus[0].storeStall = tickUs / 2;
    for (std::uint32_t i = 0; i < cfg.watchdog.tripAfter; ++i)
        c.decide(corrupt.ctx());
    EXPECT_TRUE(c.inFallback());
    EXPECT_EQ(c.watchdogTrips(), 1u);
    EXPECT_GT(c.fallbackEpochs(), 0u);

    // Hysteresis: recovery only after `recoverAfter` clean epochs.
    for (std::uint32_t i = 0; i + 1 < cfg.watchdog.recoverAfter; ++i) {
        c.decide(good.ctx());
        EXPECT_TRUE(c.inFallback());
    }
    c.decide(good.ctx());
    EXPECT_FALSE(c.inFallback());
}

TEST(Watchdog, DisabledWatchdogNeverTrips)
{
    core::PcstallConfig cfg =
        core::PcstallConfig::forEpoch(tickUs, 8);
    core::PcstallController c(cfg, 1);

    WatchCtx corrupt;
    corrupt.record.cus[0].loadStall = tickUs;
    corrupt.record.cus[0].storeStall = tickUs;
    for (int i = 0; i < 10; ++i)
        c.decide(corrupt.ctx());
    EXPECT_FALSE(c.inFallback());
    EXPECT_EQ(c.watchdogTrips(), 0u);
}

// ---------------------------------------------------------------------
// End-to-end graceful degradation.
// ---------------------------------------------------------------------

TEST(FaultEndToEnd, DisabledFaultSeedDoesNotChangeResults)
{
    // All fault classes default off: the injector must never draw from
    // its RNGs, so even the fault seed cannot influence the run.
    sim::RunConfig cfg_a = smallConfig();
    cfg_a.faults.seed = 0x1111;
    sim::RunConfig cfg_b = smallConfig();
    cfg_b.faults.seed = 0x2222;

    const auto app = loopApp();
    core::PcstallController ca(
        core::PcstallConfig::forEpoch(cfg_a.epochLen,
                                      cfg_a.gpu.waveSlotsPerCu),
        cfg_a.gpu.numCus);
    core::PcstallController cb(
        core::PcstallConfig::forEpoch(cfg_b.epochLen,
                                      cfg_b.gpu.waveSlotsPerCu),
        cfg_b.gpu.numCus);
    const auto ra = sim::ExperimentDriver(cfg_a).run(app, ca);
    const auto rb = sim::ExperimentDriver(cfg_b).run(app, cb);

    EXPECT_EQ(ra.execTime, rb.execTime);
    EXPECT_EQ(ra.instructions, rb.instructions);
    EXPECT_EQ(ra.transitions, rb.transitions);
    EXPECT_DOUBLE_EQ(ra.energy, rb.energy);
    EXPECT_DOUBLE_EQ(ra.predictionAccuracy, rb.predictionAccuracy);
    EXPECT_EQ(ra.faults.clampedDecisions, 0u);
    EXPECT_EQ(ra.faults.telemetryPerturbations, 0u);
}

TEST(FaultEndToEnd, HeavyNoiseRunStaysLegalAndFallsBack)
{
    sim::RunConfig cfg = smallConfig();
    cfg.collectTrace = true;
    cfg.watchdogFallback = true;
    cfg.eccProtectTables = true;
    cfg.faults.telemetry.enabled = true;
    cfg.faults.telemetry.sigma = 0.3;
    cfg.faults.telemetry.dropoutProb = 0.05;
    cfg.faults.dvfs.enabled = true;
    cfg.faults.dvfs.transitionFailProb = 0.2;
    cfg.faults.dvfs.extraSwitchLatency = tickUs / 2;
    cfg.faults.storage.enabled = true;
    cfg.faults.storage.upsetsPerEpoch = 1.0;

    core::PcstallConfig pcfg = core::PcstallConfig::forEpoch(
        cfg.epochLen, cfg.gpu.waveSlotsPerCu);
    pcfg.watchdog.enabled = true;
    pcfg.table.parityProtected = true;
    core::PcstallController controller(pcfg, cfg.gpu.numCus);

    sim::ExperimentDriver driver(cfg);
    const sim::RunResult r = driver.run(loopApp(), controller);

    EXPECT_TRUE(r.completed);
    ASSERT_FALSE(r.trace.empty());
    for (const auto &e : r.trace) {
        for (const std::uint8_t s : e.domainState)
            EXPECT_LT(s, driver.table().numStates());
    }
    EXPECT_GT(r.faults.telemetryPerturbations, 0u);
    EXPECT_GT(r.faults.transitionFailures, 0u);
    EXPECT_GT(r.faults.tableBitFlips, 0u);
    EXPECT_GT(r.faults.fallbackEpochs, 0u);
    EXPECT_GT(r.faults.watchdogTrips, 0u);
}

TEST(FaultEndToEnd, ValidateRunConfigRejectsBadFaultRanges)
{
    sim::RunConfig cfg = smallConfig();
    EXPECT_TRUE(sim::validateRunConfig(cfg).empty());

    cfg.faults.telemetry.dropoutProb = 1.5;
    EXPECT_FALSE(sim::validateRunConfig(cfg).empty());

    cfg = smallConfig();
    cfg.faults.dvfs.transitionFailProb = -0.1;
    EXPECT_FALSE(sim::validateRunConfig(cfg).empty());
}
