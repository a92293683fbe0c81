/** @file Unit tests for src/core: the PCSTALL controller. */

#include <gtest/gtest.h>

#include "expect_fatal.hh"

#include <memory>

#include "core/pcstall_controller.hh"
#include "sim/experiment.hh"
#include "gpu/gpu_chip.hh"
#include "isa/kernel_builder.hh"

using namespace pcstall;
using namespace pcstall::core;

namespace
{

/** Build a tiny loop app, run one epoch, return chip + record. */
struct Fixture
{
    std::shared_ptr<const isa::Application> app;
    std::unique_ptr<gpu::GpuChip> chip;
    gpu::EpochRecord record;
    std::vector<gpu::WaveSnapshot> snaps;

    explicit Fixture(bool memory_bound)
    {
        isa::KernelBuilder b("k");
        const auto r = b.region("data", 128 << 20);
        b.grid(16, 4);
        b.loop(1000);
        if (memory_bound) {
            b.load(r, isa::AccessPattern::Random);
            b.load(r, isa::AccessPattern::Random);
            b.load(r, isa::AccessPattern::Random);
            b.load(r, isa::AccessPattern::Random);
            b.waitcnt(0);
            b.salu(1);
        } else {
            b.valu(4, 10);
        }
        b.endLoop();
        auto a = std::make_shared<isa::Application>();
        a->name = memory_bound ? "mem" : "comp";
        a->launches.push_back(b.build());
        a->assignCodeBases();
        app = a;

        gpu::GpuConfig cfg;
        cfg.numCus = 2;
        cfg.waveSlotsPerCu = 8;
        chip = std::make_unique<gpu::GpuChip>(cfg, app);
        chip->runUntil(tickUs);
        record = chip->harvestEpoch(0);
        snaps = chip->waveSnapshots();
    }
};

} // namespace

TEST(PcstallConfig, ForEpochScalesQuantization)
{
    const auto cfg1 = PcstallConfig::forEpoch(tickUs);
    const auto cfg50 = PcstallConfig::forEpoch(50 * tickUs);
    EXPECT_GT(cfg50.table.maxSensitivity, cfg1.table.maxSensitivity);
    EXPECT_EQ(cfg1.estimator.waveSlots, 40u);
}

TEST(PcstallController, NameReflectsMode)
{
    PcstallConfig cfg;
    EXPECT_EQ(PcstallController(cfg, 2).name(), "PCSTALL");
    cfg.accurateEstimates = true;
    EXPECT_EQ(PcstallController(cfg, 2).name(), "ACCPC");
}

TEST(PcstallController, SweepNeeds)
{
    PcstallConfig cfg;
    EXPECT_EQ(PcstallController(cfg, 2).sweepNeed(),
              dvfs::SweepNeed::None);
    cfg.accurateEstimates = true;
    EXPECT_EQ(PcstallController(cfg, 2).sweepNeed(),
              dvfs::SweepNeed::Elapsed);
    EXPECT_TRUE(PcstallController(cfg, 2).needsWaveLevel());
}

TEST(PcstallController, StorageScalesWithSharing)
{
    PcstallConfig cfg;
    cfg.cusPerTable = 1;
    const auto per_cu = PcstallController(cfg, 4).storageBytes();
    cfg.cusPerTable = 4;
    const auto shared = PcstallController(cfg, 4).storageBytes();
    EXPECT_EQ(per_cu, 4 * shared);
}

TEST(PcstallController, DecidesForEveryDomain)
{
    Fixture f(false);
    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    gpu::GpuConfig scaled_gpu;
    power::PowerParams scaled_power;
    sim::scaleToCus(scaled_gpu, scaled_power, 2);
    const power::PowerModel pm(scaled_power);
    const dvfs::StateCosts costs(table, pm, tickUs, 45.0);
    dvfs::EpochContext ctx{f.record, f.snaps, domains, table, pm,
                           tickUs, 45.0, dvfs::Objective::Ed2p, 0.05,
                           4, nullptr, nullptr};
    ctx.stateCosts = &costs;
    PcstallController c(PcstallConfig::forEpoch(tickUs, 8), 2);
    const auto decisions = c.decide(ctx);
    ASSERT_EQ(decisions.size(), 2u);
    for (const auto &d : decisions) {
        EXPECT_LT(d.state, table.numStates());
        EXPECT_GE(d.predictedInstr, 0.0);
    }
}

TEST(PcstallController, ComputeBoundPrefersHigherStateThanMemoryBound)
{
    const power::VfTable table = power::VfTable::paperTable();
    gpu::GpuConfig scaled_gpu;
    power::PowerParams scaled_power;
    sim::scaleToCus(scaled_gpu, scaled_power, 2);
    const power::PowerModel pm(scaled_power);
    const dvfs::DomainMap domains(2, 1);
    const dvfs::StateCosts costs(table, pm, tickUs, 45.0);

    auto decide = [&](Fixture &f) {
        dvfs::EpochContext ctx{f.record, f.snaps, domains, table, pm,
                               tickUs, 45.0, dvfs::Objective::Ed2p,
                               0.05, 4, nullptr, nullptr};
        ctx.stateCosts = &costs;
        PcstallController c(PcstallConfig::forEpoch(tickUs, 8), 2);
        // Two epochs of warm-up so the table has entries.
        c.decide(ctx);
        return c.decide(ctx);
    };

    Fixture comp(false);
    Fixture mem(true);
    const auto comp_dec = decide(comp);
    const auto mem_dec = decide(mem);
    EXPECT_GT(comp_dec[0].state, mem_dec[0].state);
    EXPECT_LE(mem_dec[0].state, 2u);
}

TEST(PcstallController, TableHitRatioGrowsWithReuse)
{
    // Drive several real epochs: waves start epochs at varied PCs, so
    // the table fills and later lookups mostly hit.
    Fixture f(false);
    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const power::PowerModel pm;
    const dvfs::StateCosts costs(table, pm, tickUs, 45.0);
    PcstallController c(PcstallConfig::forEpoch(tickUs, 8), 2);
    for (int epoch = 1; epoch <= 8; ++epoch) {
        f.chip->runUntil((1 + epoch) * tickUs);
        const gpu::EpochRecord rec = f.chip->harvestEpoch(epoch * tickUs);
        const auto snaps = f.chip->waveSnapshots();
        dvfs::EpochContext ctx{rec, snaps, domains, table, pm, tickUs,
                               45.0, dvfs::Objective::Ed2p, 0.05, 4,
                               nullptr, nullptr};
        ctx.stateCosts = &costs;
        c.decide(ctx);
    }
    EXPECT_GT(c.tableHitRatio(), 0.3);
}

using PcstallDeath = ::testing::Test;

TEST(PcstallDeath, RejectsUnevenTableSharing)
{
    PcstallConfig cfg;
    cfg.cusPerTable = 3;
    EXPECT_FATAL(PcstallController(cfg, 4), "divide evenly");
}

TEST(PcstallController, AdaptiveContentionLearnsSkew)
{
    // Feed an epoch record with a strong age-rank throughput skew and
    // verify the learned contention factors reflect it.
    const power::VfTable table = power::VfTable::paperTable();
    gpu::GpuConfig scaled_gpu;
    power::PowerParams scaled_power;
    sim::scaleToCus(scaled_gpu, scaled_power, 1);
    const power::PowerModel pm(scaled_power);
    const dvfs::DomainMap domains(1, 1);

    gpu::EpochRecord record;
    record.cus.resize(1);
    record.cus[0].committed = 1000;
    record.cus[0].freq = 1'700 * freqMHz;
    for (std::uint32_t age = 0; age < 8; ++age) {
        gpu::WaveEpochRecord w;
        w.cu = 0;
        w.slot = age;
        w.ageRank = age;
        w.committed = age < 4 ? 200 : 20; // old waves dominate
        w.active = true;
        record.waves.push_back(w);
    }
    std::vector<gpu::WaveSnapshot> snaps;
    const dvfs::StateCosts costs(table, pm, tickUs, 45.0);
    dvfs::EpochContext ctx{record, snaps, domains, table, pm, tickUs,
                           45.0, dvfs::Objective::Ed2p, 0.05, 4,
                           nullptr, nullptr};
    ctx.stateCosts = &costs;

    PcstallConfig cfg = PcstallConfig::forEpoch(tickUs, 8);
    PcstallController c(cfg, 1);
    c.decide(ctx);
    EXPECT_NEAR(c.contention(0), 1.0, 0.05);
    EXPECT_NEAR(c.contention(7), 0.1, 0.05);
    EXPECT_GT(c.contention(2), c.contention(6));
}

TEST(PcstallController, AdaptiveContentionCanBeDisabled)
{
    PcstallConfig cfg = PcstallConfig::forEpoch(tickUs, 8);
    cfg.adaptiveContention = false;
    PcstallController c(cfg, 1);
    // Falls back to the static linear model.
    EXPECT_NEAR(c.contention(0), 1.0, 1e-9);
    EXPECT_NEAR(c.contention(7),
                models::contentionFactor(cfg.estimator, 7), 1e-9);
}

TEST(PcstallController, StorageGrowsWithLevelField)
{
    PcstallConfig with_level = PcstallConfig::forEpoch(tickUs, 8);
    PcstallConfig slope_only = with_level;
    slope_only.table.storeLevel = false;
    EXPECT_EQ(PcstallController(with_level, 1).storageBytes(),
              2 * PcstallController(slope_only, 1).storageBytes());
}

namespace
{

/** Hand-built single-wave context for white-box predictor checks. */
struct MiniCtx
{
    gpu::EpochRecord record;
    std::vector<gpu::WaveSnapshot> snaps;
    dvfs::DomainMap domains{1, 1};
    power::VfTable table = power::VfTable::paperTable();
    power::PowerModel pm{[] {
        power::PowerParams p;
        p.memStatic = 1.0; // single-CU scale
        return p;
    }()};
    dvfs::StateCosts costs{table, pm, tickUs, 45.0};

    MiniCtx(std::uint64_t start_pc_addr, std::uint64_t cur_pc_addr,
            std::uint64_t committed, Tick stall)
    {
        record.start = 0;
        record.end = tickUs;
        record.cus.resize(1);
        record.cus[0].committed = committed;
        record.cus[0].freq = 1'700 * freqMHz;
        gpu::WaveEpochRecord w;
        w.cu = 0;
        w.slot = 0;
        w.startPcAddr = start_pc_addr;
        w.committed = committed;
        w.memStall = stall;
        w.active = true;
        record.waves.push_back(w);

        gpu::WaveSnapshot s;
        s.cu = 0;
        s.slot = 0;
        s.pcAddr = cur_pc_addr;
        s.ageRank = 0;
        snaps.push_back(s);
    }

    dvfs::EpochContext
    ctx()
    {
        dvfs::EpochContext c{record, snaps, domains, table, pm,
                             tickUs, 45.0, dvfs::Objective::Ed2p,
                             0.05, 4, nullptr, nullptr};
        c.stateCosts = &costs;
        return c;
    }
};

} // namespace

TEST(PcstallController, RegionGateUsesOwnModelInsideGranule)
{
    // Seed the table at granule 0x200 with a *memory* phase, then
    // present a wave whose elapsed epoch was pure compute and whose
    // PC is still in its own granule (0x100): the wave's own fresh
    // model must win, predicting a steep I(f).
    PcstallConfig cfg = PcstallConfig::forEpoch(tickUs, 8);
    PcstallController c(cfg, 1);

    MiniCtx seed(0x1040, 0x1044, 100, tickUs * 9 / 10); // memory entry
    c.decide(seed.ctx());

    MiniCtx compute(0x1000, 0x1004, 3000, 0); // compute, same granule
    auto ctx = compute.ctx();
    const auto d = c.decide(ctx);
    // Steep model: prediction at the chosen (high) state well above
    // the elapsed count would only come from the wave's own model.
    EXPECT_GE(d[0].state, 5u);
}

TEST(PcstallController, OwnModelsSurviveSlotsPastTheConfiguredCount)
{
    // Configured for 8 slots, fed waves in slots 3 and 79 of one CU:
    // the wider slot arrives after slot 3's model is stored, and both
    // waves, still in their granules, must find their own models.
    PcstallConfig cfg = PcstallConfig::forEpoch(tickUs, 8);
    PcstallController c(cfg, 1);

    MiniCtx m(0x1000, 0x1004, 3000, 0);
    gpu::WaveEpochRecord wide = m.record.waves[0];
    gpu::WaveSnapshot wide_snap = m.snaps[0];
    m.record.waves[0].slot = 3;
    m.snaps[0].slot = 3;
    wide.slot = 79;
    wide_snap.slot = 79;
    m.record.waves.push_back(wide);
    m.snaps.push_back(wide_snap);

    dvfs::DecisionAudit audit;
    audit.reset(1);
    auto ctx = m.ctx();
    ctx.audit = &audit;
    c.decide(ctx);
    EXPECT_EQ(audit.domains[0].sameRegion, 2u);
    EXPECT_EQ(audit.domains[0].lookups, 0u);
    const double own = models::wavePhase(m.record.waves[0], cfg.estimator,
                                         tickUs, 1'700 * freqMHz)
                           .sens;
    EXPECT_GT(own, 0.0);
    EXPECT_DOUBLE_EQ(audit.domains[0].predictedSens, 2.0 * own);
}

TEST(PcstallController, LaterSweepEntryForOneWaveWins)
{
    // An elapsed sweep can list one (cu, slot) twice: the later entry
    // is the wave's model, as a map assignment would keep it.
    PcstallConfig cfg = PcstallConfig::forEpoch(tickUs, 8);
    cfg.accurateEstimates = true;
    PcstallController c(cfg, 1);

    MiniCtx m(0x1000, 0x1004, 3000, 0);
    dvfs::AccurateEstimates est;
    dvfs::AccurateEstimates::WaveSens first;
    first.startPcAddr = 0x1000;
    first.sensitivity = 10.0;
    first.level = 5.0;
    dvfs::AccurateEstimates::WaveSens second = first;
    second.sensitivity = 40.0;
    second.level = 7.0;
    est.waves = {first, second};

    dvfs::DecisionAudit audit;
    audit.reset(1);
    auto ctx = m.ctx();
    ctx.elapsedAccurate = &est;
    ctx.audit = &audit;
    c.decide(ctx);
    EXPECT_EQ(audit.domains[0].sameRegion, 1u);
    EXPECT_EQ(audit.domains[0].predictedSens, 40.0);
    EXPECT_EQ(audit.domains[0].predictedLevel, 7.0);
}

TEST(PcstallController, RegionGateUsesTableAcrossGranules)
{
    // Teach the table that granule 0x3000 is a memory phase; then a
    // compute wave *arriving* at 0x3000 must predict the memory
    // phase (low state) despite its own steep last-epoch model.
    PcstallConfig cfg = PcstallConfig::forEpoch(tickUs, 8);
    PcstallController c(cfg, 1);

    MiniCtx teach(0x1040, 0x1044, 120, tickUs * 9 / 10);
    c.decide(teach.ctx());
    c.decide(teach.ctx()); // blend a second update

    MiniCtx arriving(0x1000, 0x1044, 3000, 0);
    auto ctx = arriving.ctx();
    const auto d = c.decide(ctx);
    EXPECT_LE(d[0].state, 2u);
    // And the prediction level resembles the taught phase, not the
    // wave's own 3000-instruction epoch.
    EXPECT_LT(d[0].predictedInstr, 1000.0);
}

TEST(PcstallController, RegionGateAblationFallsBackToTable)
{
    // With lookupOnRegionChange disabled, the table is consulted even
    // inside the granule, so a stale entry overrides the fresh model.
    PcstallConfig cfg = PcstallConfig::forEpoch(tickUs, 8);
    cfg.lookupOnRegionChange = false;
    PcstallController c(cfg, 1);

    MiniCtx teach(0x1000, 0x1004, 120, tickUs * 9 / 10);
    c.decide(teach.ctx());
    c.decide(teach.ctx());

    MiniCtx compute(0x1000, 0x1004, 3000, 0);
    auto ctx = compute.ctx();
    const auto d = c.decide(ctx);
    // The mixture (blended stale memory entry + new compute update)
    // pulls the prediction well below the pure compute model.
    EXPECT_LT(d[0].predictedInstr, 3000.0);
}
