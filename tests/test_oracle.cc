/** @file Unit tests for src/oracle: fork-pre-execute + controllers. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "common/stats_util.hh"
#include "gpu/gpu_chip.hh"
#include "isa/kernel_builder.hh"
#include "oracle/fork_pre_execute.hh"
#include "oracle/oracle_controllers.hh"
#include "sim/experiment.hh"

using namespace pcstall;
using namespace pcstall::oracle;

namespace
{

std::shared_ptr<const isa::Application>
mixedApp()
{
    isa::KernelBuilder b("mixed");
    const auto r = b.region("data", 32 << 20);
    b.grid(16, 4);
    b.loop(500);
    b.load(r, isa::AccessPattern::Streaming, 16);
    b.waitcnt(0);
    b.valu(4, 8);
    b.endLoop();
    auto app = std::make_shared<isa::Application>();
    app->name = "mixed";
    app->launches.push_back(b.build());
    app->assignCodeBases();
    return app;
}

std::shared_ptr<const isa::Application>
computeApp()
{
    isa::KernelBuilder b("comp");
    b.grid(16, 4);
    b.loop(2000);
    b.valu(4, 8);
    b.endLoop();
    auto app = std::make_shared<isa::Application>();
    app->name = "comp";
    app->launches.push_back(b.build());
    app->assignCodeBases();
    return app;
}

gpu::GpuConfig
smallGpu()
{
    gpu::GpuConfig cfg;
    cfg.numCus = 2;
    cfg.waveSlotsPerCu = 8;
    return cfg;
}

/**
 * The reduction the k-way merge replaced: flatten every observation,
 * sort by (cu, slot, startPcAddr, sample index) and fit each
 * (cu, slot, startPcAddr) group of at least three points.
 */
std::vector<dvfs::AccurateEstimates::WaveSens>
sortedReduction(const std::vector<std::vector<WaveSample>> &samples)
{
    struct Point
    {
        WaveSample w;
        std::size_t k;
    };
    std::vector<Point> all;
    for (std::size_t k = 0; k < samples.size(); ++k)
        for (const WaveSample &w : samples[k])
            all.push_back({w, k});
    std::sort(all.begin(), all.end(), [](const Point &a, const Point &b) {
        return std::tie(a.w.cu, a.w.slot, a.w.startPcAddr, a.k) <
               std::tie(b.w.cu, b.w.slot, b.w.startPcAddr, b.k);
    });
    std::vector<dvfs::AccurateEstimates::WaveSens> out;
    for (std::size_t i = 0; i < all.size();) {
        std::size_t j = i + 1;
        while (j < all.size() && all[j].w.cu == all[i].w.cu &&
               all[j].w.slot == all[i].w.slot &&
               all[j].w.startPcAddr == all[i].w.startPcAddr) {
            ++j;
        }
        if (j - i >= 3) {
            std::vector<double> freqs, instr;
            for (std::size_t p = i; p < j; ++p) {
                freqs.push_back(all[p].w.freqGHz);
                instr.push_back(all[p].w.instr);
            }
            const LinearFit fit = linearFit(freqs, instr);
            dvfs::AccurateEstimates::WaveSens ws;
            ws.cu = all[i].w.cu;
            ws.slot = all[i].w.slot;
            ws.startPcAddr = all[i].w.startPcAddr;
            ws.sensitivity = fit.slope;
            ws.level = std::max(fit.intercept, 0.0);
            ws.ageRank = all[j - 1].w.ageRank;
            out.push_back(ws);
        }
        i = j;
    }
    return out;
}

} // namespace

TEST(ForkPreExecute, FillsEveryDomainStateCell)
{
    gpu::GpuChip chip(smallGpu(), mixedApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);

    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);

    ASSERT_EQ(est.domainInstr.size(), 2u);
    for (const auto &row : est.domainInstr) {
        ASSERT_EQ(row.size(), table.numStates());
        for (double v : row)
            EXPECT_GT(v, 0.0);
    }
}

TEST(ForkPreExecute, LeavesOriginalUntouched)
{
    gpu::GpuChip chip(smallGpu(), mixedApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);
    const auto committed_before = chip.totalCommitted();
    const Tick now_before = chip.now();

    const dvfs::DomainMap domains(2, 1);
    forkPreExecuteSweep(chip, domains, power::VfTable::paperTable(),
                        tickUs);
    EXPECT_EQ(chip.totalCommitted(), committed_before);
    EXPECT_EQ(chip.now(), now_before);
}

TEST(ForkPreExecute, ComputeBoundInstrGrowsWithFrequency)
{
    gpu::GpuChip chip(smallGpu(), computeApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);

    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);
    const auto fit = domainSensitivity(est, table, 0);
    EXPECT_GT(fit.sensitivity, 0.0);
    EXPECT_GT(fit.r2, 0.9); // near-linear for pure compute
    // 1 instr per cycle upper bound: sensitivity approx cycles/GHz.
    EXPECT_GT(est.domainInstr[0][9], est.domainInstr[0][0]);
}

TEST(ForkPreExecute, WaveLevelSensitivitiesRegressed)
{
    gpu::GpuChip chip(smallGpu(), computeApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);

    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);
    ASSERT_FALSE(est.waves.empty());
    double positive = 0;
    for (const auto &w : est.waves) {
        EXPECT_LT(w.cu, 2u);
        if (w.sensitivity > 0.0)
            ++positive;
    }
    // Most waves of a compute kernel are frequency sensitive.
    EXPECT_GT(positive / static_cast<double>(est.waves.size()), 0.6);
}

TEST(ForkPreExecute, WaveLevelCanBeDisabled)
{
    gpu::GpuChip chip(smallGpu(), computeApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);
    const dvfs::DomainMap domains(2, 1);
    SweepOptions opts;
    opts.waveLevel = false;
    const auto est = forkPreExecuteSweep(
        chip, domains, power::VfTable::paperTable(), tickUs, opts);
    EXPECT_TRUE(est.waves.empty());
    EXPECT_FALSE(est.empty());
}

TEST(ForkPreExecute, ShuffleOffStillFillsMatrix)
{
    gpu::GpuChip chip(smallGpu(), mixedApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);
    const dvfs::DomainMap domains(2, 1);
    SweepOptions opts;
    opts.shuffle = false;
    const auto est = forkPreExecuteSweep(
        chip, domains, power::VfTable::paperTable(), tickUs, opts);
    for (const auto &row : est.domainInstr)
        for (double v : row)
            EXPECT_GT(v, 0.0);
}

TEST(ForkPreExecute, SamplingAccuracyIsHigh)
{
    // The paper reports 97.6% agreement between sampled and
    // re-executed performance. Validate the same way: predict the
    // epoch's instructions at the current frequency from the sweep,
    // then actually run the epoch and compare.
    gpu::GpuChip chip(smallGpu(), mixedApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);

    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);

    const int nominal = table.indexOf(1'700 * freqMHz);
    ASSERT_GE(nominal, 0);

    gpu::GpuChip real = chip;
    real.runUntil(chip.now() + tickUs);
    const auto rec = real.harvestEpoch(chip.now());

    for (std::uint32_t d = 0; d < 2; ++d) {
        const double predicted =
            est.domainInstr[d][static_cast<std::size_t>(nominal)];
        const double actual =
            static_cast<double>(rec.cus[d].committed);
        ASSERT_GT(actual, 0.0);
        EXPECT_NEAR(predicted / actual, 1.0, 0.10);
    }
}

TEST(OracleControllers, RequireTheirEstimates)
{
    OracleController oracle;
    EXPECT_EQ(oracle.sweepNeed(), dvfs::SweepNeed::Upcoming);
    AccurateReactiveController accreac;
    EXPECT_EQ(accreac.sweepNeed(), dvfs::SweepNeed::Elapsed);
    EXPECT_EQ(oracle.name(), "ORACLE");
    EXPECT_EQ(accreac.name(), "ACCREAC");
}

TEST(OracleControllers, DecideFromAccuratePicksSensibleStates)
{
    const power::VfTable table = power::VfTable::paperTable();
    gpu::GpuConfig scaled_gpu;
    power::PowerParams scaled_power;
    sim::scaleToCus(scaled_gpu, scaled_power, 2);
    const power::PowerModel pm(scaled_power);
    const dvfs::DomainMap domains(2, 1);

    gpu::EpochRecord record;
    record.cus.resize(2);
    record.cus[0].committed = 1000;
    record.cus[0].freq = 1'700 * freqMHz;
    record.cus[1].committed = 1000;
    record.cus[1].freq = 1'700 * freqMHz;
    std::vector<gpu::WaveSnapshot> snaps;

    dvfs::AccurateEstimates est;
    est.domainInstr.resize(2);
    for (std::size_t s = 0; s < table.numStates(); ++s) {
        // Domain 0 compute-bound, domain 1 memory-bound.
        est.domainInstr[0].push_back(
            1000.0 * freqGHzD(table.state(s).freq) / 1.7);
        est.domainInstr[1].push_back(600.0 + s);
    }

    const dvfs::StateCosts costs(table, pm, tickUs, 45.0);
    dvfs::EpochContext ctx{record, snaps, domains, table, pm, tickUs,
                           45.0, dvfs::Objective::Ed2p, 0.05, 4,
                           &est, &est};
    ctx.stateCosts = &costs;
    const auto decisions = dvfs::decideDomains(ctx, est.domainInstr);
    ASSERT_EQ(decisions.size(), 2u);
    EXPECT_GT(decisions[0].state, decisions[1].state);
    EXPECT_LE(decisions[1].state, 2u);
}

TEST(ForkPreExecute, WaveLevelIncludesLevelIntercept)
{
    gpu::GpuChip chip(smallGpu(), mixedApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);
    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);
    ASSERT_FALSE(est.waves.empty());
    // Level = regression intercept, clamped non-negative; for a
    // mixed workload some waves must carry a positive floor.
    bool any_positive_level = false;
    for (const auto &w : est.waves) {
        EXPECT_GE(w.level, 0.0);
        any_positive_level |= w.level > 0.0;
    }
    EXPECT_TRUE(any_positive_level);
}

TEST(ForkPreExecute, DomainSensitivityFitExposesIntercept)
{
    gpu::GpuChip chip(smallGpu(), computeApp());
    chip.runUntil(tickUs);
    chip.harvestEpoch(0);
    const dvfs::DomainMap domains(2, 1);
    const power::VfTable table = power::VfTable::paperTable();
    const auto est = forkPreExecuteSweep(chip, domains, table, tickUs);
    const auto fit = domainSensitivity(est, table, 0);
    // Pure compute: the I(f) line passes near the origin, so the
    // predicted value at 1.7 GHz is close to slope * 1.7.
    const double at_nominal = fit.intercept + fit.sensitivity * 1.7;
    EXPECT_NEAR(at_nominal, est.domainInstr[0][4],
                0.1 * est.domainInstr[0][4]);
}

/**
 * The (cu, slot) k-way merge must reproduce the sorted reduction bit
 * for bit, including pairs whose samples started at different PCs (a
 * slot refilled from another launch) and pairs some samples never
 * observed. Random lists over 4 CUs x 8 slots: a third of the pairs
 * mix three start PCs across samples.
 */
TEST(ForkPreExecute, WaveFitMergeMatchesSortedReduction)
{
    const std::size_t num_samples = 10;
    std::size_t mixed_pairs = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        std::vector<std::vector<WaveSample>> samples(num_samples);
        for (std::uint32_t cu = 0; cu < 4; ++cu) {
            for (std::uint32_t slot = 0; slot < 8; ++slot) {
                const bool mixed = rng.below(3) == 0;
                mixed_pairs += mixed ? 1 : 0;
                const std::uint64_t pc = 0x100 + 0x40 * rng.below(3);
                for (std::size_t k = 0; k < num_samples; ++k) {
                    if (rng.below(5) == 0)
                        continue; // this sample never saw the pair
                    WaveSample w;
                    w.cu = cu;
                    w.slot = slot;
                    w.startPcAddr =
                        mixed ? 0x100 + 0x40 * rng.below(3) : pc;
                    w.ageRank = static_cast<std::uint32_t>(rng.below(40));
                    w.freqGHz = 0.8 + 0.1 * static_cast<double>(k);
                    w.instr = static_cast<double>(100 + rng.below(900));
                    samples[k].push_back(w);
                }
            }
        }

        SnapshotPool pool;
        std::vector<dvfs::AccurateEstimates::WaveSens> merged;
        reduceWaveFits(samples, pool.scratch(), merged);
        const auto expected = sortedReduction(samples);
        ASSERT_EQ(merged.size(), expected.size());
        for (std::size_t i = 0; i < merged.size(); ++i) {
            EXPECT_EQ(merged[i].cu, expected[i].cu);
            EXPECT_EQ(merged[i].slot, expected[i].slot);
            EXPECT_EQ(merged[i].startPcAddr, expected[i].startPcAddr);
            EXPECT_EQ(merged[i].sensitivity, expected[i].sensitivity);
            EXPECT_EQ(merged[i].level, expected[i].level);
            EXPECT_EQ(merged[i].ageRank, expected[i].ageRank);
        }
    }
    EXPECT_GT(mixed_pairs, 100u);
}
