/** @file Unit tests for src/models: estimation models & estimators. */

#include <gtest/gtest.h>

#include "models/estimation.hh"
#include "models/history_controller.hh"
#include "models/wave_estimator.hh"

using namespace pcstall;
using namespace pcstall::models;

namespace
{

gpu::CuEpochRecord
recordWith(Tick load_stall, Tick lead, Tick mem_interval, Tick overlap,
           Tick store_stall, std::uint64_t committed = 1000,
           Freq freq = 1'700 * freqMHz)
{
    gpu::CuEpochRecord r;
    r.loadStall = load_stall;
    r.leadLoad = lead;
    r.memInterval = mem_interval;
    r.overlap = overlap;
    r.storeStall = store_stall;
    r.committed = committed;
    r.freq = freq;
    return r;
}

} // namespace

TEST(Estimation, AsyncTimePerModel)
{
    const auto r = recordWith(100, 200, 600, 300, 50);
    EXPECT_EQ(cuAsyncTime(EstimationKind::Stall, r, tickUs), 100);
    EXPECT_EQ(cuAsyncTime(EstimationKind::Lead, r, tickUs), 200);
    EXPECT_EQ(cuAsyncTime(EstimationKind::Crit, r, tickUs), 600);
    // CRISP: memInterval - overlap + storeStall = 350, floor 150.
    EXPECT_EQ(cuAsyncTime(EstimationKind::Crisp, r, tickUs), 350);
}

TEST(Estimation, CrispFloorsAtObservedStalls)
{
    // Overlap credit larger than the interval: clamp to stall floor.
    const auto r = recordWith(400, 0, 500, 600, 100);
    EXPECT_EQ(cuAsyncTime(EstimationKind::Crisp, r, tickUs), 500);
}

TEST(Estimation, AsyncClampedToEpoch)
{
    const auto r = recordWith(0, 0, 5 * tickUs, 0, 0);
    EXPECT_EQ(cuAsyncTime(EstimationKind::Crit, r, tickUs), tickUs);
}

TEST(Estimation, FullyComputeScalesLinearly)
{
    // No async time: I(f2) = I1 * f2/f1.
    const auto r = recordWith(0, 0, 0, 0, 0, 1700);
    const double at_22 = cuInstrAt(EstimationKind::Stall, r, tickUs,
                                   2'200 * freqMHz);
    EXPECT_NEAR(at_22, 1700.0 * 2.2 / 1.7, 1.0);
    const double at_13 = cuInstrAt(EstimationKind::Stall, r, tickUs,
                                   1'300 * freqMHz);
    EXPECT_NEAR(at_13, 1700.0 * 1.3 / 1.7, 1.0);
}

TEST(Estimation, FullyMemoryBoundIsFlat)
{
    const auto r = recordWith(tickUs, 0, tickUs, 0, 0, 500);
    const double at_22 = cuInstrAt(EstimationKind::Stall, r, tickUs,
                                   2'200 * freqMHz);
    EXPECT_NEAR(at_22, 500.0, 1e-6);
}

TEST(Estimation, SameFrequencyIsIdentity)
{
    const auto r = recordWith(300, 100, 400, 100, 20, 1234);
    for (const auto kind : {EstimationKind::Stall, EstimationKind::Lead,
                            EstimationKind::Crit,
                            EstimationKind::Crisp}) {
        EXPECT_NEAR(cuInstrAt(kind, r, tickUs, 1'700 * freqMHz), 1234.0,
                    1e-9);
    }
}

TEST(Estimation, MonotoneInFrequency)
{
    const auto r = recordWith(300, 100, 400, 100, 20, 1000);
    double prev = 0.0;
    for (int mhz = 1300; mhz <= 2200; mhz += 100) {
        const double v = cuInstrAt(EstimationKind::Crisp, r, tickUs,
                                   static_cast<Freq>(mhz) * freqMHz);
        EXPECT_GT(v, prev);
        prev = v;
    }
}

TEST(Estimation, ZeroCommittedPredictsZero)
{
    const auto r = recordWith(0, 0, 0, 0, 0, 0);
    EXPECT_DOUBLE_EQ(cuInstrAt(EstimationKind::Stall, r, tickUs,
                               2'200 * freqMHz), 0.0);
}

TEST(Estimation, Names)
{
    EXPECT_STREQ(estimationKindName(EstimationKind::Stall), "STALL");
    EXPECT_STREQ(estimationKindName(EstimationKind::Crisp), "CRISP");
}

namespace
{

gpu::WaveEpochRecord
waveWith(std::uint64_t committed, Tick stall, std::uint32_t age = 0)
{
    gpu::WaveEpochRecord w;
    w.committed = committed;
    w.memStall = stall;
    w.ageRank = age;
    w.active = true;
    return w;
}

} // namespace

TEST(WaveEstimator, SensitivityMatchesStallModelDerivative)
{
    // S = I * T_core / (T * f_GHz): 100 instr, half the epoch stalled
    // at 2.0 GHz -> 100 * 0.5 / 2.0 = 25 instr/GHz.
    WaveEstimatorConfig cfg;
    cfg.normalizeAge = false;
    const double s = waveSensitivity(waveWith(100, tickUs / 2), cfg,
                                     tickUs, 2'000 * freqMHz);
    EXPECT_NEAR(s, 25.0, 1e-9);
}

TEST(WaveEstimator, FullyStalledWaveHasZeroSensitivity)
{
    WaveEstimatorConfig cfg;
    const double s = waveSensitivity(waveWith(10, tickUs), cfg, tickUs,
                                     1'700 * freqMHz);
    EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(WaveEstimator, BarrierTimeCountsAsAsync)
{
    WaveEstimatorConfig cfg;
    gpu::WaveEpochRecord w = waveWith(100, 0);
    w.barrierStall = tickUs / 2;
    const double with_barrier = waveSensitivity(w, cfg, tickUs,
                                                2'000 * freqMHz);
    cfg.barrierWeight = 0.0;
    const double without = waveSensitivity(w, cfg, tickUs,
                                           2'000 * freqMHz);
    EXPECT_LT(with_barrier, without);
}

TEST(WaveEstimator, ContentionFactorDecreasesWithAge)
{
    WaveEstimatorConfig cfg;
    EXPECT_DOUBLE_EQ(contentionFactor(cfg, 0), 1.0);
    EXPECT_LT(contentionFactor(cfg, 39), 1.0);
    EXPECT_GT(contentionFactor(cfg, 10), contentionFactor(cfg, 30));
    // Clamped at the bottom and saturating beyond the slot count.
    EXPECT_DOUBLE_EQ(contentionFactor(cfg, 39),
                     contentionFactor(cfg, 100));
}

TEST(WaveEstimator, NormalizationDisabled)
{
    WaveEstimatorConfig cfg;
    cfg.normalizeAge = false;
    EXPECT_DOUBLE_EQ(contentionFactor(cfg, 35), 1.0);
}

TEST(WaveEstimator, NormalizedBoostsYoungWaves)
{
    WaveEstimatorConfig cfg;
    const auto young = waveWith(100, 0, 35);
    const auto old = waveWith(100, 0, 0);
    const double sn_young = normalizedWaveSensitivity(young, cfg, tickUs,
                                                      2'000 * freqMHz);
    const double sn_old = normalizedWaveSensitivity(old, cfg, tickUs,
                                                    2'000 * freqMHz);
    // Same observed throughput while suffering more contention =>
    // higher intrinsic sensitivity.
    EXPECT_GT(sn_young, sn_old);
}

/** Property sweep: sensitivity is monotone in core-time fraction. */
class WaveSensitivitySweep
    : public ::testing::TestWithParam<int>
{};

TEST_P(WaveSensitivitySweep, MonotoneInCoreTime)
{
    WaveEstimatorConfig cfg;
    const int pct = GetParam();
    const Tick stall_more = tickUs * pct / 100;
    const Tick stall_less = tickUs * std::max(pct - 10, 0) / 100;
    const double s_more = waveSensitivity(waveWith(100, stall_more), cfg,
                                          tickUs, 1'700 * freqMHz);
    const double s_less = waveSensitivity(waveWith(100, stall_less), cfg,
                                          tickUs, 1'700 * freqMHz);
    EXPECT_LE(s_more, s_less);
}

INSTANTIATE_TEST_SUITE_P(StallFractions, WaveSensitivitySweep,
                         ::testing::Values(10, 30, 50, 70, 90, 100));

TEST(WaveEstimator, LevelPlusSlopeReconstructsCommitted)
{
    // I(f1) = I0 + S * f1 exactly (the linearization is anchored at
    // the measured point).
    WaveEstimatorConfig cfg;
    const auto w = waveWith(140, tickUs / 3);
    const Freq f1 = 1'800 * freqMHz;
    const double s = waveSensitivity(w, cfg, tickUs, f1);
    const WavePhase phase = wavePhase(w, cfg, tickUs, f1);
    EXPECT_EQ(phase.sens, s);
    EXPECT_NEAR(phase.level + s * freqGHzD(f1), 140.0, 1e-9);
}

TEST(WaveEstimator, FullyComputeLevelIsZero)
{
    WaveEstimatorConfig cfg;
    const auto w = waveWith(200, 0);
    EXPECT_NEAR(wavePhase(w, cfg, tickUs, 2'000 * freqMHz).level, 0.0,
                1e-9);
}

TEST(WaveEstimator, FullyStalledLevelEqualsCommitted)
{
    WaveEstimatorConfig cfg;
    const auto w = waveWith(50, tickUs);
    EXPECT_NEAR(wavePhase(w, cfg, tickUs, 2'000 * freqMHz).level, 50.0,
                1e-9);
}

TEST(WaveEstimator, LevelNeverNegative)
{
    WaveEstimatorConfig cfg;
    for (int stall_pct : {0, 20, 50, 90, 100}) {
        const auto w = waveWith(123, tickUs * stall_pct / 100);
        EXPECT_GE(wavePhase(w, cfg, tickUs, 1'300 * freqMHz).level, 0.0);
    }
}

TEST(HistoryController, PredictsRepeatingPattern)
{
    // Alternate two distinct phases; after warm-up the GPHT should
    // hit its pattern table and predict the *other* phase.
    const power::VfTable table = power::VfTable::paperTable();
    const power::PowerModel pm;
    const dvfs::DomainMap domains(1, 1);

    auto make_record = [&](bool compute) {
        gpu::EpochRecord rec;
        rec.start = 0;
        rec.end = tickUs;
        rec.cus.resize(1);
        rec.cus[0].committed = compute ? 4000 : 600;
        rec.cus[0].freq = 1'700 * freqMHz;
        gpu::WaveEpochRecord w;
        w.cu = 0;
        w.slot = 0;
        w.committed = compute ? 4000 : 600;
        w.memStall = compute ? 0 : tickUs * 9 / 10;
        w.active = true;
        rec.waves.push_back(w);
        return rec;
    };

    HistoryConfig cfg;
    cfg.historyLength = 2;
    HistoryController c(cfg, 1);
    std::vector<gpu::WaveSnapshot> snaps;
    const dvfs::StateCosts costs(table, pm, tickUs, 45.0);

    // Drive A,B,A,B,... for several rounds.
    std::vector<dvfs::DomainDecision> last;
    for (int i = 0; i < 20; ++i) {
        const auto rec = make_record(i % 2 == 0);
        dvfs::EpochContext ctx{rec, snaps, domains, table, pm, tickUs,
                               45.0, dvfs::Objective::Ed2p, 0.05, 4,
                               nullptr, nullptr};
        ctx.stateCosts = &costs;
        last = c.decide(ctx);
    }
    EXPECT_GT(c.tableHitRatio(), 0.5);
    // After a compute epoch (i=19 ended with memory? i even = compute;
    // last processed i=19 -> memory elapsed), the pattern predicts a
    // compute phase next: the chosen state should be high.
    EXPECT_GE(last[0].state, 5u);
}

TEST(HistoryController, FallsBackToLastValueWhenCold)
{
    const power::VfTable table = power::VfTable::paperTable();
    const power::PowerModel pm;
    const dvfs::DomainMap domains(1, 1);
    gpu::EpochRecord rec;
    rec.start = 0;
    rec.end = tickUs;
    rec.cus.resize(1);
    rec.cus[0].committed = 500;
    rec.cus[0].freq = 1'700 * freqMHz;
    gpu::WaveEpochRecord w;
    w.cu = 0;
    w.committed = 500;
    w.memStall = tickUs;
    w.active = true;
    rec.waves.push_back(w);
    std::vector<gpu::WaveSnapshot> snaps;
    const dvfs::StateCosts costs(table, pm, tickUs, 45.0);
    dvfs::EpochContext ctx{rec, snaps, domains, table, pm, tickUs,
                           45.0, dvfs::Objective::Ed2p, 0.05, 4,
                           nullptr, nullptr};
    ctx.stateCosts = &costs;
    HistoryController c(HistoryConfig{}, 1);
    const auto d = c.decide(ctx);
    ASSERT_EQ(d.size(), 1u);
    // Memory phase, cold table: parks low via the last-value model.
    EXPECT_LE(d[0].state, 2u);
}
