/** @file Unit tests for src/power: V/f table, power & thermal models. */

#include <gtest/gtest.h>

#include "power/power_model.hh"
#include "power/vf_table.hh"

using namespace pcstall;
using namespace pcstall::power;

TEST(VfTable, PaperTableHasTenStates)
{
    const VfTable t = VfTable::paperTable();
    ASSERT_EQ(t.numStates(), 10u);
    EXPECT_EQ(t.lowest().freq, 1'300 * freqMHz);
    EXPECT_EQ(t.highest().freq, 2'200 * freqMHz);
    for (std::size_t i = 1; i < t.numStates(); ++i) {
        EXPECT_EQ(t.state(i).freq - t.state(i - 1).freq, 100 * freqMHz);
        EXPECT_GT(t.state(i).voltage, t.state(i - 1).voltage);
    }
}

TEST(VfTable, VoltageCurveIsSuperlinear)
{
    const VfTable t = VfTable::paperTable();
    // Voltage steps grow toward the top of the range.
    const double low_step = t.state(1).voltage - t.state(0).voltage;
    const double high_step =
        t.state(9).voltage - t.state(8).voltage;
    EXPECT_GT(high_step, low_step);
}

TEST(VfTable, IndexLookups)
{
    const VfTable t = VfTable::paperTable();
    EXPECT_EQ(t.indexOf(1'700 * freqMHz), 4);
    EXPECT_EQ(t.indexOf(999 * freqMHz), -1);
    EXPECT_EQ(t.nearestIndex(1'740 * freqMHz), 4u);
    EXPECT_EQ(t.nearestIndex(10 * freqMHz), 0u);
    EXPECT_EQ(t.nearestIndex(9'999 * freqMHz), 9u);
}

TEST(VfTable, VoltageInterpolation)
{
    const VfTable t = VfTable::paperTable();
    const Volts mid = t.voltageAt(1'350 * freqMHz);
    EXPECT_GT(mid, t.state(0).voltage);
    EXPECT_LT(mid, t.state(1).voltage);
    EXPECT_DOUBLE_EQ(t.voltageAt(500 * freqMHz), t.state(0).voltage);
    EXPECT_DOUBLE_EQ(t.voltageAt(9'000 * freqMHz), t.state(9).voltage);
}

TEST(VfTable, WideTableCoversFigure5Range)
{
    const VfTable t = VfTable::wideTable();
    EXPECT_EQ(t.lowest().freq, 1'000 * freqMHz);
    EXPECT_EQ(t.highest().freq, 3'000 * freqMHz);
}

namespace
{

memory::MemActivity
someActivity()
{
    memory::MemActivity a;
    a.l1Hits = 500;
    a.l1Misses = 100;
    a.l2Hits = 60;
    a.l2Misses = 40;
    a.stores = 80;
    return a;
}

} // namespace

TEST(PowerModel, EnergyGrowsWithVoltageAndFrequency)
{
    const PowerModel pm;
    const VfTable t = VfTable::paperTable();
    const auto low = pm.cuEpochEnergy(t.state(0).voltage, t.state(0).freq,
                                      1000, someActivity(), tickUs,
                                      pm.leakageFactor(45.0));
    const auto high = pm.cuEpochEnergy(t.state(9).voltage,
                                       t.state(9).freq, 1000,
                                       someActivity(), tickUs,
                                       pm.leakageFactor(45.0));
    EXPECT_GT(high.total(), low.total());
    EXPECT_GT(high.dynamic, low.dynamic);
}

TEST(PowerModel, EnergyGrowsWithWork)
{
    const PowerModel pm;
    const VfTable t = VfTable::paperTable();
    const auto idle = pm.cuEpochEnergy(t.state(4).voltage,
                                       t.state(4).freq, 0,
                                       memory::MemActivity{}, tickUs,
                                       pm.leakageFactor(45.0));
    const auto busy = pm.cuEpochEnergy(t.state(4).voltage,
                                       t.state(4).freq, 2000,
                                       someActivity(), tickUs,
                                       pm.leakageFactor(45.0));
    EXPECT_GT(busy.dynamic, idle.dynamic);
    EXPECT_DOUBLE_EQ(busy.leakage, idle.leakage);
}

TEST(PowerModel, LeakageRisesWithTemperature)
{
    const PowerModel pm;
    EXPECT_GT(pm.cuLeakage(0.9, 85.0), pm.cuLeakage(0.9, 45.0));
    EXPECT_GT(pm.cuLeakage(1.1, 45.0), pm.cuLeakage(0.7, 45.0));
}

TEST(PowerModel, IvrEfficiencyPeaksNearOptimum)
{
    const PowerModel pm;
    const double at_opt = pm.ivrEfficiency(pm.params().etaVopt);
    EXPECT_GT(at_opt, pm.ivrEfficiency(0.70));
    EXPECT_GT(at_opt, pm.ivrEfficiency(1.10));
    EXPECT_LE(at_opt, 0.98);
    EXPECT_GE(pm.ivrEfficiency(0.0), 0.5);
}

TEST(PowerModel, IvrLossIsPositive)
{
    const PowerModel pm;
    const auto e = pm.cuEpochEnergy(0.9, 1'700 * freqMHz, 1000,
                                    someActivity(), tickUs,
                                    pm.leakageFactor(45.0));
    EXPECT_GT(e.ivrLoss, 0.0);
}

TEST(PowerModel, MemEnergyScalesWithTraffic)
{
    const PowerModel pm;
    const Joules idle = pm.memEpochEnergy(memory::MemActivity{}, tickUs);
    const Joules busy = pm.memEpochEnergy(someActivity(), tickUs);
    EXPECT_GT(busy, idle);
    EXPECT_GT(idle, 0.0); // static power
}

TEST(PowerModel, PlausibleChipPower)
{
    // 64 CUs at nominal, fully busy (~1.7e9 instr/s each): total chip
    // power should land in a Vega-class 100-400 W envelope.
    const PowerModel pm;
    const VfTable t = VfTable::paperTable();
    const VfState &nominal = t.state(4);
    memory::MemActivity act;
    act.l1Hits = 600;
    act.l1Misses = 60;
    act.l2Hits = 40;
    act.l2Misses = 20;
    act.stores = 50;
    const std::uint64_t instr = 1700; // per us at IPC 1
    const auto cu = pm.cuEpochEnergy(nominal.voltage, nominal.freq,
                                     instr, act, tickUs,
                                     pm.leakageFactor(55.0));
    memory::MemActivity total;
    for (int i = 0; i < 64; ++i)
        total += act;
    const Joules mem = pm.memEpochEnergy(total, tickUs);
    const Watts chip = (64.0 * cu.total() + mem) / 1e-6;
    EXPECT_GT(chip, 100.0);
    EXPECT_LT(chip, 400.0);
}

TEST(ThermalModel, ApproachesSteadyState)
{
    ThermalModel tm(45.0, 0.15, 50.0);
    // 200 W for a long time: steady state = 45 + 200*0.15 = 75 C.
    for (int i = 0; i < 100000; ++i)
        tm.update(200.0, 1e-2);
    EXPECT_NEAR(tm.temperature(), 75.0, 0.5);
}

TEST(ThermalModel, BarelyMovesAtMicrosecondScale)
{
    ThermalModel tm;
    for (int i = 0; i < 100; ++i)
        tm.update(250.0, 1e-6);
    EXPECT_NEAR(tm.temperature(), 45.0, 0.1);
}

TEST(PowerModel, TransitionEnergyProperties)
{
    const PowerModel pm;
    // No transition, no cost.
    EXPECT_DOUBLE_EQ(pm.transitionEnergy(0.9, 0.9), 0.0);
    // Symmetric in direction and growing with the voltage step.
    const Joules small = pm.transitionEnergy(0.85, 0.90);
    const Joules big = pm.transitionEnergy(0.75, 1.05);
    EXPECT_DOUBLE_EQ(small, pm.transitionEnergy(0.90, 0.85));
    EXPECT_GT(big, small);
    EXPECT_GT(small, 0.0);
    // Orders of magnitude: nanojoules, far below epoch energies.
    EXPECT_LT(big, 1e-6);
}
