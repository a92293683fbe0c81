/** @file Unit tests for src/dvfs: domains, objectives, controllers. */

#include <gtest/gtest.h>

#include "expect_fatal.hh"

#include "dvfs/controller.hh"
#include "dvfs/domain_map.hh"
#include "dvfs/hierarchical.hh"
#include "dvfs/objective.hh"

using namespace pcstall;
using namespace pcstall::dvfs;

TEST(DomainMap, PerCuDomains)
{
    const DomainMap m(64, 1);
    EXPECT_EQ(m.numDomains(), 64u);
    EXPECT_EQ(m.domainOf(17), 17u);
    EXPECT_EQ(m.firstCu(17), 17u);
}

TEST(DomainMap, GroupedDomains)
{
    const DomainMap m(64, 8);
    EXPECT_EQ(m.numDomains(), 8u);
    EXPECT_EQ(m.domainOf(0), 0u);
    EXPECT_EQ(m.domainOf(7), 0u);
    EXPECT_EQ(m.domainOf(8), 1u);
    EXPECT_EQ(m.firstCu(1), 8u);
}

TEST(DomainMapDeath, RejectsUnevenSplit)
{
    EXPECT_FATAL(DomainMap(64, 7), "divide evenly");
}

namespace
{

/** Compute-bound prediction: instructions scale ~linearly with f. */
std::vector<double>
computeBoundInstr(const power::VfTable &t)
{
    std::vector<double> v;
    for (std::size_t s = 0; s < t.numStates(); ++s)
        v.push_back(1000.0 * freqGHzD(t.state(s).freq) / 1.7);
    return v;
}

/** Memory-bound prediction: instructions barely move with f. */
std::vector<double>
memoryBoundInstr(const power::VfTable &t)
{
    std::vector<double> v;
    for (std::size_t s = 0; s < t.numStates(); ++s)
        v.push_back(500.0 + 2.0 * static_cast<double>(s));
    return v;
}

DomainScoreInputs
inputsFor(const std::vector<double> &instr)
{
    DomainScoreInputs in;
    in.instrAtState = instr;
    in.baselineInstr = instr[4];
    in.baselineActivity.l1Hits = 200;
    in.baselineActivity.l1Misses = 50;
    in.baselineActivity.l2Hits = 30;
    in.baselineActivity.l2Misses = 20;
    in.epochLen = tickUs;
    in.nominalState = 4;
    return in;
}

} // namespace

TEST(Objective, MemoryBoundPicksLowFrequency)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    const auto instr = memoryBoundInstr(t);
    const std::size_t edp = chooseState(t, pm, inputsFor(instr),
                                        Objective::Edp);
    const std::size_t ed2p = chooseState(t, pm, inputsFor(instr),
                                         Objective::Ed2p);
    EXPECT_LE(edp, 2u);
    EXPECT_LE(ed2p, 3u);
}

TEST(Objective, ComputeBoundPicksHigherFrequencyForEd2p)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    const auto instr = computeBoundInstr(t);
    const std::size_t ed2p = chooseState(t, pm, inputsFor(instr),
                                         Objective::Ed2p);
    const std::size_t edp = chooseState(t, pm, inputsFor(instr),
                                        Objective::Edp);
    EXPECT_GE(ed2p, 5u);
    // EDP weighs energy more -> never above the ED2P choice.
    EXPECT_LE(edp, ed2p);
}

TEST(Objective, Ed3pAtLeastAsAggressiveAsEd2p)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    const auto instr = computeBoundInstr(t);
    const std::size_t ed2p = chooseState(t, pm, inputsFor(instr),
                                         Objective::Ed2p);
    const std::size_t ed3p = chooseState(t, pm, inputsFor(instr),
                                         Objective::Ed3p);
    EXPECT_GE(ed3p, ed2p);
}

TEST(Objective, IdleDomainParksAtLowestState)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    std::vector<double> zeros(t.numStates(), 0.0);
    DomainScoreInputs in = inputsFor(zeros);
    in.baselineInstr = 0.0;
    EXPECT_EQ(chooseState(t, pm, in, Objective::Ed2p), 0u);
}

TEST(Objective, PerfBoundRespectsDegradationLimit)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    const auto instr = computeBoundInstr(t);

    DomainScoreInputs strict = inputsFor(instr);
    strict.perfDegradationLimit = 0.0;
    const std::size_t s0 = chooseState(t, pm, strict,
                                       Objective::EnergyUnderPerfBound);
    // With zero slack, cannot go below nominal throughput.
    EXPECT_GE(instr[s0], instr[4]);

    DomainScoreInputs loose = inputsFor(instr);
    loose.perfDegradationLimit = 0.10;
    const std::size_t s10 = chooseState(t, pm, loose,
                                        Objective::EnergyUnderPerfBound);
    EXPECT_LE(s10, s0);
    EXPECT_GE(instr[s10], instr[4] * 0.9 - 1e-9);
}

TEST(Objective, PerfBoundMemoryBoundDropsToBottom)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    const auto instr = memoryBoundInstr(t);
    DomainScoreInputs in = inputsFor(instr);
    in.perfDegradationLimit = 0.05;
    const std::size_t s = chooseState(t, pm, in,
                                      Objective::EnergyUnderPerfBound);
    EXPECT_LE(s, 1u);
}

TEST(Objective, DomainEnergyMonotoneInState)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    // With *flat* instruction counts, raising f strictly raises energy.
    std::vector<double> flat(t.numStates(), 800.0);
    const DomainScoreInputs in = inputsFor(flat);
    double prev = 0.0;
    for (std::size_t s = 0; s < t.numStates(); ++s) {
        const double e = domainEpochEnergy(t, pm, in, s);
        EXPECT_GT(e, prev);
        prev = e;
    }
}

TEST(Objective, Names)
{
    EXPECT_STREQ(objectiveName(Objective::Edp), "EDP");
    EXPECT_STREQ(objectiveName(Objective::Ed2p), "ED2P");
    EXPECT_STREQ(objectiveName(Objective::EnergyUnderPerfBound),
                 "Energy@PerfBound");
}

TEST(StaticController, AlwaysReturnsItsState)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    const DomainMap domains(4, 1);
    gpu::EpochRecord record;
    record.cus.resize(4);
    std::vector<gpu::WaveSnapshot> snaps;
    EpochContext ctx{record, snaps, domains, t, pm, tickUs, 45.0,
                     Objective::Ed2p, 0.05, 4, nullptr, nullptr};
    StaticController c(7);
    const auto decisions = c.decide(ctx);
    ASSERT_EQ(decisions.size(), 4u);
    for (const auto &d : decisions) {
        EXPECT_EQ(d.state, 7u);
        EXPECT_LT(d.predictedInstr, 0.0); // no prediction claimed
    }
}

TEST(Objective, StaticShareRaisesChosenState)
{
    // A frequency-independent power floor makes finishing work faster
    // worthwhile: with a large static share the optimum moves up.
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    // Mildly sensitive workload.
    std::vector<double> instr;
    for (std::size_t s = 0; s < t.numStates(); ++s)
        instr.push_back(1000.0 + 150.0 * static_cast<double>(s) / 9.0);

    DomainScoreInputs without = inputsFor(instr);
    without.staticShare = 0.0;
    DomainScoreInputs with = inputsFor(instr);
    with.staticShare = 10.0; // 10 W riding on this domain's clock
    EXPECT_GE(chooseState(t, pm, with, Objective::Ed2p),
              chooseState(t, pm, without, Objective::Ed2p));
}

TEST(Objective, DomainEnergyScalesActivityWithThroughput)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    // Compute-bound: twice the instructions at the top state implies
    // roughly twice the attributed memory-side dynamic energy.
    std::vector<double> flat(t.numStates(), 1000.0);
    std::vector<double> doubled(t.numStates(), 2000.0);
    DomainScoreInputs a = inputsFor(flat);
    DomainScoreInputs b = inputsFor(doubled);
    b.baselineInstr = a.baselineInstr; // same measured baseline
    const double ea = domainEpochEnergy(t, pm, a, 9);
    const double eb = domainEpochEnergy(t, pm, b, 9);
    EXPECT_GT(eb, ea);
}

TEST(Hierarchical, ConfigValidation)
{
    StaticController inner(4);
    HierarchicalConfig bad;
    bad.powerCap = 0.0;
    EXPECT_FATAL(HierarchicalPowerManager(inner, bad), "power cap");
}

TEST(Hierarchical, ClampsDecisionsToCeiling)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    const DomainMap domains(2, 1);

    // A hot elapsed epoch so the manager narrows after review.
    gpu::EpochRecord record;
    record.start = 0;
    record.end = tickUs;
    record.cus.resize(2);
    for (auto &cu : record.cus) {
        cu.committed = 8000;
        cu.freq = 2'200 * freqMHz;
        cu.mem.l1Hits = 2000;
        cu.mem.l1Misses = 500;
        cu.mem.l2Misses = 400;
    }
    std::vector<gpu::WaveSnapshot> snaps;
    EpochContext ctx{record, snaps, domains, t, pm, tickUs, 45.0,
                     Objective::Ed2p, 0.05, 4, nullptr, nullptr};

    StaticController inner(9); // always wants the top state
    HierarchicalConfig cfg;
    cfg.powerCap = 1.0; // absurdly low: must narrow every review
    cfg.reviewEpochs = 1;
    HierarchicalPowerManager mgr(inner, cfg);

    // Each decide() reviews once and lowers the ceiling by one.
    for (int i = 0; i < 4; ++i)
        mgr.decide(ctx);
    EXPECT_LE(mgr.ceilingState(), 5u);
    const auto decisions = mgr.decide(ctx);
    for (const auto &d : decisions)
        EXPECT_LE(d.state, mgr.ceilingState());
    EXPECT_GT(mgr.lastWindowPower(), cfg.powerCap);
}

TEST(Hierarchical, WidensUnderGenerousCap)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    const DomainMap domains(1, 1);
    gpu::EpochRecord record;
    record.start = 0;
    record.end = tickUs;
    record.cus.resize(1);
    record.cus[0].committed = 10;
    record.cus[0].freq = 1'300 * freqMHz;
    std::vector<gpu::WaveSnapshot> snaps;
    EpochContext ctx{record, snaps, domains, t, pm, tickUs, 45.0,
                     Objective::Ed2p, 0.05, 4, nullptr, nullptr};

    StaticController inner(9);
    HierarchicalConfig cfg;
    cfg.powerCap = 100000.0; // never binding
    cfg.reviewEpochs = 1;
    HierarchicalPowerManager mgr(inner, cfg);
    for (int i = 0; i < 3; ++i) {
        const auto decisions = mgr.decide(ctx);
        EXPECT_EQ(decisions[0].state, 9u); // ceiling stays at the top
    }
}

TEST(Objective, MarginalFallsBackWhenCold)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    const auto instr = computeBoundInstr(t);
    DomainScoreInputs in = inputsFor(instr); // averages unset
    EXPECT_EQ(chooseState(t, pm, in, Objective::MarginalEd2p),
              chooseState(t, pm, in, Objective::Ed2p));
}

TEST(Objective, MarginalPricesTimeWithAveragePower)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    const auto instr = computeBoundInstr(t);

    DomainScoreInputs cheap_time = inputsFor(instr);
    cheap_time.avgChipPower = 0.5; // almost nothing rides on time
    cheap_time.avgInstr = 1000.0;
    DomainScoreInputs dear_time = inputsFor(instr);
    dear_time.avgChipPower = 60.0; // a hot chip: time is expensive
    dear_time.avgInstr = 1000.0;

    const std::size_t slow = chooseState(t, pm, cheap_time,
                                         Objective::MarginalEd2p);
    const std::size_t fast = chooseState(t, pm, dear_time,
                                         Objective::MarginalEd2p);
    EXPECT_GE(fast, slow);
    EXPECT_EQ(fast, 9u); // 60 W of average power: race to finish
}

TEST(Objective, MarginalEd2pPricesTimeTwiceEdp)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    // Mild sensitivity: the doubled time price of ED2P should never
    // pick a lower state than EDP.
    std::vector<double> instr;
    for (std::size_t s = 0; s < t.numStates(); ++s)
        instr.push_back(1000.0 + 40.0 * static_cast<double>(s));
    DomainScoreInputs in = inputsFor(instr);
    in.avgChipPower = 6.0;
    in.avgInstr = 1100.0;
    EXPECT_GE(chooseState(t, pm, in, Objective::MarginalEd2p),
              chooseState(t, pm, in, Objective::MarginalEdp));
}

TEST(Objective, ChooseStateIsTheFeasibleArgminOfScoreStates)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    for (const auto &instr : {computeBoundInstr(t), memoryBoundInstr(t)}) {
        DomainScoreInputs in = inputsFor(instr);
        in.avgChipPower = 6.0;
        in.avgInstr = 900.0;
        const double floor_instr =
            instr[in.nominalState] * (1.0 - in.perfDegradationLimit);
        for (const Objective o :
             {Objective::Edp, Objective::Ed2p, Objective::Ed3p,
              Objective::EnergyUnderPerfBound, Objective::MarginalEdp,
              Objective::MarginalEd2p}) {
            std::vector<double> scores(t.numStates());
            scoreStates(t, pm, in, o, scores);
            // Only the perf bound has infeasible states; they score a
            // finite penalty but are never chosen.
            std::size_t best = t.numStates();
            for (std::size_t s = 0; s < t.numStates(); ++s) {
                const bool feasible =
                    o != Objective::EnergyUnderPerfBound ||
                    instr[s] >= floor_instr;
                if (feasible &&
                    (best == t.numStates() || scores[s] < scores[best])) {
                    best = s;
                }
            }
            EXPECT_EQ(chooseState(t, pm, in, o), best)
                << objectiveName(o);
        }
        // No state can meet an impossible bound: keep nominal.
        in.perfDegradationLimit = -1.0;
        EXPECT_EQ(chooseState(t, pm, in, Objective::EnergyUnderPerfBound),
                  in.nominalState);
    }
}

TEST(Objective, MarginalNames)
{
    EXPECT_STREQ(objectiveName(Objective::MarginalEdp),
                 "EDP(marginal)");
    EXPECT_STREQ(objectiveName(Objective::MarginalEd2p),
                 "ED2P(marginal)");
}
