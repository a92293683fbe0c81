/** @file Unit tests for src/dvfs: domains, objectives, controllers. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "expect_fatal.hh"

#include "common/rng.hh"
#include "common/stats_util.hh"
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

/** The paper table's state costs for a 1 us epoch at 45 C. */
const StateCosts &
paperCosts()
{
    static const power::VfTable table = power::VfTable::paperTable();
    static const power::PowerModel model;
    static const StateCosts costs(table, model, tickUs, 45.0);
    return costs;
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
    in.costs = &paperCosts();
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

namespace
{

/**
 * The scorer as it stood before the state-only terms were shared per
 * epoch: every (domain, state) recomputed its V/f terms, the leakage
 * exp() included, and rounded with std::llround. Kept verbatim as the
 * reference the shared-cost scorer must match bit for bit (PCPV
 * provenance sidecars record scoreStates() values).
 */
namespace reference
{

Joules
domainEpochEnergy(const power::VfTable &table,
                  const power::PowerModel &model,
                  const DomainScoreInputs &in, Tick epoch_len,
                  double temperature, std::size_t state)
{
    const power::VfState &vf = table.state(state);
    const double instr = std::max(in.instrAtState[state], 0.0);
    const double scale = in.baselineInstr > 0.0
        ? instr / in.baselineInstr : 1.0;

    memory::MemActivity scaled;
    auto scale_count = [&](std::uint64_t c) {
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(c) * scale));
    };
    scaled.l1Hits = scale_count(in.baselineActivity.l1Hits);
    scaled.l1Misses = scale_count(in.baselineActivity.l1Misses);
    scaled.l2Hits = scale_count(in.baselineActivity.l2Hits);
    scaled.l2Misses = scale_count(in.baselineActivity.l2Misses);
    scaled.stores = scale_count(in.baselineActivity.stores);
    scaled.storesCombined =
        scale_count(in.baselineActivity.storesCombined);
    const auto committed =
        static_cast<std::uint64_t>(std::llround(instr));

    // PowerModel::cuEpochEnergy() at the temperature.
    const power::PowerParams &p = model.params();
    const double v2 = vf.voltage * vf.voltage;
    const double seconds = tickSeconds(epoch_len);
    const double cycles = seconds * static_cast<double>(vf.freq);
    power::CuEnergy cu;
    const double l1_accesses = static_cast<double>(
        scaled.l1Hits + scaled.l1Misses + scaled.storesCombined);
    cu.dynamic = v2 *
        (p.eInst * static_cast<double>(committed) +
         p.eL1 * l1_accesses +
         p.cClk * cycles);
    cu.leakage = p.leakPerCu * vf.voltage *
        std::exp(p.leakTempCoeff * (temperature - p.tRef)) * seconds;
    const double delivered = cu.dynamic + cu.leakage;
    const double eta = model.ivrEfficiency(vf.voltage);
    cu.ivrLoss = delivered / eta - delivered;

    const double mem_dynamic =
        p.eL2 * static_cast<double>(
            scaled.l2Hits + scaled.l2Misses + scaled.stores -
            scaled.storesCombined) +
        p.eDram * static_cast<double>(scaled.l2Misses);

    return cu.total() + mem_dynamic +
        in.staticShare * tickSeconds(epoch_len);
}

/** Every state's score and feasibility under @p objective. */
void
scoreStates(const power::VfTable &table, const power::PowerModel &model,
            const DomainScoreInputs &in, Tick epoch_len,
            double temperature, Objective objective,
            std::vector<double> &scores, std::vector<bool> &feasible)
{
    const std::size_t n = table.numStates();
    scores.assign(n, 0.0);
    feasible.assign(n, true);
    auto energy = [&](std::size_t s) {
        return domainEpochEnergy(table, model, in, epoch_len,
                                 temperature, s);
    };
    if (objective == Objective::EnergyUnderPerfBound) {
        const double floor_instr =
            std::max(in.instrAtState[in.nominalState], 0.0) *
            (1.0 - in.perfDegradationLimit);
        for (std::size_t s = 0; s < n; ++s) {
            const double penalty = std::max(
                1.0, floor_instr / std::max(in.instrAtState[s], 1e-9));
            scores[s] = energy(s) * penalty;
            feasible[s] = in.instrAtState[s] >= floor_instr;
        }
        return;
    }
    const bool marginal =
        (objective == Objective::MarginalEdp ||
         objective == Objective::MarginalEd2p) &&
        in.avgChipPower > 0.0 && in.avgInstr > 0.0;
    if (marginal) {
        const double n_exp =
            objective == Objective::MarginalEd2p ? 2.0 : 1.0;
        const double time_price = n_exp * in.avgChipPower *
            tickSeconds(epoch_len) / in.avgInstr;
        for (std::size_t s = 0; s < n; ++s) {
            const double instr = std::max(in.instrAtState[s], 0.0);
            scores[s] = energy(s) - time_price * instr;
        }
        return;
    }
    int exponent = 2;
    if (objective == Objective::Ed2p ||
        objective == Objective::MarginalEd2p) {
        exponent = 3;
    } else if (objective == Objective::Ed3p) {
        exponent = 4;
    }
    for (std::size_t s = 0; s < n; ++s) {
        const double instr = std::max(in.instrAtState[s], 1e-9);
        scores[s] =
            energy(s) / std::pow(instr, static_cast<double>(exponent));
    }
}

std::size_t
chooseState(const power::VfTable &table, const power::PowerModel &model,
            const DomainScoreInputs &in, Tick epoch_len,
            double temperature, Objective objective)
{
    double max_instr = 0.0;
    for (double v : in.instrAtState)
        max_instr = std::max(max_instr, v);
    if (max_instr <= 0.0)
        return 0;
    std::vector<double> scores;
    std::vector<bool> feasible;
    scoreStates(table, model, in, epoch_len, temperature, objective,
                scores, feasible);
    std::size_t best = objective == Objective::EnergyUnderPerfBound
        ? in.nominalState : 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < scores.size(); ++s) {
        if (feasible[s] && scores[s] < best_score) {
            best_score = scores[s];
            best = s;
        }
    }
    return best;
}

} // namespace reference

/** A prediction drawn to cover zero, negative, tiny and large
 *  values. */
double
randomPrediction(Rng &rng)
{
    switch (rng.below(8)) {
      case 0: return 0.0;
      case 1: return -rng.uniform() * 500.0;
      case 2: return rng.uniform() * 1e-6;
      case 3: return std::floor(rng.uniform() * 4000.0) + 0.5;
      case 4: return rng.uniform() * 1e7;
      default: return rng.uniform() * 5000.0;
    }
}

std::uint64_t
randomCount(Rng &rng)
{
    return rng.chance(0.2) ? 0 : rng.below(rng.chance(0.5) ? 100 : 20000);
}

} // namespace

TEST(Objective, SharedStateCostsMatchPerStateScoringBitForBit)
{
    const Objective objectives[] = {
        Objective::Edp, Objective::Ed2p, Objective::Ed3p,
        Objective::EnergyUnderPerfBound, Objective::MarginalEdp,
        Objective::MarginalEd2p};
    const Tick epochs[] = {tickUs / 4, tickUs, 10 * tickUs, 50 * tickUs};
    const power::VfTable tables[] = {power::VfTable::paperTable(),
                                     power::VfTable::wideTable()};
    power::PowerParams hot;
    hot.leakTempCoeff = 0.05;
    hot.memStatic = 12.0;
    const power::PowerModel models[] = {power::PowerModel{},
                                        power::PowerModel{hot}};

    Rng rng(0x5C0BE5);
    std::vector<double> instr;
    std::vector<double> got;
    std::vector<double> want;
    std::vector<bool> feasible;
    std::uint64_t infeasible_bounds = 0;
    constexpr int samples = 100'000;
    for (int i = 0; i < samples; ++i) {
        const power::VfTable &table = tables[rng.below(2)];
        const power::PowerModel &model = models[rng.below(2)];
        const Tick epoch = epochs[rng.below(4)];
        // Half the draws reach their temperature the way the ledger
        // does, through setTemperature() from another one.
        const double temperature = 20.0 + rng.uniform() * 90.0;
        StateCosts costs(table, model, epoch,
                         rng.chance(0.5) ? temperature : 45.0);
        costs.setTemperature(temperature);

        const std::size_t n = table.numStates();
        instr.resize(n);
        for (double &v : instr)
            v = randomPrediction(rng);
        DomainScoreInputs in;
        in.instrAtState = instr;
        // The baseline is a domain's committed count: 0 or a whole
        // number, so every rounded product stays far inside
        // roundHalfAway()'s |x| < 2^63.
        in.baselineInstr = rng.chance(0.15)
            ? 0.0 : static_cast<double>(1 + rng.below(200000));
        in.baselineActivity.l1Hits = randomCount(rng);
        in.baselineActivity.l1Misses = randomCount(rng);
        in.baselineActivity.l2Hits = randomCount(rng);
        in.baselineActivity.l2Misses = randomCount(rng);
        in.baselineActivity.stores = randomCount(rng);
        in.baselineActivity.storesCombined = randomCount(rng);
        in.staticShare = rng.chance(0.2) ? 0.0 : rng.uniform() * 20.0;
        in.costs = &costs;
        // Negative limits raise the floor above nominal: often no
        // state is feasible and nominal must be kept.
        in.perfDegradationLimit = rng.uniform() * 0.6 - 0.3;
        in.nominalState = rng.below(n);
        in.avgChipPower = rng.chance(0.3) ? 0.0 : rng.uniform() * 80.0;
        in.avgInstr = rng.chance(0.1) ? 0.0 : rng.uniform() * 5000.0;

        const Objective o = objectives[i % 6];
        got.assign(n, 0.0);
        scoreStates(table, model, in, o, got);
        reference::scoreStates(table, model, in, epoch, temperature, o,
                               want, feasible);
        for (std::size_t s = 0; s < n; ++s) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[s]),
                      std::bit_cast<std::uint64_t>(want[s]))
                << "sample " << i << " " << objectiveName(o)
                << " state " << s << ": " << got[s] << " vs "
                << want[s];
        }
        ASSERT_EQ(chooseState(table, model, in, o),
                  reference::chooseState(table, model, in, epoch,
                                         temperature, o))
            << "sample " << i << " " << objectiveName(o);
        if (o == Objective::EnergyUnderPerfBound &&
            std::find(feasible.begin(), feasible.end(), true) ==
                feasible.end()) {
            ++infeasible_bounds;
        }
    }
    // The draw must reach the keep-nominal path.
    EXPECT_GT(infeasible_bounds, 100u);
}

TEST(Objective, StateCostsShareOneLeakageFactor)
{
    const power::VfTable t = power::VfTable::paperTable();
    const power::PowerModel pm;
    const StateCosts costs(t, pm, tickUs, 70.0);
    ASSERT_EQ(costs.numStates(), t.numStates());
    EXPECT_EQ(costs.leakage().value, pm.leakageFactor(70.0).value);
    EXPECT_EQ(costs.epochSeconds(), tickSeconds(tickUs));
    StateCosts moved(t, pm, tickUs, 45.0);
    moved.setTemperature(70.0);
    for (std::size_t s = 0; s < t.numStates(); ++s) {
        const power::CuEnergy direct = pm.cuEpochEnergy(
            t.state(s).voltage, t.state(s).freq, 1234, memory::MemActivity{},
            tickUs, pm.leakageFactor(70.0));
        const power::CuEnergy shared =
            pm.cuEpochEnergy(costs.state(s), 1234, memory::MemActivity{});
        EXPECT_EQ(std::bit_cast<std::uint64_t>(direct.total()),
                  std::bit_cast<std::uint64_t>(shared.total()));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(moved.state(s).leakage),
                  std::bit_cast<std::uint64_t>(costs.state(s).leakage));
    }
}

TEST(RoundHalfAway, MatchesLlroundOnEdgeCases)
{
    std::vector<double> cases = {0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5,
                                 -2.5, 0.49999999999999994,
                                 -0.49999999999999994, 1e-300, -1e-300};
    for (const double k : {0.0, 1.0, 2.0, 7.0, 1e6, 4503599627370494.0}) {
        for (const double sign : {1.0, -1.0}) {
            const double half = sign * (k + 0.5);
            cases.push_back(half);
            cases.push_back(std::nextafter(half, HUGE_VAL));
            cases.push_back(std::nextafter(half, -HUGE_VAL));
        }
    }
    const double two52 = 4503599627370496.0;
    const double two53 = 9007199254740992.0;
    for (const double v : {two52 - 1.0, two52 - 0.5, two52, two52 + 1.0,
                           two53 - 1.0, two53, two53 + 2.0,
                           9223372036854774784.0}) {
        cases.push_back(v);
        cases.push_back(-v);
    }
    for (const double x : cases) {
        EXPECT_EQ(roundHalfAway(x), std::llround(x)) << x;
    }
}

TEST(RoundHalfAway, MatchesLlroundOnRandomValues)
{
    Rng rng(0x11A0);
    for (int i = 0; i < 1'000'000; ++i) {
        double x = 0.0;
        switch (i % 4) {
          case 0: // ordinary magnitudes
            x = (rng.uniform() - 0.5) * 2e6;
            break;
          case 1: // exact and near halves
            x = std::floor((rng.uniform() - 0.5) * 2e4) + 0.5;
            if (rng.chance(0.5))
                x = std::nextafter(x, rng.chance(0.5) ? HUGE_VAL : -HUGE_VAL);
            break;
          case 2: { // any bit pattern with |x| < 2^63
            const std::uint64_t bits = rng.next();
            const std::uint64_t exp = rng.below(1023 + 63);
            x = std::bit_cast<double>((bits & 0x800FFFFFFFFFFFFFULL) |
                                      (exp << 52));
            break;
          }
          default: // products as the scorer forms them
            x = static_cast<double>(rng.below(100000)) *
                (rng.uniform() * 4.0);
            break;
        }
        ASSERT_EQ(roundHalfAway(x), std::llround(x)) << x;
    }
}
