#include "dvfs/objective.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace pcstall::dvfs
{

const char *
objectiveName(Objective objective)
{
    switch (objective) {
      case Objective::Edp: return "EDP";
      case Objective::Ed2p: return "ED2P";
      case Objective::Ed3p: return "ED3P";
      case Objective::EnergyUnderPerfBound: return "Energy@PerfBound";
      case Objective::MarginalEdp: return "EDP(marginal)";
      case Objective::MarginalEd2p: return "ED2P(marginal)";
    }
    return "?";
}

Joules
domainEpochEnergy(const power::VfTable &table,
                  const power::PowerModel &model,
                  const DomainScoreInputs &in, std::size_t state)
{
    const power::VfState &vf = table.state(state);
    const double instr = std::max(in.instrAtState[state], 0.0);
    // Memory activity scales with instruction throughput (the mix of
    // the work segment is assumed frequency-invariant).
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

    const power::CuEnergy cu_energy = model.cuEpochEnergy(
        vf.voltage, vf.freq,
        static_cast<std::uint64_t>(std::llround(instr)),
        scaled, in.epochLen, in.temperature);

    // Attribute the memory domain's *dynamic* energy for this CU
    // group's traffic (its share of static memory power is not
    // affected by this domain's choice and is omitted from the score).
    const double mem_dynamic =
        model.params().eL2 * static_cast<double>(
            scaled.l2Hits + scaled.l2Misses + scaled.stores -
            scaled.storesCombined) +
        model.params().eDram * static_cast<double>(scaled.l2Misses);

    return cu_energy.total() + mem_dynamic +
        in.staticShare * tickSeconds(in.epochLen);
}

namespace
{

/**
 * The one loop holding the objective formulas: calls
 * @p visit(state, score, feasible) for every V/f state, lower scores
 * being better. Only EnergyUnderPerfBound has infeasible states (those
 * predicted below the degradation floor); they score their energy
 * times a finite shortfall penalty, so hindsight scoring, where the
 * applied state may turn out infeasible, stays finite and comparable.
 * A feasible state's penalty is exactly 1, so its score is its energy.
 */
template <typename Visit>
void
visitScores(const power::VfTable &table, const power::PowerModel &model,
            const DomainScoreInputs &in, Objective objective,
            Visit &&visit)
{
    const std::size_t num_states = table.numStates();
    if (objective == Objective::EnergyUnderPerfBound) {
        const double floor_instr =
            std::max(in.instrAtState[in.nominalState], 0.0) *
            (1.0 - in.perfDegradationLimit);
        for (std::size_t s = 0; s < num_states; ++s) {
            const double penalty = std::max(
                1.0, floor_instr / std::max(in.instrAtState[s], 1e-9));
            visit(s, domainEpochEnergy(table, model, in, s) * penalty,
                  in.instrAtState[s] >= floor_instr);
        }
        return;
    }

    const bool marginal =
        (objective == Objective::MarginalEdp ||
         objective == Objective::MarginalEd2p) &&
        in.avgChipPower > 0.0 && in.avgInstr > 0.0;
    if (marginal) {
        // Price the time saved per instruction at n * average power:
        // the exact first-order greedy for minimizing E * T^n.
        const double n_exp =
            objective == Objective::MarginalEd2p ? 2.0 : 1.0;
        const double time_price = n_exp * in.avgChipPower *
            tickSeconds(in.epochLen) / in.avgInstr;
        for (std::size_t s = 0; s < num_states; ++s) {
            const double instr = std::max(in.instrAtState[s], 0.0);
            visit(s, domainEpochEnergy(table, model, in, s) -
                      time_price * instr,
                  true);
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
    for (std::size_t s = 0; s < num_states; ++s) {
        const double instr = std::max(in.instrAtState[s], 1e-9);
        const double energy = domainEpochEnergy(table, model, in, s);
        visit(s, energy / std::pow(instr, static_cast<double>(exponent)),
              true);
    }
}

} // namespace

std::size_t
chooseState(const power::VfTable &table, const power::PowerModel &model,
            const DomainScoreInputs &in, Objective objective)
{
    panicIf(in.instrAtState.size() != table.numStates(),
            "chooseState: instruction prediction vector size mismatch");

    // A fully idle domain (no work predicted anywhere) parks at the
    // lowest-power state.
    double max_instr = 0.0;
    for (double v : in.instrAtState)
        max_instr = std::max(max_instr, v);
    if (max_instr <= 0.0)
        return 0;

    // With no feasible state, EnergyUnderPerfBound keeps nominal.
    std::size_t best = objective == Objective::EnergyUnderPerfBound
        ? in.nominalState : 0;
    double best_score = std::numeric_limits<double>::infinity();
    visitScores(table, model, in, objective,
                [&](std::size_t s, double score, bool feasible) {
                    if (feasible && score < best_score) {
                        best_score = score;
                        best = s;
                    }
                });
    return best;
}

void
scoreStates(const power::VfTable &table, const power::PowerModel &model,
            const DomainScoreInputs &in, Objective objective,
            std::span<double> out)
{
    panicIf(in.instrAtState.size() != table.numStates() ||
                out.size() != table.numStates(),
            "scoreStates: state vector size mismatch");
    visitScores(table, model, in, objective,
                [&](std::size_t s, double score, bool) { out[s] = score; });
}

} // namespace pcstall::dvfs
