#include "dvfs/objective.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/stats_util.hh"

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

StateCosts::StateCosts(const power::VfTable &table,
                       const power::PowerModel &model, Tick epoch_len,
                       double temperature)
    : table_(table), model_(model), epochSeconds_(tickSeconds(epoch_len)),
      leak_(model.leakageFactor(temperature))
{
    states_.reserve(table.numStates());
    for (std::size_t s = 0; s < table.numStates(); ++s) {
        const power::VfState &vf = table.state(s);
        states_.push_back(
            model.cuStateTerms(vf.voltage, vf.freq, epoch_len, leak_));
    }
}

void
StateCosts::setTemperature(double temperature)
{
    leak_ = model_.leakageFactor(temperature);
    for (std::size_t s = 0; s < states_.size(); ++s) {
        states_[s].leakage = model_.cuLeakageEnergy(
            table_.state(s).voltage, epochSeconds_, leak_);
    }
}

namespace
{

/**
 * domainEpochEnergy() of one domain, with what no state changes
 * hoisted out: the baseline counts as doubles and the static share's
 * epoch energy. Each state's remaining arithmetic runs in the order
 * it always has, so every energy is bit-identical to computing it
 * from scratch.
 */
class DomainEnergy
{
  public:
    DomainEnergy(const power::PowerModel &model,
                 const DomainScoreInputs &in)
        : model(model), in(in),
          l1Hits(static_cast<double>(in.baselineActivity.l1Hits)),
          l1Misses(static_cast<double>(in.baselineActivity.l1Misses)),
          l2Hits(static_cast<double>(in.baselineActivity.l2Hits)),
          l2Misses(static_cast<double>(in.baselineActivity.l2Misses)),
          stores(static_cast<double>(in.baselineActivity.stores)),
          storesCombined(
              static_cast<double>(in.baselineActivity.storesCombined)),
          staticEnergy(in.staticShare * in.costs->epochSeconds())
    {
    }

    Joules
    operator()(std::size_t state) const
    {
        const double instr = std::max(in.instrAtState[state], 0.0);
        // Memory activity scales with instruction throughput (the mix
        // of the work segment is assumed frequency-invariant).
        const double scale = in.baselineInstr > 0.0
            ? instr / in.baselineInstr : 1.0;

        memory::MemActivity scaled;
        auto scale_count = [scale](double c) {
            return static_cast<std::uint64_t>(roundHalfAway(c * scale));
        };
        scaled.l1Hits = scale_count(l1Hits);
        scaled.l1Misses = scale_count(l1Misses);
        scaled.l2Hits = scale_count(l2Hits);
        scaled.l2Misses = scale_count(l2Misses);
        scaled.stores = scale_count(stores);
        scaled.storesCombined = scale_count(storesCombined);

        const power::CuEnergy cu_energy = model.cuEpochEnergy(
            in.costs->state(state),
            static_cast<std::uint64_t>(roundHalfAway(instr)), scaled);

        // Attribute the memory domain's *dynamic* energy for this CU
        // group's traffic (its share of static memory power is not
        // affected by this domain's choice and is omitted from the
        // score).
        const double mem_dynamic =
            model.params().eL2 * static_cast<double>(
                scaled.l2Hits + scaled.l2Misses + scaled.stores -
                scaled.storesCombined) +
            model.params().eDram * static_cast<double>(scaled.l2Misses);

        return cu_energy.total() + mem_dynamic + staticEnergy;
    }

  private:
    const power::PowerModel &model;
    const DomainScoreInputs &in;
    const double l1Hits;
    const double l1Misses;
    const double l2Hits;
    const double l2Misses;
    const double stores;
    const double storesCombined;
    const Joules staticEnergy;
};

/** Panics unless @p in can score every state of @p table. */
void
checkInputs(const power::VfTable &table, const DomainScoreInputs &in,
            const char *who)
{
    if (in.instrAtState.size() != table.numStates()) {
        panic(std::string(who) +
              ": instruction prediction vector size mismatch");
    }
    if (in.costs == nullptr || in.costs->numStates() != table.numStates())
        panic(std::string(who) + ": no state costs for the V/f table");
}

} // namespace

Joules
domainEpochEnergy(const power::VfTable &table,
                  const power::PowerModel &model,
                  const DomainScoreInputs &in, std::size_t state)
{
    checkInputs(table, in, "domainEpochEnergy");
    return DomainEnergy(model, in)(state);
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
    const DomainEnergy energy_at(model, in);
    if (objective == Objective::EnergyUnderPerfBound) {
        const double floor_instr =
            std::max(in.instrAtState[in.nominalState], 0.0) *
            (1.0 - in.perfDegradationLimit);
        for (std::size_t s = 0; s < num_states; ++s) {
            const double penalty = std::max(
                1.0, floor_instr / std::max(in.instrAtState[s], 1e-9));
            visit(s, energy_at(s) * penalty,
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
            in.costs->epochSeconds() / in.avgInstr;
        for (std::size_t s = 0; s < num_states; ++s) {
            const double instr = std::max(in.instrAtState[s], 0.0);
            visit(s, energy_at(s) - time_price * instr, true);
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
        const double energy = energy_at(s);
        visit(s, energy / std::pow(instr, static_cast<double>(exponent)),
              true);
    }
}

} // namespace

std::size_t
chooseState(const power::VfTable &table, const power::PowerModel &model,
            const DomainScoreInputs &in, Objective objective)
{
    checkInputs(table, in, "chooseState");

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
    checkInputs(table, in, "scoreStates");
    panicIf(out.size() != table.numStates(),
            "scoreStates: score vector size mismatch");
    visitScores(table, model, in, objective,
                [&](std::size_t s, double score, bool) { out[s] = score; });
}

} // namespace pcstall::dvfs
