/**
 * @file
 * Reconstruction of the paper's in-house power model (Section 5):
 * performance-counter-driven dynamic energy, voltage/temperature
 * dependent leakage, IVR conversion efficiency, and a fixed-clock
 * memory-subsystem domain. The paper validated against a Radeon VII;
 * here the coefficients are chosen to give a Vega-class power range
 * (~150-250 W at 64 CUs) with a realistic dynamic/leakage split so
 * EDP/ED2P minima move with phase behaviour the same way.
 */

#ifndef PCSTALL_POWER_POWER_MODEL_HH
#define PCSTALL_POWER_POWER_MODEL_HH

#include <cstdint>

#include "common/types.hh"
#include "memory/memory_system.hh"
#include "power/vf_table.hh"

namespace pcstall::power
{

/** Model coefficients (all energies at 1 V; scaled by V^2). */
struct PowerParams
{
    /** Dynamic energy per committed wavefront instruction (J @ 1V). */
    double eInst = 0.80e-9;
    /** Dynamic energy per L1 access (J @ 1V). */
    double eL1 = 0.15e-9;
    /** Dynamic energy per L2 access (J, fixed-clock domain). */
    double eL2 = 0.40e-9;
    /** Dynamic energy per DRAM access (J). */
    double eDram = 2.50e-9;
    /** Clock-tree/idle-pipeline energy per CU cycle (J @ 1V). */
    double cClk = 0.30e-9;

    /** Per-CU leakage power at 1 V and reference temperature (W). */
    double leakPerCu = 1.10;
    /** Exponential leakage-vs-temperature coefficient (1/K). */
    double leakTempCoeff = 0.02;
    /** Reference temperature for leakage (C). */
    double tRef = 45.0;

    /** Static power of the fixed-clock memory domain (W). */
    double memStatic = 56.0;

    /** IVR peak efficiency and the voltage where it peaks. */
    double etaPeak = 0.90;
    double etaVopt = 0.92;
    /** Efficiency loss per volt away from the optimum. */
    double etaSlope = 0.22;

    /**
     * Energy of one V/f transition per CU domain: the IVR re-charges
     * the domain's decoupling/parasitic capacitance across the voltage
     * step, plus FLL relock overhead. Modelled as
     *   E = transitionCap * |V_new^2 - V_old^2| / 2 + transitionFixed.
     */
    double transitionCap = 120e-9; // farads of switched capacitance
    double transitionFixed = 2e-9; // joules per transition
};

/** Per-epoch energy breakdown for one CU domain. */
struct CuEnergy
{
    Joules dynamic = 0.0;
    Joules leakage = 0.0;
    /** IVR conversion loss (input minus delivered). */
    Joules ivrLoss = 0.0;

    Joules total() const { return dynamic + leakage + ivrLoss; }
};

/**
 * How the die temperature scales every CU's leakage,
 * exp(leakTempCoeff * (T - tRef)). One value per epoch: every CU and
 * every V/f state of the epoch shares it.
 */
struct LeakageFactor
{
    double value = 1.0;
};

/**
 * The terms of a CU's epoch energy that depend only on its V/f point,
 * the epoch length and the temperature, not on the work it did.
 */
struct CuStateTerms
{
    /** V^2 (the dynamic coefficients are at 1 V). */
    double v2 = 0.0;
    /** Clock-tree energy at 1 V: cClk times the epoch's cycles. */
    Joules clock = 0.0;
    /** Leakage energy over the epoch. */
    Joules leakage = 0.0;
    /** IVR conversion efficiency at the voltage. */
    double ivrEfficiency = 1.0;
};

/**
 * Computes epoch energies from activity counters. Stateless; the
 * thermal state is supplied by the caller (see ThermalModel).
 */
class PowerModel
{
  public:
    explicit PowerModel(PowerParams params = PowerParams{});

    /**
     * Energy one CU domain consumes over an epoch.
     *
     * @param voltage   Supply voltage of the domain.
     * @param freq      Operating frequency of the domain.
     * @param committed Instructions committed in the epoch.
     * @param activity  Memory activity of the CU in the epoch
     *                  (L1 side is charged to the CU domain).
     * @param epoch_len Epoch duration in ticks.
     * @param leak      leakageFactor() at the die temperature.
     */
    CuEnergy cuEpochEnergy(Volts voltage, Freq freq,
                           std::uint64_t committed,
                           const memory::MemActivity &activity,
                           Tick epoch_len, LeakageFactor leak) const
    {
        return cuEpochEnergy(cuStateTerms(voltage, freq, epoch_len, leak),
                             committed, activity);
    }

    /** The work-independent terms of cuEpochEnergy() at one V/f
     *  point. */
    CuStateTerms cuStateTerms(Volts voltage, Freq freq, Tick epoch_len,
                              LeakageFactor leak) const;

    /** CuStateTerms::leakage: one CU's leakage energy over @p seconds,
     *  the one term that moves with the temperature. */
    Joules
    cuLeakageEnergy(Volts voltage, double seconds, LeakageFactor leak) const
    {
        return p.leakPerCu * voltage * leak.value * seconds;
    }

    /** cuEpochEnergy() from precomputed state terms: the per-work
     *  arithmetic alone. */
    CuEnergy
    cuEpochEnergy(const CuStateTerms &state, std::uint64_t committed,
                  const memory::MemActivity &activity) const
    {
        CuEnergy energy;
        const double l1_accesses = static_cast<double>(
            activity.l1Hits + activity.l1Misses +
            activity.storesCombined);
        energy.dynamic = state.v2 *
            (p.eInst * static_cast<double>(committed) +
             p.eL1 * l1_accesses +
             state.clock);
        energy.leakage = state.leakage;

        const double delivered = energy.dynamic + energy.leakage;
        energy.ivrLoss = delivered / state.ivrEfficiency - delivered;
        return energy;
    }

    /** The leakage temperature factor at @p temperature (C). */
    LeakageFactor leakageFactor(double temperature) const;

    /**
     * Energy of the shared fixed-clock memory domain (L2 + DRAM) for
     * the aggregate activity of all CUs over an epoch.
     */
    Joules memEpochEnergy(const memory::MemActivity &total_activity,
                          Tick epoch_len) const;

    /** IVR efficiency at @p voltage, clamped to [0.5, 0.98]. */
    double ivrEfficiency(Volts voltage) const;

    /** Energy cost of one V/f transition of a CU domain. */
    Joules transitionEnergy(Volts from, Volts to) const;

    /** Leakage power of one CU at @p voltage and @p temperature. */
    Watts cuLeakage(Volts voltage, double temperature) const;

    const PowerParams &params() const { return p; }

  private:
    PowerParams p;
};

/**
 * Single-node lumped thermal RC model of the die. The time constant
 * (seconds) is far longer than the microsecond runs evaluated here, so
 * temperature mostly acts as a slowly-drifting leakage multiplier --
 * matching the paper's note that leakage varies little across the
 * small IVR voltage range but does respond to temperature.
 */
class ThermalModel
{
  public:
    ThermalModel(double ambient_c = 45.0, double r_th = 0.15,
                 double c_th = 50.0)
        : ambient(ambient_c), rTh(r_th), cTh(c_th), temp(ambient_c)
    {}

    /** Advance by @p dt seconds with total die power @p power. */
    void update(Watts power, double dt)
    {
        const double d_temp = (power - (temp - ambient) / rTh) / cTh;
        temp += d_temp * dt;
    }

    double temperature() const { return temp; }

  private:
    double ambient;
    double rTh;
    double cTh;
    double temp;
};

} // namespace pcstall::power

#endif // PCSTALL_POWER_POWER_MODEL_HH
