#include "power/power_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/stats_util.hh"

namespace pcstall::power
{

PowerModel::PowerModel(PowerParams params) : p(params)
{
    fatalIf(p.eInst <= 0.0 || p.cClk <= 0.0,
            "power model dynamic coefficients must be positive");
    fatalIf(p.etaPeak <= 0.0 || p.etaPeak > 1.0,
            "IVR peak efficiency must be in (0, 1]");
}

double
PowerModel::ivrEfficiency(Volts voltage) const
{
    const double eta =
        p.etaPeak - p.etaSlope * std::abs(voltage - p.etaVopt);
    return clampTo(eta, 0.5, 0.98);
}

Joules
PowerModel::transitionEnergy(Volts from, Volts to) const
{
    if (from == to)
        return 0.0;
    return p.transitionCap * std::abs(to * to - from * from) / 2.0 +
        p.transitionFixed;
}

LeakageFactor
PowerModel::leakageFactor(double temperature) const
{
    return {std::exp(p.leakTempCoeff * (temperature - p.tRef))};
}

Watts
PowerModel::cuLeakage(Volts voltage, double temperature) const
{
    return p.leakPerCu * voltage * leakageFactor(temperature).value;
}

CuStateTerms
PowerModel::cuStateTerms(Volts voltage, Freq freq, Tick epoch_len,
                         LeakageFactor leak) const
{
    const double seconds = tickSeconds(epoch_len);
    const double cycles = seconds * static_cast<double>(freq);
    CuStateTerms terms;
    terms.v2 = voltage * voltage;
    terms.clock = p.cClk * cycles;
    terms.leakage = cuLeakageEnergy(voltage, seconds, leak);
    terms.ivrEfficiency = ivrEfficiency(voltage);
    return terms;
}

Joules
PowerModel::memEpochEnergy(const memory::MemActivity &total_activity,
                           Tick epoch_len) const
{
    const double seconds = tickSeconds(epoch_len);
    // Stores absorbed by the write-combining buffer never reach L2.
    const double l2_accesses = static_cast<double>(
        total_activity.l2Hits + total_activity.l2Misses +
        total_activity.stores - total_activity.storesCombined);
    const double dram_accesses =
        static_cast<double>(total_activity.l2Misses);
    return p.memStatic * seconds +
        p.eL2 * l2_accesses +
        p.eDram * dram_accesses;
}

} // namespace pcstall::power
