#include "dvfs/hierarchical.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pcstall::dvfs
{

namespace
{

DvfsController &
requireInner(std::unique_ptr<DvfsController> &owned)
{
    fatalIf(owned == nullptr,
            "hierarchical manager needs an inner controller");
    return *owned;
}

} // namespace

HierarchicalPowerManager::HierarchicalPowerManager(
    DvfsController &inner, const HierarchicalConfig &config)
    : inner(inner), cfg(config)
{
    fatalIf(cfg.powerCap <= 0.0, "power cap must be positive");
    fatalIf(cfg.reviewEpochs == 0, "review window must be >= 1 epoch");
}

HierarchicalPowerManager::HierarchicalPowerManager(
    std::unique_ptr<DvfsController> inner_owned,
    const HierarchicalConfig &config)
    : owned(std::move(inner_owned)), inner(requireInner(owned)),
      cfg(config)
{
    fatalIf(cfg.powerCap <= 0.0, "power cap must be positive");
    fatalIf(cfg.reviewEpochs == 0, "review window must be >= 1 epoch");
}

Watts
HierarchicalPowerManager::epochPower(const EpochContext &ctx) const
{
    const Tick len = ctx.record.end - ctx.record.start;
    if (len <= 0)
        return 0.0;
    Joules energy = 0.0;
    memory::MemActivity total;
    const power::LeakageFactor leak =
        ctx.power.leakageFactor(ctx.temperature);
    for (const gpu::CuEpochRecord &cu : ctx.record.cus) {
        const Volts v = ctx.table.voltageAt(cu.freq);
        energy += ctx.power.cuEpochEnergy(
            v, cu.freq, cu.committed, cu.mem, len, leak).total();
        total += cu.mem;
    }
    energy += ctx.power.memEpochEnergy(total, len);
    return energy / tickSeconds(len);
}

std::vector<DomainDecision>
HierarchicalPowerManager::decide(const EpochContext &ctx)
{
    if (!ceilingInit) {
        ceiling = ctx.table.numStates() - 1;
        ceilingInit = true;
    }

    // --- coarse layer: integrate power, review periodically ---
    const Tick len = ctx.record.end - ctx.record.start;
    windowEnergy += epochPower(ctx) * tickSeconds(len);
    windowSeconds += tickSeconds(len);
    if (++windowEpochs >= cfg.reviewEpochs) {
        lastPower = windowSeconds > 0.0 ? windowEnergy / windowSeconds
                                        : 0.0;
        if (lastPower > cfg.powerCap && ceiling > 0) {
            --ceiling; // over budget: narrow the window
        } else if (lastPower < cfg.powerCap * cfg.widenBelow &&
                   ceiling + 1 < ctx.table.numStates()) {
            ++ceiling; // comfortable headroom: widen it again
        }
        windowEnergy = 0.0;
        windowSeconds = 0.0;
        windowEpochs = 0;
    }

    // --- fine layer: the wrapped controller, clamped to the window ---
    std::vector<DomainDecision> decisions = inner.decide(ctx);
    for (DomainDecision &d : decisions) {
        if (d.state > ceiling) {
            d.state = ceiling;
            // The inner controller's instruction prediction was for
            // its own choice; no prediction is claimed for the
            // clamped state.
            d.predictedInstr = -1.0;
        }
    }
    return decisions;
}

} // namespace pcstall::dvfs
