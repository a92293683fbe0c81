#include "gpu/gpu_chip.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pcstall::gpu
{

namespace
{
/** Sync derived fields of the configuration. */
GpuConfig
normalized(GpuConfig cfg)
{
    fatalIf(cfg.numCus == 0, "GPU needs at least one CU");
    fatalIf(cfg.waveSlotsPerCu == 0, "GPU needs at least one wave slot");
    cfg.mem.numCus = cfg.numCus;
    return cfg;
}
} // namespace

GpuChip::GpuChip(const GpuConfig &config,
                 std::shared_ptr<const isa::Application> app_in)
    : cfg(normalized(config)), app(std::move(app_in)), mem(cfg.mem)
{
    fatalIf(!app, "GpuChip requires an application");
    fatalIf(app->launches.empty(),
            "application '" + app->name + "' has no kernel launches");
    for (const isa::Kernel &k : app->launches) {
        k.validate();
        fatalIf(k.wavesPerWorkgroup > cfg.waveSlotsPerCu,
                "kernel '" + k.name + "' workgroup does not fit in a CU");
    }

    cus.resize(cfg.numCus);
    for (std::uint32_t i = 0; i < cfg.numCus; ++i)
        cus[i].init(i, cfg.waveSlotsPerCu, cfg.simdsPerCu,
                    cfg.defaultFreq);

    dispatch.curLaunch = 0;
    dispatch.wgUndispatched = app->launches[0].numWorkgroups;
    dispatch.wgCompleted = 0;
}

CuContext
GpuChip::makeContext()
{
    return CuContext{mem, *app, dispatch, cfg};
}

bool
GpuChip::done() const
{
    if (dispatch.curLaunch < app->launches.size())
        return false;
    for (const ComputeUnit &cu : cus)
        if (!cu.idle())
            return false;
    return true;
}

bool
GpuChip::runUntil(Tick until)
{
    panicIf(until < curTick, "runUntil into the past");
    CuContext ctx = makeContext();

    // Each CU's next activation, copied into a dense thread_local
    // scratch: the oracle calls runUntil once per V/f sample per epoch
    // boundary, and a ComputeUnit spans many cache lines, so scanning
    // nextEventAt in place would touch one line per CU per pick. The
    // strict-< scan keeps the first minimum, so steps run in global
    // (tick, id) order.
    static thread_local std::vector<Tick> next;
    next.resize(cus.size());
    for (std::size_t i = 0; i < cus.size(); ++i)
        next[i] = cus[i].nextEventAt;
    const auto n = static_cast<std::uint32_t>(next.size());

    for (;;) {
        std::uint32_t id = 0;
        Tick t = next[0];
        for (std::uint32_t i = 1; i < n; ++i) {
            if (next[i] < t) {
                t = next[i];
                id = i;
            }
        }
        if (t >= until)
            break;
        ComputeUnit &cu = cus[id];
        StepResult res = cu.step(ctx, t);
        if constexpr (verifyBuild)
            cu.verifyDerivedState();

        // Run ahead: while the CU's next step touches only its own
        // state it commutes with every other CU's step before it, so
        // take it now instead of returning to the scan. Shared-state
        // steps and the epoch boundary go back to the scan and still
        // run in global (tick, id) order.
        while (res.next < until && !res.launchFinished &&
               cu.probe(ctx, res.next)) {
            const std::uint64_t shared_before =
                verifyBuild ? sharedDigest() : 0;
            res = cu.step(ctx, res.next);
            if constexpr (verifyBuild) {
                if (sharedDigest() != shared_before)
                    panic("CU " + std::to_string(id) +
                          ": a run-ahead step changed shared state");
                cu.verifyDerivedState();
            }
        }
        cu.nextEventAt = res.next;
        next[id] = res.next;

        if (res.launchFinished) {
            // A new kernel launch became available: wake every CU so
            // idle ones can pull workgroups. A launch finishes only
            // when all its waves ended, so every CU is idle here and
            // none can be mid-run-ahead.
            for (std::uint32_t i = 0; i < cus.size(); ++i) {
                if (i == id)
                    continue;
                if (verifyBuild && !cus[i].idle())
                    panic("launch-finished broadcast reached CU " +
                          std::to_string(i) + " with resident waves");
                if (cus[i].nextEventAt > t) {
                    cus[i].nextEventAt = t;
                    next[i] = t;
                }
            }
        }
    }

    curTick = until;
    return done();
}

EpochRecord
GpuChip::harvestEpoch(Tick epoch_start)
{
    EpochRecord record;
    harvestEpoch(epoch_start, record);
    return record;
}

void
GpuChip::harvestEpoch(Tick epoch_start, EpochRecord &out)
{
    CuContext ctx = makeContext();
    out.start = epoch_start;
    out.end = curTick;
    out.cus.resize(cus.size());
    out.waves.clear();
    for (std::uint32_t i = 0; i < cus.size(); ++i)
        cus[i].harvest(ctx, curTick, out.cus[i], out.waves);
    mem.resetActivity();
}

void
GpuChip::setCuFrequency(std::uint32_t cu_id, Freq freq,
                        Tick transition_latency)
{
    panicIf(cu_id >= cus.size(), "setCuFrequency: bad CU id");
    cus[cu_id].setFrequency(freq, curTick, transition_latency);
}

Freq
GpuChip::cuFrequency(std::uint32_t cu_id) const
{
    panicIf(cu_id >= cus.size(), "cuFrequency: bad CU id");
    return cus[cu_id].frequency();
}

std::vector<WaveSnapshot>
GpuChip::waveSnapshots() const
{
    std::vector<WaveSnapshot> out;
    out.reserve(cus.size() * cfg.waveSlotsPerCu);
    for (const ComputeUnit &cu : cus)
        cu.appendSnapshots(*app, out);
    return out;
}

std::uint64_t
GpuChip::stateFingerprint() const
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    h = hashCombine(h, static_cast<std::uint64_t>(curTick));
    h = hashCombine(h, dispatch.curLaunch);
    h = hashCombine(h, dispatch.wgUndispatched);
    h = hashCombine(h, dispatch.wgCompleted);
    h = hashCombine(h, dispatch.nextGlobalWaveId);
    for (const ComputeUnit &cu : cus)
        cu.fingerprint(h);
    mem.fingerprint(h);
    return h;
}

void
GpuChip::verifyDerivedState() const
{
    for (const ComputeUnit &cu : cus)
        cu.verifyDerivedState();
}

std::uint64_t
GpuChip::sharedDigest() const
{
    std::uint64_t h = mem.sharedDigest();
    h = hashCombine(h, dispatch.curLaunch);
    h = hashCombine(h, dispatch.wgUndispatched);
    h = hashCombine(h, dispatch.wgCompleted);
    h = hashCombine(h, dispatch.nextGlobalWaveId);
    return h;
}

std::uint64_t
GpuChip::totalCommitted() const
{
    std::uint64_t sum = 0;
    for (const ComputeUnit &cu : cus)
        sum += cu.lifeCommitted();
    return sum;
}

Tick
GpuChip::lastCommitTick() const
{
    Tick last = 0;
    for (const ComputeUnit &cu : cus)
        last = std::max(last, cu.lastCommitTick());
    return last;
}

Tick
transitionLatencyFor(Tick epoch_length)
{
    // Paper Section 5: 4 ns @ 1 us, 40 ns @ 10 us, 200 ns @ 50 us,
    // 400 ns @ 100 us. Interpolate linearly between the published
    // points and clamp outside.
    struct Point { Tick epoch; Tick latency; };
    static constexpr Point points[] = {
        {1 * tickUs, 4 * tickNs},
        {10 * tickUs, 40 * tickNs},
        {50 * tickUs, 200 * tickNs},
        {100 * tickUs, 400 * tickNs},
    };
    if (epoch_length <= points[0].epoch)
        return points[0].latency;
    for (std::size_t i = 1; i < std::size(points); ++i) {
        if (epoch_length <= points[i].epoch) {
            const auto &a = points[i - 1];
            const auto &b = points[i];
            const double frac =
                static_cast<double>(epoch_length - a.epoch) /
                static_cast<double>(b.epoch - a.epoch);
            return a.latency + static_cast<Tick>(
                frac * static_cast<double>(b.latency - a.latency));
        }
    }
    return points[std::size(points) - 1].latency;
}

} // namespace pcstall::gpu
