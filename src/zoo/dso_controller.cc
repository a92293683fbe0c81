#include "zoo/dso_controller.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/stats_util.hh"
#include "isa/kernel.hh"
#include "obs/context.hh"

namespace pcstall::zoo
{

namespace
{

/**
 * Loop-trip-weighted static memory-time fraction of one kernel: every
 * instruction inside a loop body [target .. branch] is weighted by
 * that loop's mean trip count (nested loops multiply), memory ops are
 * charged @p mem_cost cycles, everything else its encoded latency.
 */
double
staticMemFrac(const isa::Kernel &kernel, double mem_cost)
{
    std::vector<double> weight(kernel.code.size(), 1.0);
    for (std::size_t i = 0; i < kernel.code.size(); ++i) {
        const isa::Instruction &instr = kernel.code[i];
        if (instr.op != isa::OpType::Branch || instr.target < 0 ||
            static_cast<std::size_t>(instr.target) > i) {
            continue;
        }
        double trips = 1.0;
        if (instr.loopId < kernel.loops.size()) {
            trips = std::max<double>(
                1.0, kernel.loops[instr.loopId].baseTrips);
        }
        for (std::size_t j = instr.target; j <= i; ++j)
            weight[j] *= trips;
    }
    double mem = 0.0;
    double core = 0.0;
    for (std::size_t i = 0; i < kernel.code.size(); ++i) {
        const isa::Instruction &instr = kernel.code[i];
        switch (instr.op) {
        case isa::OpType::VMemLoad:
        case isa::OpType::VMemStore:
            mem += weight[i] * mem_cost;
            break;
        case isa::OpType::Waitcnt:
        case isa::OpType::Barrier:
        case isa::OpType::EndPgm:
            break; // join points: time charged to what they wait on
        default:
            core += weight[i] * static_cast<double>(instr.latency);
            break;
        }
    }
    const double total = mem + core;
    return total > 0.0 ? mem / total : 0.0;
}

} // namespace

DsoController::DsoController(const DsoConfig &config,
                             const isa::Application *app)
    : cfg(config), watchdog(models::WatchdogConfig{config.watchdog})
{
    cfg.beta = clampTo(cfg.beta, 0.0, 1.0);
    cfg.memCostCycles = std::max(cfg.memCostCycles, 1.0);
    if (app == nullptr)
        return;
    for (const isa::Kernel &kernel : app->launches) {
        const std::uint64_t end = kernel.codeBase +
            kernel.code.size() * isa::instrSizeBytes;
        const auto dup = std::find_if(
            kernels.begin(), kernels.end(),
            [&](const StaticKernel &k) {
                return k.base == kernel.codeBase;
            });
        if (dup != kernels.end())
            continue; // relaunch of an analysed kernel
        kernels.push_back({kernel.codeBase, end,
                           staticMemFrac(kernel, cfg.memCostCycles)});
    }
    std::sort(kernels.begin(), kernels.end(),
              [](const StaticKernel &a, const StaticKernel &b) {
                  return a.base < b.base;
              });
    obs::reg()
        .gauge("controller.dso.static_kernels")
        .set(static_cast<double>(kernels.size()));
}

double
DsoController::staticFracAt(std::uint64_t pc_addr) const
{
    // Binary search the sorted, disjoint code ranges.
    std::size_t lo = 0;
    std::size_t hi = kernels.size();
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (kernels[mid].end <= pc_addr)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < kernels.size() && kernels[lo].base <= pc_addr)
        return kernels[lo].memFrac;
    return -1.0;
}

std::vector<dvfs::DomainDecision>
DsoController::decide(const dvfs::EpochContext &ctx)
{
    const std::size_t num_states = ctx.table.numStates();
    const std::uint32_t num_cus = ctx.domains.numCus();
    const std::uint32_t num_domains = ctx.domains.numDomains();
    obs::Registry &registry = obs::reg();

    if (kernels.empty() && !warnedNoApp) {
        warnedNoApp = true;
        warnLimited("dso-no-app",
                    "DSO: no application for static analysis; "
                    "running dynamic-only");
    }

    watchdog.observe(ctx, instrAt);

    // Static prior per CU: mean static fraction over the kernels the
    // CU's resident waves are executing right now.
    staticFrac.assign(num_cus, -1.0);
    if (!kernels.empty()) {
        fracSum.assign(num_cus, 0.0);
        fracCount.assign(num_cus, 0);
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        for (const gpu::WaveSnapshot &wave : ctx.snapshots) {
            const double frac = staticFracAt(wave.pcAddr);
            dvfs::DomainAudit *aud = ctx.audit
                ? &ctx.audit->domains[ctx.domains.domainOf(wave.cu)]
                : nullptr;
            if (aud) {
                ++aud->lookups;
                if (aud->pcKey == 0)
                    aud->pcKey = wave.pcAddr;
            }
            if (frac >= 0.0) {
                fracSum[wave.cu] += frac;
                ++fracCount[wave.cu];
                if (aud)
                    ++aud->hits;
                ++hits;
            } else {
                ++misses;
            }
        }
        // Counted per wave, recorded once per decide; a counter is
        // created only by the outcome that happened.
        if (hits > 0)
            registry.counter("controller.dso.lookup_hits").add(hits);
        if (misses > 0)
            registry.counter("controller.dso.lookup_misses").add(misses);
        for (std::uint32_t cu = 0; cu < num_cus; ++cu) {
            if (fracCount[cu] > 0)
                staticFrac[cu] = fracSum[cu] / fracCount[cu];
        }
    }

    // Fuse per CU: the asynchronous time does not depend on the
    // candidate state (< 0 marks a CU that contributes nothing).
    const double epoch = static_cast<double>(ctx.epochLen);
    asyncTime.assign(num_cus, -1.0);
    for (std::uint32_t cu = 0; cu < num_cus; ++cu) {
        const gpu::CuEpochRecord &rec = ctx.record.cus[cu];
        if (rec.committed == 0 || rec.freq == 0)
            continue;
        const double dyn = clampTo(
            static_cast<double>(rec.loadStall) / epoch, 0.0, 1.0);
        const double stat = staticFrac[cu];
        const double fused = stat >= 0.0
            ? cfg.beta * stat + (1.0 - cfg.beta) * dyn
            : dyn;
        asyncTime[cu] = fused * epoch;
    }

    // Scale per CU, aggregate per domain. The watchdog has scored the
    // previous predictions, so this epoch's overwrite them.
    instrAt.resize(num_domains);
    for (std::uint32_t d = 0; d < num_domains; ++d) {
        instrAt[d].resize(num_states);
        for (std::size_t s = 0; s < num_states; ++s) {
            const Freq f2 = ctx.table.state(s).freq;
            instrAt[d][s] = dvfs::sumOverDomain(
                ctx.domains, d, [&](std::uint32_t cu) {
                    const double t_async = asyncTime[cu];
                    if (t_async < 0.0)
                        return 0.0;
                    const gpu::CuEpochRecord &rec = ctx.record.cus[cu];
                    const double ratio =
                        static_cast<double>(rec.freq) /
                        static_cast<double>(f2);
                    const double t2 =
                        t_async + (epoch - t_async) * ratio;
                    return static_cast<double>(rec.committed) * epoch /
                        std::max(t2, 1.0);
                });
        }
    }
    registry.counter("controller.dso.decisions").add(num_domains);

    if (watchdog.inFallback()) {
        registry.counter("controller.dso.fallback_epochs").add(1);
        return watchdog.decideFallback(ctx);
    }
    return dvfs::decideDomains(ctx, instrAt);
}

} // namespace pcstall::zoo
