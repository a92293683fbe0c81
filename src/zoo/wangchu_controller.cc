#include "zoo/wangchu_controller.hh"

#include <algorithm>

#include "obs/context.hh"

namespace pcstall::zoo
{

double
wangChuInstrAt(const gpu::CuEpochRecord &record, Tick epoch_len,
               Freq f2)
{
    if (record.committed == 0 || record.freq == 0 || f2 == 0)
        return 0.0;
    const double epoch = static_cast<double>(epoch_len);
    const double t_core = static_cast<double>(record.busy);
    const double t_mem = static_cast<double>(record.memInterval);
    // Measured overlap can exceed neither component it overlaps.
    const double ov = std::min(static_cast<double>(record.overlap),
                               std::min(t_core, t_mem));
    const double t_other =
        std::max(0.0, epoch - (t_core + t_mem - ov));
    const double ratio = static_cast<double>(record.freq) /
        static_cast<double>(f2);
    // Issue time and its memory-overlapped share both scale with the
    // core clock; the overlap credit stays bounded by the (fixed
    // clock) memory window.
    const double t_core2 = t_core * ratio;
    const double ov2 = std::min(ov * ratio, t_mem);
    const double t2 = std::max(t_core2 + t_mem - ov2 + t_other, 1.0);
    return static_cast<double>(record.committed) * epoch / t2;
}

std::vector<dvfs::DomainDecision>
WangChuController::decide(const dvfs::EpochContext &ctx)
{
    const std::size_t num_states = ctx.table.numStates();
    const std::uint32_t num_domains = ctx.domains.numDomains();
    obs::Registry &registry = obs::reg();
    registry.counter("controller.wangchu.epochs").add(1);

    instrAt.resize(num_domains);
    std::uint64_t mem_bound = 0;
    for (std::uint32_t d = 0; d < num_domains; ++d) {
        double t_core = 0.0;
        double t_mem_excl = 0.0;
        instrAt[d].resize(num_states);
        for (std::size_t s = 0; s < num_states; ++s) {
            const Freq f2 = ctx.table.state(s).freq;
            instrAt[d][s] = dvfs::sumOverDomain(
                ctx.domains, d, [&](std::uint32_t cu) {
                    return wangChuInstrAt(ctx.record.cus[cu],
                                          ctx.epochLen, f2);
                });
        }
        dvfs::sumOverDomain(ctx.domains, d, [&](std::uint32_t cu) {
            const gpu::CuEpochRecord &rec = ctx.record.cus[cu];
            t_core += static_cast<double>(rec.busy);
            t_mem_excl += static_cast<double>(rec.memInterval) -
                static_cast<double>(
                    std::min(rec.overlap,
                             std::min(rec.busy, rec.memInterval)));
            return 0.0;
        });
        if (t_mem_excl > t_core)
            ++mem_bound;
    }
    // Counted per domain, recorded once per decide; the counter is
    // created only once a domain is memory-bound.
    if (mem_bound > 0) {
        registry.counter("controller.wangchu.mem_bound_domains")
            .add(mem_bound);
    }
    return dvfs::decideDomains(ctx, instrAt);
}

} // namespace pcstall::zoo
