#include "models/estimation.hh"

#include <algorithm>

#include "common/logging.hh"
#include "dvfs/controller.hh"

namespace pcstall::models
{

const char *
estimationKindName(EstimationKind kind)
{
    switch (kind) {
      case EstimationKind::Stall: return "STALL";
      case EstimationKind::Lead: return "LEAD";
      case EstimationKind::Crit: return "CRIT";
      case EstimationKind::Crisp: return "CRISP";
    }
    return "?";
}

Tick
cuAsyncTime(EstimationKind kind, const gpu::CuEpochRecord &record,
            Tick epoch_len)
{
    Tick async = 0;
    switch (kind) {
      case EstimationKind::Stall:
        async = record.loadStall;
        break;
      case EstimationKind::Lead:
        async = record.leadLoad;
        break;
      case EstimationKind::Crit:
        async = record.memInterval;
        break;
      case EstimationKind::Crisp:
        async = record.memInterval - record.overlap + record.storeStall;
        // CRISP's overlap credit cannot push async time below the
        // hard lower bound of observed full-CU stalls.
        async = std::max(async, record.loadStall + record.storeStall);
        break;
    }
    return std::clamp<Tick>(async, 0, epoch_len);
}

double
cuInstrAt(EstimationKind kind, const gpu::CuEpochRecord &record,
          Tick epoch_len, Freq f2)
{
    panicIf(record.freq == 0, "cuInstrAt: epoch record has no frequency");
    if (record.committed == 0 || epoch_len <= 0)
        return 0.0;

    const Tick async = cuAsyncTime(kind, record, epoch_len);
    const double t_async = static_cast<double>(async);
    const double t_core = static_cast<double>(epoch_len - async);
    const double ratio = static_cast<double>(record.freq) /
        static_cast<double>(f2);

    const double denom = t_async + t_core * ratio;
    if (denom <= 0.0)
        return static_cast<double>(record.committed);
    return static_cast<double>(record.committed) *
        static_cast<double>(epoch_len) / denom;
}

void
domainInstrAt(EstimationKind kind, const dvfs::EpochContext &ctx,
              std::uint32_t d, std::span<double> out)
{
    for (std::size_t s = 0; s < out.size(); ++s) {
        const Freq f2 = ctx.table.state(s).freq;
        out[s] = dvfs::sumOverDomain(
            ctx.domains, d, [&](std::uint32_t cu) {
                return cuInstrAt(kind, ctx.record.cus[cu], ctx.epochLen,
                                 f2);
            });
    }
}

} // namespace pcstall::models
