#include "models/history_controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pcstall::models
{

HistoryController::HistoryController(const HistoryConfig &config,
                                     std::uint32_t num_domains)
    : cfg(config)
{
    fatalIf(cfg.historyLength == 0, "GPHT needs history length >= 1");
    fatalIf(cfg.buckets < 2, "GPHT needs at least two buckets");
    history.assign(num_domains, {});
    lastEntry.assign(num_domains, Entry{});
}

std::uint32_t
HistoryController::bucketOf(double sensitivity) const
{
    const double clamped =
        std::clamp(sensitivity, 0.0, cfg.maxSensitivity);
    const double step =
        cfg.maxSensitivity / static_cast<double>(cfg.buckets);
    return std::min<std::uint32_t>(
        static_cast<std::uint32_t>(clamped / step), cfg.buckets - 1);
}

std::vector<dvfs::DomainDecision>
HistoryController::decide(const dvfs::EpochContext &ctx)
{
    const std::uint32_t num_domains = ctx.domains.numDomains();
    panicIf(history.size() != num_domains,
            "GPHT built for a different domain count");

    // Estimate the elapsed epoch per domain with the wavefront STALL
    // model (identical estimation to PCSTALL).
    std::vector<Entry> measured(num_domains);
    for (const gpu::WaveEpochRecord &w : ctx.record.waves) {
        if (!w.active)
            continue;
        const Freq f1 = ctx.record.cus[w.cu].freq;
        Entry &e = measured[ctx.domains.domainOf(w.cu)];
        const WavePhase phase =
            wavePhase(w, cfg.estimator, ctx.epochLen, f1);
        e.sens += phase.sens;
        e.level += phase.level;
    }

    std::vector<double> instr_at(ctx.table.numStates());
    std::vector<dvfs::DomainDecision> out(num_domains);
    for (std::uint32_t d = 0; d < num_domains; ++d) {
        // --- update the pattern table with what actually followed
        //     the previous history ---
        auto &hist = history[d];
        if (hist.size() == cfg.historyLength) {
            std::uint64_t key = 0;
            for (const std::uint32_t b : hist)
                key = hashCombine(key, b);
            auto [it, fresh] = table.try_emplace(key, measured[d]);
            if (!fresh) {
                it->second.sens = (1.0 - cfg.blend) * it->second.sens +
                    cfg.blend * measured[d].sens;
                it->second.level = (1.0 - cfg.blend) * it->second.level +
                    cfg.blend * measured[d].level;
            }
        }

        // --- shift in the elapsed phase and predict the next one ---
        hist.push_back(bucketOf(measured[d].sens));
        if (hist.size() > cfg.historyLength)
            hist.erase(hist.begin());
        lastEntry[d] = measured[d];

        Entry predicted = measured[d]; // last-value fallback
        if (hist.size() == cfg.historyLength) {
            std::uint64_t key = 0;
            for (const std::uint32_t b : hist)
                key = hashCombine(key, b);
            ++lookups;
            const auto it = table.find(key);
            if (ctx.audit) {
                ++ctx.audit->domains[d].lookups;
                // The pattern key is the GPHT analogue of the PC key.
                ctx.audit->domains[d].pcKey = key;
            }
            if (it != table.end()) {
                ++hits;
                if (ctx.audit)
                    ++ctx.audit->domains[d].hits;
                predicted = it->second;
            }
        }

        phaseModelInstrAt(predicted.level, predicted.sens, ctx.table,
                          instr_at);
        out[d] = dvfs::decideDomain(ctx, d, instr_at);
        if (ctx.audit) {
            ctx.audit->domains[d].predictedSens = predicted.sens;
            ctx.audit->domains[d].predictedLevel = predicted.level;
        }
    }
    return out;
}

double
HistoryController::tableHitRatio() const
{
    return lookups == 0 ? 0.0
        : static_cast<double>(hits) / static_cast<double>(lookups);
}

} // namespace pcstall::models
