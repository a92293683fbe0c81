#include "core/pcstall_controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "faults/fault_injector.hh"

namespace pcstall::core
{

PcstallConfig
PcstallConfig::forEpoch(Tick epoch_len, std::uint32_t wave_slots)
{
    PcstallConfig cfg;
    cfg.estimator.waveSlots = wave_slots;
    // The table stores age-normalized (intrinsic) sensitivities: what
    // the wave would contribute were it the oldest. That is bounded
    // by roughly (epoch cycles per SIMD issue share) / f_GHz; scale
    // the 8-bit quantization range with the epoch so resolution stays
    // proportionate.
    const double epoch_us =
        static_cast<double>(epoch_len) / static_cast<double>(tickUs);
    cfg.table.maxSensitivity = 256.0 * std::max(epoch_us, 0.125);
    cfg.table.maxLevel = 512.0 * std::max(epoch_us, 0.125);
    // Per-wave estimates carry scheduling noise at microsecond
    // windows; blending successive updates into the shared entry
    // filters it (a hardware-cheap shift-add).
    cfg.table.updateBlend = 0.5;
    return cfg;
}

PcstallController::PcstallController(const PcstallConfig &config,
                                     std::uint32_t num_cus)
    : cfg(config), watchdog(cfg.watchdog)
{
    fatalIf(cfg.cusPerTable == 0, "PCSTALL needs >= 1 CU per table");
    fatalIf(num_cus % cfg.cusPerTable != 0,
            "PCSTALL: CU count must divide evenly across PC tables");
    const std::uint32_t num_tables = num_cus / cfg.cusPerTable;
    tables.reserve(num_tables);
    for (std::uint32_t i = 0; i < num_tables; ++i)
        tables.emplace_back(cfg.table);
    modelStride = std::max<std::size_t>(cfg.estimator.waveSlots, 1);
    lastModel.resize(num_cus * modelStride);
}

void
PcstallController::storeModel(std::uint32_t cu, std::uint32_t slot,
                              const models::WavePhase &phase,
                              std::uint64_t granule)
{
    if (slot >= modelStride) {
        // A slot past the configured count: widen every CU's row,
        // keeping the entries this epoch has already written.
        const std::size_t rows = lastModel.size() / modelStride;
        const std::size_t stride = std::size_t{slot} + 1;
        std::vector<WaveModel> wider(rows * stride);
        for (std::size_t row = 0; row < rows; ++row) {
            std::copy_n(lastModel.begin() + row * modelStride,
                        modelStride, wider.begin() + row * stride);
        }
        lastModel.swap(wider);
        modelStride = stride;
    }
    lastModel[cu * modelStride + slot] =
        {phase.sens, phase.level, granule, epochStamp};
}

const PcstallController::WaveModel *
PcstallController::findModel(std::uint32_t cu, std::uint32_t slot) const
{
    if (slot >= modelStride)
        return nullptr;
    const WaveModel &model = lastModel[cu * modelStride + slot];
    return model.epoch == epochStamp ? &model : nullptr;
}

std::string
PcstallController::name() const
{
    return cfg.accurateEstimates ? "ACCPC" : "PCSTALL";
}

double
PcstallController::contention(std::uint32_t age_rank) const
{
    if (!cfg.adaptiveContention || ageShare.empty())
        return models::contentionFactor(cfg.estimator, age_rank);
    const std::size_t idx = std::min<std::size_t>(
        age_rank, ageShare.size() - 1);
    return ageShare[idx];
}

void
PcstallController::learnContention(const dvfs::EpochContext &ctx)
{
    if (!cfg.adaptiveContention)
        return;
    // Per-age committed sums across the whole GPU this epoch.
    std::vector<double> &by_age = ageCommitted;
    std::vector<double> &count = ageCount;
    by_age.assign(cfg.estimator.waveSlots, 0.0);
    count.assign(cfg.estimator.waveSlots, 0.0);
    for (const gpu::WaveEpochRecord &w : ctx.record.waves) {
        if (!w.active)
            continue;
        const std::size_t idx = std::min<std::size_t>(
            w.ageRank, by_age.size() - 1);
        by_age[idx] += static_cast<double>(w.committed);
        count[idx] += 1.0;
    }
    double peak = 0.0;
    for (std::size_t a = 0; a < by_age.size(); ++a) {
        if (count[a] > 0.0)
            by_age[a] /= count[a];
        peak = std::max(peak, by_age[a]);
    }
    if (peak <= 0.0)
        return;

    const bool first = ageShare.empty();
    if (first)
        ageShare.assign(cfg.estimator.waveSlots, 1.0);
    for (std::size_t a = 0; a < ageShare.size(); ++a) {
        if (count[a] == 0.0)
            continue; // no observation for this rank this epoch
        const double share =
            std::clamp(by_age[a] / peak, 0.02, 1.0);
        // Adopt the first observation outright, then track slowly.
        ageShare[a] = first ? share
            : (1.0 - cfg.contentionAlpha) * ageShare[a] +
              cfg.contentionAlpha * share;
    }
}

void
PcstallController::observeWatchdog(const dvfs::EpochContext &ctx)
{
    if (!watchdog.enabled() || domainSens.empty())
        return;

    // Telemetry plausibility: the GPU model clips every time-class
    // counter at the epoch boundary, so every clean record satisfies
    // these per-CU invariants exactly (see ComputeUnit epoch harvest).
    // Independently corrupted counters violate them whenever the two
    // sides are close. The tolerance absorbs the one issue slot that
    // may straddle the boundary.
    const Tick span = ctx.record.end - ctx.record.start;
    const Tick tol = span / 64;
    const bool implausible = std::any_of(
        ctx.record.cus.begin(), ctx.record.cus.end(),
        [&](const gpu::CuEpochRecord &cu) {
            return cu.loadStall + cu.storeStall > span + tol ||
                cu.overlap > cu.busy + tol ||
                cu.leadLoad > cu.memInterval + tol ||
                cu.memInterval > span + tol;
        });

    // Score the previous epoch's phase model at the frequency each
    // domain actually ran, so realized-but-not-requested states (DVFS
    // transition faults) do not read as prediction error.
    for (std::uint32_t d = 0; d < ctx.domains.numDomains(); ++d) {
        const Freq f = ctx.record.cus[ctx.domains.firstCu(d)].freq;
        watchdog.score(
            models::phaseModelInstr(domainLevel[d], domainSens[d], f),
            dvfs::domainCommitted(ctx.domains, d, ctx.record));
    }
    watchdog.endEpoch(implausible);
}

std::vector<dvfs::DomainDecision>
PcstallController::decide(const dvfs::EpochContext &ctx)
{
    observeWatchdog(ctx);
    learnContention(ctx);

    // ------------------------------------------------------------------
    // UPDATE: store each wave's elapsed-epoch sensitivity, normalized
    // by its scheduling age, at its starting PC.
    // ------------------------------------------------------------------
    const std::uint32_t offset = cfg.table.offsetBits;
    auto granule_of = [offset](std::uint64_t pc_addr) {
        return pc_addr >> offset;
    };

    ++epochStamp; // empties lastModel
    if (cfg.accurateEstimates) {
        panicIf(ctx.elapsedAccurate == nullptr,
                "ACCPC requires elapsed-epoch accurate estimates");
        for (const auto &ws : ctx.elapsedAccurate->waves) {
            const double c = contention(ws.ageRank);
            tableFor(ws.cu).update(ws.startPcAddr,
                                   std::max(ws.sensitivity, 0.0) / c,
                                   ws.level / c);
            storeModel(ws.cu, ws.slot,
                       {std::max(ws.sensitivity, 0.0), ws.level},
                       granule_of(ws.startPcAddr));
        }
    } else {
        for (const gpu::WaveEpochRecord &w : ctx.record.waves) {
            if (!w.active)
                continue;
            // A wave that committed almost nothing while not being
            // memory/barrier-blocked was starved of issue slots by
            // older waves; its epoch says nothing about the code at
            // its PC, so do not pollute the shared table entry.
            if (w.committed < 4 &&
                w.memStall + w.barrierStall < ctx.epochLen / 2) {
                continue;
            }
            const Freq f1 = ctx.record.cus[w.cu].freq;
            const models::WavePhase phase = models::wavePhase(
                w, cfg.estimator, ctx.epochLen, f1);
            const double c = contention(w.ageRank);
            tableFor(w.cu).update(w.startPcAddr, phase.sens / c,
                                  phase.level / c);
            storeModel(w.cu, w.slot, phase, granule_of(w.startPcAddr));
        }
    }

    // ------------------------------------------------------------------
    // LOOKUP: each resident wave predicts the next epoch's phase model
    // I(f) = I0 + S*f from its next PC; models sum per domain (the
    // metric is commutative, Section 4.2).
    // ------------------------------------------------------------------
    // The shadow the watchdog scored is consumed: this epoch's phase
    // model replaces it, even when the fallback decides, so the
    // watchdog keeps scoring the predictor in the background and a
    // recovered table can win control back.
    domainSens.assign(ctx.domains.numDomains(), 0.0);
    domainLevel.assign(ctx.domains.numDomains(), 0.0);
    for (const gpu::WaveSnapshot &snap : ctx.snapshots) {
        const WaveModel *own = findModel(snap.cu, snap.slot);
        const bool same_region =
            own != nullptr && own->granule == granule_of(snap.pcAddr);
        const std::uint32_t d = ctx.domains.domainOf(snap.cu);
        dvfs::DomainAudit *aud =
            ctx.audit ? &ctx.audit->domains[d] : nullptr;
        if (aud && aud->pcKey == 0)
            aud->pcKey = snap.pcAddr;

        double sens = 0.0;
        double level = 0.0;
        if (cfg.lookupOnRegionChange && same_region) {
            // The wave is still in the region its last epoch started
            // in: its own fresh estimate beats the (older, shared)
            // table entry.
            sens = own->sens;
            level = own->level;
            if (aud)
                ++aud->sameRegion;
        } else if (const auto hit =
                       tableFor(snap.cu).lookup(snap.pcAddr)) {
            const double c = contention(snap.ageRank);
            sens = hit->sensitivity * c;
            level = hit->level * c;
            if (aud) {
                ++aud->lookups;
                ++aud->hits;
            }
        } else {
            if (aud)
                ++aud->lookups;
            if (cfg.reactiveFallback && own != nullptr) {
                sens = own->sens;
                level = own->level;
                if (aud)
                    ++aud->reactive;
            }
        }
        domainSens[d] += sens;
        domainLevel[d] += level;
    }

    if (ctx.audit) {
        for (std::uint32_t d = 0; d < ctx.domains.numDomains(); ++d) {
            ctx.audit->domains[d].predictedSens = domainSens[d];
            ctx.audit->domains[d].predictedLevel = domainLevel[d];
        }
    }

    if (watchdog.inFallback())
        return watchdog.decideFallback(ctx);

    // ------------------------------------------------------------------
    // SELECT: I(f) = I0 + S * f, objective-driven (the frequency
    // choice itself is orthogonal to the prediction, Section 5.2).
    // ------------------------------------------------------------------
    instrAt.resize(ctx.table.numStates());
    std::vector<dvfs::DomainDecision> out(ctx.domains.numDomains());
    for (std::uint32_t d = 0; d < ctx.domains.numDomains(); ++d) {
        models::phaseModelInstrAt(domainLevel[d], domainSens[d],
                                  ctx.table, instrAt);
        out[d] = dvfs::decideDomain(ctx, d, instrAt);
    }
    return out;
}

void
PcstallController::applyStorageFaults(faults::FaultInjector &injector)
{
    for (predict::PcSensitivityTable &t : tables)
        bitFlips_ += injector.corrupt(t);
}

std::uint64_t
PcstallController::storageScrubs() const
{
    std::uint64_t total = 0;
    for (const auto &t : tables)
        total += t.scrubCount();
    return total;
}

double
PcstallController::tableHitRatio() const
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    for (const auto &t : tables) {
        lookups += t.lookupCount();
        hits += t.lookupHitCount();
    }
    return lookups == 0 ? 0.0
        : static_cast<double>(hits) / static_cast<double>(lookups);
}

std::uint64_t
PcstallController::storageBytes() const
{
    std::uint64_t total = 0;
    for (const auto &t : tables)
        total += t.storageBytes();
    return total;
}

} // namespace pcstall::core
