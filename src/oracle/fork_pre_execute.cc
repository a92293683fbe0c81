#include "oracle/fork_pre_execute.hh"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "common/logging.hh"
#include "common/stats_util.hh"
#include "obs/context.hh"
#include "oracle/snapshot_pool.hh"
#include "sim/parallel_executor.hh"

namespace pcstall::oracle
{

namespace
{

/** Ordering of flattened wave observations: wave identity first, then
 *  sample index. Grouping by the first three fields reproduces the
 *  legacy std::map<(cu, slot, startPcAddr)> iteration order, and the
 *  sampleIndex tiebreak reproduces the legacy per-group push order
 *  (points were appended as k ascended), so the regression inputs -
 *  and therefore the fitted doubles - are bit-for-bit identical. */
bool
waveSampleLess(const WaveSample &a, const WaveSample &b)
{
    return std::tie(a.cu, a.slot, a.startPcAddr, a.sampleIndex) <
           std::tie(b.cu, b.slot, b.startPcAddr, b.sampleIndex);
}

bool
sameWave(const WaveSample &a, const WaveSample &b)
{
    return a.cu == b.cu && a.slot == b.slot &&
           a.startPcAddr == b.startPcAddr;
}

/** Per-sample work shared by the serial and parallel paths: pin
 *  each domain to its sample frequency, pre-execute the epoch,
 *  and harvest domain instruction counts plus wave observations. */
void
runOneSample(std::size_t k, gpu::GpuChip &sample,
             gpu::EpochRecord &record, std::vector<WaveSample> &waves,
             const dvfs::DomainMap &domains, Tick start, Tick epoch_len,
             const SweepOptions &options, std::size_t num_states,
             const SnapshotPool::Scratch &scratch,
             dvfs::AccurateEstimates &est)
{
    const std::uint32_t num_domains = domains.numDomains();

    // Sampling processes transition instantaneously: the paper's
    // methodology measures the work segment itself, not the
    // IVR settle time.
    for (std::uint32_t d = 0; d < num_domains; ++d) {
        const std::size_t state = options.shuffle
            ? (k + d) % num_states : k;
        const Freq freq = scratch.stateFreq[state];
        const std::uint32_t first = domains.firstCu(d);
        for (std::uint32_t cu = first;
             cu < first + domains.cusPerDomain(); ++cu) {
            sample.setCuFrequency(cu, freq, 0);
        }
    }

    sample.runUntil(start + epoch_len);
    sample.harvestEpoch(start, record);

    // Each (d, state) cell is written by exactly one sample (the
    // shuffle is a bijection per domain), so concurrent samples touch
    // disjoint elements of the pre-sized estimate matrix.
    for (std::uint32_t d = 0; d < num_domains; ++d) {
        const std::size_t state = options.shuffle
            ? (k + d) % num_states : k;
        double committed = 0.0;
        const std::uint32_t first = domains.firstCu(d);
        for (std::uint32_t cu = first;
             cu < first + domains.cusPerDomain(); ++cu) {
            committed += static_cast<double>(record.cus[cu].committed);
        }
        est.domainInstr[d][state] = committed;
    }

    if (options.waveLevel) {
        waves.clear();
        if (waves.capacity() < record.waves.size())
            waves.reserve(record.waves.size());
        for (const gpu::WaveEpochRecord &w : record.waves) {
            if (!w.active)
                continue;
            const std::size_t state = options.shuffle
                ? (k + domains.domainOf(w.cu)) % num_states : k;
            WaveSample point;
            point.cu = w.cu;
            point.slot = w.slot;
            point.startPcAddr = w.startPcAddr;
            point.ageRank = w.ageRank;
            point.sampleIndex = static_cast<std::uint32_t>(k);
            point.freqGHz = scratch.stateGHz[state];
            point.instr = static_cast<double>(w.committed);
            waves.push_back(point);
        }
    }
}

/** Merge the per-sample wave observations into per-wave linear fits.
 *  Runs on the calling thread after all samples complete; the sort
 *  gives the same visit order as the legacy map-based reduction. */
void
reduceWaveFits(SnapshotPool &pool, std::size_t num_states,
               SnapshotPool::Scratch &scratch,
               dvfs::AccurateEstimates &est)
{
    std::vector<WaveSample> &merged = scratch.merged;
    merged.clear();
    std::size_t total = 0;
    for (std::size_t k = 0; k < num_states; ++k)
        total += pool.waves(k).size();
    if (merged.capacity() < total)
        merged.reserve(total);
    for (std::size_t k = 0; k < num_states; ++k) {
        const std::vector<WaveSample> &waves = pool.waves(k);
        merged.insert(merged.end(), waves.begin(), waves.end());
    }
    std::sort(merged.begin(), merged.end(), waveSampleLess);

    // Exact reservation: count groups with enough points to fit.
    std::size_t groups = 0;
    for (std::size_t i = 0; i < merged.size();) {
        std::size_t j = i + 1;
        while (j < merged.size() && sameWave(merged[i], merged[j]))
            ++j;
        if (j - i >= 3)
            ++groups;
        i = j;
    }
    if (est.waves.capacity() < groups)
        est.waves.reserve(groups);

    std::vector<double> &freqs = scratch.fitFreqs;
    std::vector<double> &instr = scratch.fitInstr;
    for (std::size_t i = 0; i < merged.size();) {
        std::size_t j = i + 1;
        while (j < merged.size() && sameWave(merged[i], merged[j]))
            ++j;
        if (j - i >= 3) {
            freqs.clear();
            instr.clear();
            if (freqs.capacity() < j - i) {
                freqs.reserve(j - i);
                instr.reserve(j - i);
            }
            for (std::size_t p = i; p < j; ++p) {
                freqs.push_back(merged[p].freqGHz);
                instr.push_back(merged[p].instr);
            }
            const LinearFit fit = linearFit(freqs, instr);
            dvfs::AccurateEstimates::WaveSens ws;
            ws.cu = merged[i].cu;
            ws.slot = merged[i].slot;
            ws.startPcAddr = merged[i].startPcAddr;
            ws.sensitivity = fit.slope;
            ws.level = std::max(fit.intercept, 0.0);
            // Legacy last-write-wins: the highest sample index that
            // observed the wave supplies the age rank.
            ws.ageRank = merged[j - 1].ageRank;
            est.waves.push_back(ws);
        }
        i = j;
    }
}

} // namespace

dvfs::AccurateEstimates
forkPreExecuteSweep(const gpu::GpuChip &chip,
                    const dvfs::DomainMap &domains,
                    const power::VfTable &table, Tick epoch_len,
                    const SweepOptions &options)
{
    const std::size_t num_states = table.numStates();
    const Tick start = chip.now();

    obs::Registry *registry = nullptr;
    obs::Histogram *fork_wall = nullptr;
    if (obs::metricsEnabled()) {
        registry = &obs::reg();
        registry->counter("oracle.sweeps").add(1);
        registry->counter("oracle.forks").add(num_states);
        fork_wall = &registry->histogram("oracle.fork_wall_ns",
                                         obs::MetricKind::Timing);
    }

    // Per-sample restore verification: always on in verify builds
    // (Debug, or -DPCSTALL_VERIFY=ON as in the sanitizer CI); opt-in
    // per sweep otherwise. Fingerprinting every restored chip costs
    // more than the restore itself, so release builds default it off.
    const bool verify = verifyBuild || options.verifyRestore;
    const std::uint64_t base_fp =
        verify ? chip.stateFingerprint() : 0;

    dvfs::AccurateEstimates est;
    est.domainInstr.assign(domains.numDomains(),
                           std::vector<double>(num_states, 0.0));

    // A caller's pool is pre-warmed so its (possibly parallel, timed)
    // restores never copy-construct. Without one the sweep uses a
    // pool of its own, whose first-use restores are the per-sample
    // deep copies.
    SnapshotPool local_pool;
    SnapshotPool &pool = options.pool ? *options.pool : local_pool;
    if (options.pool)
        pool.ensureSlots(num_states, chip);
    else
        pool.ensureSlots(num_states);

    SnapshotPool::Scratch &scratch = pool.scratch();
    scratch.stateFreq.resize(num_states);
    scratch.stateGHz.resize(num_states);
    for (std::size_t s = 0; s < num_states; ++s) {
        scratch.stateFreq[s] = table.state(s).freq;
        scratch.stateGHz[s] = freqGHzD(scratch.stateFreq[s]);
    }
    scratch.sampleWallNs.resize(num_states);

    auto run_sample = [&](std::size_t k) {
        const std::int64_t fork_t0 = obs::nowNsIfEnabled();
        gpu::GpuChip &sample = pool.restore(k, chip);
        if (verify) {
            panicIf(sample.stateFingerprint() != base_fp,
                    "snapshot pool restore diverged from the source "
                    "chip");
        }
        runOneSample(k, sample, pool.record(k), pool.waves(k), domains,
                     start, epoch_len, options, num_states, scratch, est);
        scratch.sampleWallNs[k] =
            fork_t0 >= 0 ? obs::nowNsIfEnabled() - fork_t0 : -1;
    };

    sim::ParallelExecutor *exec = options.executor;
    if (exec && exec->threadCount() > 1 && num_states > 1) {
        exec->forEach(num_states, run_sample);
    } else {
        for (std::size_t k = 0; k < num_states; ++k)
            run_sample(k);
    }

    // Metrics are recorded after the batch, in sample order, so the
    // histogram contents do not depend on execution interleaving.
    if (fork_wall) {
        for (std::size_t k = 0; k < num_states; ++k) {
            const std::int64_t wall = scratch.sampleWallNs[k];
            if (wall < 0)
                continue;
            fork_wall->record(wall);
            // Keyed by the sample's base state (domain 0's state; with
            // shuffle, domain d runs state (k + d) mod S this sample).
            // Room for any %zu (20 digits) after the 21-char prefix.
            char name[48];
            std::snprintf(name, sizeof(name),
                          "oracle.fork_wall_ns.s%02zu", k);
            registry->histogram(name, obs::MetricKind::Timing)
                .record(wall);
        }
    }

    if (options.waveLevel)
        reduceWaveFits(pool, num_states, scratch, est);

    if (verify) {
        panicIf(chip.stateFingerprint() != base_fp,
                "forkPreExecuteSweep mutated its input chip");
    }

    return est;
}

DomainSensitivity
domainSensitivity(const dvfs::AccurateEstimates &est,
                  const power::VfTable &table, std::uint32_t domain)
{
    panicIf(domain >= est.domainInstr.size(),
            "domainSensitivity: bad domain");
    std::vector<double> freqs;
    std::vector<double> instr;
    for (std::size_t s = 0; s < table.numStates(); ++s) {
        freqs.push_back(freqGHzD(table.state(s).freq));
        instr.push_back(est.domainInstr[domain][s]);
    }
    const LinearFit fit = linearFit(freqs, instr);
    DomainSensitivity out;
    out.sensitivity = fit.slope;
    out.intercept = fit.intercept;
    out.r2 = fit.r2;
    return out;
}

} // namespace pcstall::oracle
