#include "oracle/fork_pre_execute.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "common/stats_util.hh"
#include "obs/context.hh"
#include "oracle/snapshot_pool.hh"
#include "sim/parallel_executor.hh"

namespace pcstall::oracle
{

namespace
{

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
        est.domainInstr[d][state] =
            dvfs::domainCommitted(domains, d, record);
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
            point.freqGHz = scratch.stateGHz[state];
            point.instr = static_cast<double>(w.committed);
            waves.push_back(point);
        }
    }
}

/** Merge key of a wave observation: its (cu, slot) pair, cu major. */
std::uint64_t
pairKey(const WaveSample &w)
{
    return (static_cast<std::uint64_t>(w.cu) << 32) | w.slot;
}

} // namespace

void
reduceWaveFits(const std::vector<std::vector<WaveSample>> &samples,
               SnapshotPool::Scratch &scratch,
               std::vector<dvfs::AccurateEstimates::WaveSens> &out)
{
    const std::size_t num_samples = samples.size();
    std::vector<std::size_t> &pos = scratch.mergePos;
    pos.assign(num_samples, 0);

    // Usually every sample observes the same waves, so the longest
    // list sizes the output.
    std::size_t longest = 0;
    for (const std::vector<WaveSample> &list : samples)
        longest = std::max(longest, list.size());
    out.reserve(out.size() + longest);

    std::vector<WaveSample> &group = scratch.group;
    std::vector<double> &freqs = scratch.fitFreqs;
    std::vector<double> &instr = scratch.fitInstr;
    // No real pair has this key: it needs CU and slot ids of 2^32 - 1.
    constexpr std::uint64_t done = ~std::uint64_t{0};
    while (true) {
        // The smallest (cu, slot) pair under any sample's cursor ...
        std::uint64_t key = done;
        for (std::size_t k = 0; k < num_samples; ++k) {
            if (pos[k] < samples[k].size())
                key = std::min(key, pairKey(samples[k][pos[k]]));
        }
        if (key == done)
            break;
        // ... and its observations, in sample order.
        group.clear();
        for (std::size_t k = 0; k < num_samples; ++k) {
            if (pos[k] < samples[k].size() &&
                pairKey(samples[k][pos[k]]) == key) {
                group.push_back(samples[k][pos[k]++]);
            }
        }

        // Samples disagree on a pair's start PC only where its slot was
        // refilled from another launch during the epoch. Order such a
        // group by startPcAddr with an insertion sort, which is stable
        // (each PC's points stay in sample order) and allocation-free;
        // an agreeing group is already in order and moves nothing.
        for (std::size_t a = 1; a < group.size(); ++a) {
            if (group[a - 1].startPcAddr <= group[a].startPcAddr)
                continue;
            const WaveSample moving = group[a];
            std::size_t b = a;
            for (; b > 0 && group[b - 1].startPcAddr > moving.startPcAddr;
                 --b) {
                group[b] = group[b - 1];
            }
            group[b] = moving;
        }

        for (std::size_t i = 0; i < group.size();) {
            std::size_t j = i + 1;
            while (j < group.size() &&
                   group[j].startPcAddr == group[i].startPcAddr) {
                ++j;
            }
            if (j - i >= 3) {
                freqs.clear();
                instr.clear();
                for (std::size_t p = i; p < j; ++p) {
                    freqs.push_back(group[p].freqGHz);
                    instr.push_back(group[p].instr);
                }
                const LinearFit fit = linearFit(freqs, instr);
                dvfs::AccurateEstimates::WaveSens ws;
                ws.cu = group[i].cu;
                ws.slot = group[i].slot;
                ws.startPcAddr = group[i].startPcAddr;
                ws.sensitivity = fit.slope;
                ws.level = std::max(fit.intercept, 0.0);
                // Last write wins: the highest sample index that
                // observed the wave supplies the age rank.
                ws.ageRank = group[j - 1].ageRank;
                out.push_back(ws);
            }
            i = j;
        }
    }
}

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

    // A caller's pool runs the samples on L = min(threads, S) lanes:
    // lane l takes samples l, l + L, ... in turn on the one scratch
    // chip and harvest record it owns, restoring the chip before each
    // sample, and is pre-warmed so its (possibly parallel, timed)
    // restores never copy-construct. Without one the sweep uses a
    // pool of its own with a lane per sample, whose first-use restores
    // are the per-sample deep copies.
    sim::ParallelExecutor *exec = options.executor;
    const std::size_t threads = exec ? exec->threadCount() : 1;
    const std::size_t lanes = options.pool
        ? std::min(threads, num_states) : num_states;
    SnapshotPool local_pool;
    SnapshotPool &pool = options.pool ? *options.pool : local_pool;
    if (options.pool)
        pool.ensureSlots(lanes, chip);
    else
        pool.ensureSlots(lanes);

    SnapshotPool::Scratch &scratch = pool.scratch();
    scratch.stateFreq.resize(num_states);
    scratch.stateGHz.resize(num_states);
    for (std::size_t s = 0; s < num_states; ++s) {
        scratch.stateFreq[s] = table.state(s).freq;
        scratch.stateGHz[s] = freqGHzD(scratch.stateFreq[s]);
    }
    scratch.sampleWallNs.resize(num_states);
    scratch.sampleWaves.resize(num_states);

    auto run_lane = [&](std::size_t lane) {
        gpu::EpochRecord &record = pool.record(lane);
        for (std::size_t k = lane; k < num_states; k += lanes) {
            const std::int64_t fork_t0 = obs::nowNsIfEnabled();
            gpu::GpuChip &sample = pool.restore(lane, chip);
            if (verify) {
                panicIf(sample.stateFingerprint() != base_fp,
                        "snapshot pool restore diverged from the source "
                        "chip");
            }
            runOneSample(k, sample, record, scratch.sampleWaves[k],
                         domains, start, epoch_len, options, num_states,
                         scratch, est);
            scratch.sampleWallNs[k] =
                fork_t0 >= 0 ? obs::nowNsIfEnabled() - fork_t0 : -1;
        }
    };

    // With two or more threads the executor's workers run the lanes
    // and this thread only waits.
    if (threads > 1 && lanes > 1) {
        exec->forEach(lanes, run_lane);
    } else {
        for (std::size_t lane = 0; lane < lanes; ++lane)
            run_lane(lane);
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
        reduceWaveFits(scratch.sampleWaves, scratch, est.waves);

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
