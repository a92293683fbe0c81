#include "sim/profiler.hh"

#include <memory>

#include "common/logging.hh"
#include "gpu/gpu_chip.hh"
#include "oracle/snapshot_pool.hh"
#include "sim/parallel_executor.hh"

namespace pcstall::sim
{

std::vector<double>
ProfileResult::domainSeries(std::uint32_t domain) const
{
    std::vector<double> series;
    series.reserve(epochs.size());
    for (const EpochProfile &ep : epochs) {
        panicIf(domain >= ep.domains.size(),
                "domainSeries: bad domain index");
        series.push_back(ep.domains[domain].sensitivity);
    }
    return series;
}

SensitivityProfiler::SensitivityProfiler(const ProfileConfig &config)
    : cfg(config)
{
    fatalIf(cfg.epochLen <= 0, "profiler epoch length must be positive");
    fatalIf(cfg.sampleEvery == 0, "profiler sampleEvery must be >= 1");
}

ProfileResult
SensitivityProfiler::profile(
    std::shared_ptr<const isa::Application> app)
{
    gpu::GpuConfig gpu_cfg = cfg.gpu;
    gpu_cfg.defaultFreq = cfg.staticFreq;
    gpu::GpuChip chip(gpu_cfg, app);

    const dvfs::DomainMap domains(gpu_cfg.numCus, cfg.cusPerDomain);

    ProfileResult result;
    result.table = cfg.wideTable ? power::VfTable::wideTable()
                                 : power::VfTable::paperTable();
    oracle::SnapshotPool pool;
    std::unique_ptr<ParallelExecutor> exec;
    if (cfg.oracleThreads > 1)
        exec = std::make_unique<ParallelExecutor>(cfg.oracleThreads);
    oracle::SweepOptions opts;
    opts.shuffle = cfg.shuffle;
    opts.waveLevel = cfg.waveLevel;
    opts.pool = &pool;
    opts.executor = exec.get();

    Tick epoch_start = 0;
    std::size_t epoch_index = 0;
    gpu::EpochRecord harvest_scratch;
    while (epoch_start < cfg.maxSimTime) {
        if (cfg.maxEpochs > 0 && result.epochs.size() >= cfg.maxEpochs)
            break;

        if (epoch_index % cfg.sampleEvery == 0) {
            const dvfs::AccurateEstimates est = oracle::forkPreExecuteSweep(
                chip, domains, result.table, cfg.epochLen, opts);

            EpochProfile ep;
            ep.start = epoch_start;
            ep.domainInstr = est.domainInstr;
            ep.waves = est.waves;
            ep.domains.reserve(domains.numDomains());
            for (std::uint32_t d = 0; d < domains.numDomains(); ++d) {
                ep.domains.push_back(
                    oracle::domainSensitivity(est, result.table, d));
            }
            result.epochs.push_back(std::move(ep));
        }

        const bool done = chip.runUntil(epoch_start + cfg.epochLen);
        chip.harvestEpoch(epoch_start, harvest_scratch);
        epoch_start += cfg.epochLen;
        ++epoch_index;
        if (done)
            break;
    }
    return result;
}

} // namespace pcstall::sim
