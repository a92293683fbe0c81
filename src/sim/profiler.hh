/**
 * @file
 * The sensitivity profiler behind the paper's characterization
 * studies (Figures 5-11): run an application at a static frequency
 * and, at every epoch boundary, fork-pre-execute the upcoming epoch
 * across all V/f states to measure the true per-domain I(f) curves
 * and per-wavefront sensitivities, then continue real execution.
 */

#ifndef PCSTALL_SIM_PROFILER_HH
#define PCSTALL_SIM_PROFILER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "dvfs/controller.hh"
#include "gpu/gpu_config.hh"
#include "isa/kernel.hh"
#include "oracle/fork_pre_execute.hh"
#include "power/vf_table.hh"

namespace pcstall::sim
{

/** Profiler configuration. */
struct ProfileConfig
{
    gpu::GpuConfig gpu;
    Tick epochLen = tickUs;
    std::uint32_t cusPerDomain = 1;
    /** Static frequency real execution runs at. */
    Freq staticFreq = 1'700 * freqMHz;
    /** Use the wide 1.0-3.0 GHz table (Figure 5's range). */
    bool wideTable = false;
    /** Regress per-wavefront sensitivities too. */
    bool waveLevel = true;
    /** Shuffle frequencies across domains during sweeps (paper's
     *  methodology). Disable for low-noise wave-level studies. */
    bool shuffle = true;
    /** Stop after this many epochs (0 = run to completion). */
    std::size_t maxEpochs = 0;
    Tick maxSimTime = 20 * tickMs;
    /** Profile only every Nth epoch (sampling; 1 = every epoch). */
    std::size_t sampleEvery = 1;
    /** Worker threads for in-cell sample parallelism (<= 1 serial). */
    unsigned oracleThreads = 1;
};

/** Everything measured for one profiled epoch. */
struct EpochProfile
{
    Tick start = 0;
    /** Per-domain linear fit of I(f): slope, intercept, R^2. */
    std::vector<oracle::DomainSensitivity> domains;
    /** Per-domain instructions at every sampled state. */
    std::vector<std::vector<double>> domainInstr;
    /** Per-wavefront regressed sensitivities. */
    std::vector<dvfs::AccurateEstimates::WaveSens> waves;
};

/** A full profile of one application. */
struct ProfileResult
{
    std::vector<EpochProfile> epochs;
    power::VfTable table = power::VfTable::paperTable();

    /** Series of one domain's sensitivity across profiled epochs. */
    std::vector<double> domainSeries(std::uint32_t domain) const;
};

/** Runs sensitivity profiles. */
class SensitivityProfiler
{
  public:
    explicit SensitivityProfiler(const ProfileConfig &config);

    ProfileResult profile(std::shared_ptr<const isa::Application> app);

  private:
    ProfileConfig cfg;
};

} // namespace pcstall::sim

#endif // PCSTALL_SIM_PROFILER_HH
