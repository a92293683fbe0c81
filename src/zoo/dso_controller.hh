/**
 * @file
 * DSO: a static+dynamic fusion DVFS policy after "DSO: A GPU Energy
 * Efficiency Optimizer by Fusing Dynamic and Static Information"
 * (arXiv:2407.13096). The insight transplanted here: static program
 * features predict a kernel's memory intensity before any epoch has
 * run, and fusing that prior with measured dynamic counters is more
 * robust than either alone - the static side fills in where dynamic
 * telemetry is cold or noisy, the dynamic side corrects where the
 * static model mispredicts actual contention.
 *
 * Static side (at construction, from the Application): each kernel
 * launch gets a loop-trip-weighted instruction-mix analysis - every
 * instruction's cost is weighted by the product of the mean trip
 * counts of the loops enclosing it, memory operations cost `memcost`
 * CU cycles against the ALU ops' encoded latencies - yielding a
 * static memory-time fraction per kernel, indexed by code range.
 *
 * Dynamic side (per epoch): the measured STALL decomposition
 * (loadStall / epoch), exactly the baseline reactive telemetry.
 *
 * Fusion (per CU, per epoch): resident waves' PCs map the CU to its
 * kernel's static fraction, and
 *     asyncFrac = beta * static + (1 - beta) * dynamic
 * feeds the standard I(f2) = I * T / (T_async + T_core * f1/f2)
 * scaling model. Without an Application (app-less tooling contexts)
 * the policy degrades to the pure dynamic side after a warn.
 *
 * Config knobs: beta=0.5 (static weight), memcost=400 (static cycles
 * charged per memory op). Divergence watchdog wired to --watchdog.
 */

#ifndef PCSTALL_ZOO_DSO_CONTROLLER_HH
#define PCSTALL_ZOO_DSO_CONTROLLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "models/divergence_watchdog.hh"

namespace pcstall::isa
{
struct Application;
}

namespace pcstall::zoo
{

/** DSO configuration (see file comment). */
struct DsoConfig
{
    /** Weight of the static prior in the fused async fraction. */
    double beta = 0.5;
    /** Static cycle cost charged per vector-memory instruction. */
    double memCostCycles = 400.0;
    /** Divergence watchdog (wired to --watchdog). */
    bool watchdog = false;
};

/** Static + dynamic fusion controller. */
class DsoController : public dvfs::DvfsController
{
  public:
    /** @p app may be null: the policy then runs dynamic-only. */
    DsoController(const DsoConfig &config, const isa::Application *app);

    std::string name() const override { return "DSO"; }

    std::vector<dvfs::DomainDecision>
    decide(const dvfs::EpochContext &ctx) override;

    std::uint64_t watchdogTrips() const override
    {
        return watchdog.trips();
    }
    std::uint64_t fallbackEpochs() const override
    {
        return watchdog.fallbackEpochs();
    }

    /** Distinct kernels with a static profile (test hook). */
    std::size_t staticKernelCount() const { return kernels.size(); }

    /** The static memory-time fraction for a code byte address, or
     *  -1.0 when no kernel covers it (test hook / lookup core). */
    double staticFracAt(std::uint64_t pc_addr) const;

  private:
    /** One kernel's static profile, indexed by code byte range. */
    struct StaticKernel
    {
        std::uint64_t base = 0;
        std::uint64_t end = 0;
        /** Loop-weighted fraction of time spent on memory ops. */
        double memFrac = 0.0;
    };

    DsoConfig cfg;
    /** Sorted by base; deduplicated (launches share code bases). */
    std::vector<StaticKernel> kernels;
    bool warnedNoApp = false;
    /** The latest decision's per-domain predictions at every state:
     *  the watchdog scores them at the next decide(), which then
     *  overwrites them in place (empty until the first decision). */
    std::vector<std::vector<double>> instrAt;
    /** decide() scratch, per CU: the static prior (< 0 = none), its
     *  sum and count over resident waves, and the fused asynchronous
     *  time (< 0 = the CU contributes nothing). */
    std::vector<double> staticFrac;
    std::vector<double> fracSum;
    std::vector<std::uint32_t> fracCount;
    std::vector<double> asyncTime;
    models::DivergenceWatchdog watchdog;
};

} // namespace pcstall::zoo

#endif // PCSTALL_ZOO_DSO_CONTROLLER_HH
