/**
 * @file
 * The experiment driver: runs an application on the simulated GPU
 * under a DVFS controller at a fixed epoch length, accounting energy,
 * delay, prediction accuracy and frequency residency - everything the
 * paper's evaluation figures are computed from.
 */

#ifndef PCSTALL_SIM_EXPERIMENT_HH
#define PCSTALL_SIM_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dvfs/controller.hh"
#include "dvfs/domain_map.hh"
#include "faults/fault_config.hh"
#include "gpu/gpu_chip.hh"
#include "obs/provenance.hh"
#include "power/power_model.hh"
#include "power/vf_table.hh"

namespace pcstall::sim
{

/**
 * Scale the memory system and its static power to a GPU of
 * @p num_cus compute units. The paper's 64-CU GPU has 16 L2 banks,
 * 4 MiB of L2, 8 DRAM channels and ~28 W of memory-domain static
 * power; smaller experimental configurations get a proportionally
 * smaller memory subsystem so per-CU bandwidth pressure and the
 * energy split stay representative.
 */
void scaleToCus(gpu::GpuConfig &gpu_cfg, power::PowerParams &power_cfg,
                std::uint32_t num_cus);

/** Kept only so perfbench/traced.cc compiles: the oracle has one
 *  snapshot path (oracle::SnapshotPool::restore), so both names are
 *  the same value. */
enum class OracleMode
{
    Pool,
    PoolFull = Pool,
};

/** Configuration of one experiment run. */
struct RunConfig
{
    gpu::GpuConfig gpu;
    /** DVFS epoch length. */
    Tick epochLen = tickUs;
    /** CUs per V/f domain (1 in most of the paper's evaluation). */
    std::uint32_t cusPerDomain = 1;
    dvfs::Objective objective = dvfs::Objective::Ed2p;
    /** For the EnergyUnderPerfBound objective. */
    double perfDegradationLimit = 0.05;
    power::PowerParams power;
    /** Nominal frequency: static baseline anchor (paper: 1.7 GHz). */
    Freq nominalFreq = 1'700 * freqMHz;
    /** Hard wall so a mis-sized workload cannot run forever. */
    Tick maxSimTime = 20 * tickMs;
    /**
     * V/f transition stall applied on a frequency change; negative
     * means "derive from the epoch length" (paper Section 5).
     */
    Tick transitionLatency = -1;
    /** Record a per-epoch trace (frequency residency, work). */
    bool collectTrace = false;
    /** Fault injection (all classes disabled by default). */
    faults::FaultConfig faults;
    /** Enable the PCSTALL divergence watchdog (STALL fallback). */
    bool watchdogFallback = false;
    /** Parity-protect PC tables (scrub corrupted entries on lookup). */
    bool eccProtectTables = false;
    /** Kept only so perfbench/traced.cc compiles; nothing can set
     *  it. */
    static constexpr OracleMode oracleMode = OracleMode::Pool;
    /** Worker threads for in-cell oracle sample parallelism (<= 1 =
     *  serial; results are independent of the thread count). */
    unsigned oracleThreads = 1;
    /**
     * Wall-clock deadline (obs::steadyNowNs). Past it, the run stops
     * at the next epoch boundary by throwing FatalError - the sweep's
     * --cell-timeout enforcement. 0 (the default) means no deadline,
     * and the run reads no clock for it.
     */
    std::int64_t deadlineNs = 0;
    /**
     * Score every decision's hindsight regret into RunResult::regret
     * (summary only; no per-epoch records are retained). Cheap but
     * not free - off by default so plain sweeps pay only one branch
     * per epoch. Implied by a non-null @ref provenance sink.
     */
    bool auditRegret = false;
    /**
     * Decision-provenance sink (not owned). When non-null the run
     * appends its full DecisionRecord stream, meta and regret rollup
     * there (docs/provenance.md); the caller serializes it as a PCPV
     * sidecar. Null (the default) retains nothing.
     */
    obs::ProvenanceLog *provenance = nullptr;

    /** Apply scaleToCus() for the configured CU count. */
    RunConfig &scaled()
    {
        scaleToCus(gpu, power, gpu.numCus);
        return *this;
    }
};

/** Per-epoch trace entry (when RunConfig::collectTrace is set). */
struct EpochTraceEntry
{
    Tick start = 0;
    /** Chosen V/f state per domain for the epoch. */
    std::vector<std::uint8_t> domainState;
    /** Instructions committed per domain in the epoch. */
    std::vector<double> domainCommitted;
    /** Injected faults / repairs observed this epoch. */
    gpu::FaultEpochCounters faults;
};

/** Lifetime fault/degradation counters of one run. */
struct FaultSummary
{
    /** Telemetry counters whose observed value was perturbed. */
    std::uint64_t telemetryPerturbations = 0;
    /** Telemetry counters that dropped out (read as zero). */
    std::uint64_t telemetryDropouts = 0;
    /** Requested V/f changes that transiently failed. */
    std::uint64_t transitionFailures = 0;
    /** Extra settle latency paid across all transitions. */
    Tick transitionExtraLatency = 0;
    /** Bits flipped in predictor storage. */
    std::uint64_t tableBitFlips = 0;
    /** Corrupted entries caught and scrubbed by parity. */
    std::uint64_t tableScrubs = 0;
    /** Illegal controller decisions repaired by the driver. */
    std::uint64_t clampedDecisions = 0;
    /** Times the divergence watchdog tripped into its fallback. */
    std::uint64_t watchdogTrips = 0;
    /** Epochs decided by the fallback policy. */
    std::uint64_t fallbackEpochs = 0;
};

/** Results of one run. */
struct RunResult
{
    std::string controller;
    std::string workload;
    /** True when the application ran to completion within the wall. */
    bool completed = false;
    /** Number of DVFS epochs executed. */
    std::size_t epochs = 0;
    /** Time of the last committed instruction. */
    Tick execTime = 0;
    /** Total energy to completion. */
    Joules energy = 0.0;
    /** Total instructions committed. */
    std::uint64_t instructions = 0;
    /** Mean per-epoch prediction accuracy in [0, 1] (see below). */
    double predictionAccuracy = 0.0;
    /** Number of per-CU V/f transitions performed. */
    std::uint64_t transitions = 0;
    /** Energy spent in IVR/FLL V/f transitions (included in energy). */
    Joules transitionEnergy = 0.0;
    /** Fraction of domain-epochs spent at each V/f state. */
    std::vector<double> freqTimeShare;
    /** Final die temperature. */
    double finalTemperature = 0.0;
    /** Injected-fault / graceful-degradation totals. */
    FaultSummary faults;
    std::vector<EpochTraceEntry> trace;
    /** Per-decision regret rollup (empty unless RunConfig::auditRegret
     *  or a provenance sink was set; see docs/provenance.md). */
    obs::RegretSummary regret;

    double seconds() const { return tickSeconds(execTime); }
    Watts avgPower() const
    {
        return seconds() > 0.0 ? energy / seconds() : 0.0;
    }
    double edp() const { return energy * seconds(); }
    double ed2p() const { return energy * seconds() * seconds(); }
    double ed3p() const
    {
        return energy * seconds() * seconds() * seconds();
    }
};

/**
 * Check a run configuration for user errors. Returns an empty string
 * when the configuration is usable, otherwise a one-line diagnostic.
 * Harnesses can call this to reject one bad run instead of letting
 * ExperimentDriver's constructor exit the whole process.
 */
std::string validateRunConfig(const RunConfig &config);

/**
 * Everything the driver knows about one epoch boundary, exposed to an
 * EpochObserver. This is the capture seam of the trace subsystem
 * (src/trace): an observer that records these fields can later
 * re-drive any controller without the GPU timing model.
 *
 * On the final (application-finished) epoch no decisions are made;
 * @ref decisions and @ref appliedStates are empty and @ref snapshots
 * refers to an empty vector.
 */
struct EpochCapture
{
    Tick start = 0;
    Tick end = 0;
    /** End of the energy-accounted span (prorated final epoch). */
    Tick accountedEnd = 0;
    bool done = false;
    /** The *physical* epoch record (pre-telemetry-fault). */
    const gpu::EpochRecord &record;
    /** Waves resident at the boundary (keys of the next lookup). */
    const std::vector<gpu::WaveSnapshot> &snapshots;
    /** This boundary's fork-pre-execute sweep; null unless the
     *  controller requested one. */
    const dvfs::AccurateEstimates *sweep = nullptr;
    /** Post-sanitize controller decisions for the next epoch. */
    const std::vector<dvfs::DomainDecision> &decisions;
    /** V/f state each domain will really run at (injector outcome). */
    const std::vector<std::size_t> &appliedStates;
    /** Faults injected/repaired this epoch; null on the final epoch
     *  (no decisions are applied, so the deltas are not computed). */
    const gpu::FaultEpochCounters *faults = nullptr;
};

/** Observer of a live run, called once per epoch boundary. */
class EpochObserver
{
  public:
    virtual ~EpochObserver() = default;

    virtual void onEpoch(const EpochCapture &epoch) = 0;

    /** Called once after the run loop with the final result. */
    virtual void onRunEnd(const RunResult &result) { (void)result; }
};

/**
 * Fans one run out to several observers (e.g. trace capture plus the
 * timeline recorder), called in add() order.
 */
class MultiObserver : public EpochObserver
{
  public:
    /** Null observers are ignored. */
    void
    add(EpochObserver *observer)
    {
        if (observer != nullptr)
            observers.push_back(observer);
    }

    bool empty() const { return observers.empty(); }

    void
    onEpoch(const EpochCapture &epoch) override
    {
        for (EpochObserver *observer : observers)
            observer->onEpoch(epoch);
    }

    void
    onRunEnd(const RunResult &result) override
    {
        for (EpochObserver *observer : observers)
            observer->onRunEnd(result);
    }

  private:
    std::vector<EpochObserver *> observers;
};

/**
 * Runs experiments. Prediction accuracy is scored per the paper
 * (Section 6.1): the controller's predicted instructions for the
 * chosen state are compared against the instructions actually
 * committed, accuracy = 1 - |pred - actual| / actual, averaged over
 * domains and epochs with work.
 */
class ExperimentDriver
{
  public:
    explicit ExperimentDriver(const RunConfig &config);

    /**
     * Run @p app to completion under @p controller. An optional
     * @p observer sees every epoch boundary (trace capture).
     */
    RunResult run(std::shared_ptr<const isa::Application> app,
                  dvfs::DvfsController &controller,
                  EpochObserver *observer = nullptr);

    const power::VfTable &table() const { return vfTable; }
    const RunConfig &config() const { return cfg; }

    /**
     * Arm (or, with null, disarm) a decision-provenance sink for
     * subsequent run() calls - the seam bench::runTraced() uses to
     * attach a per-run ProvenanceLog to an already-built driver.
     * Armed runs also compute RunResult::regret.
     */
    void setProvenance(obs::ProvenanceLog *sink)
    {
        cfg.provenance = sink;
    }

    /** Index of the nominal state in the V/f table. */
    std::size_t nominalState() const { return nominalIdx; }

  private:
    RunConfig cfg;
    power::VfTable vfTable;
    power::PowerModel powerModel;
    std::size_t nominalIdx;
};

} // namespace pcstall::sim

#endif // PCSTALL_SIM_EXPERIMENT_HH
