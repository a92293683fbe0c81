/**
 * @file
 * Fork-pre-execute oracle methodology (paper Section 5.1, Figure 13).
 *
 * At an epoch boundary the simulator state is snapshotted ("forked")
 * once per V/f state. Sample k runs the upcoming epoch with domain d
 * operating at state (k + d) mod S -- the paper's frequency shuffle,
 * which exposes each domain to every state exactly once while the
 * other domains' frequencies vary, approximating the 10^64-path
 * search with S samples (97.6% accurate in the paper with 10).
 *
 * The samples yield, per domain, the instructions committed at every
 * state (the accurate I(f) curve), and per wavefront a linear-
 * regression sensitivity (dI/df) across the sampled frequencies.
 */

#ifndef PCSTALL_ORACLE_FORK_PRE_EXECUTE_HH
#define PCSTALL_ORACLE_FORK_PRE_EXECUTE_HH

#include "common/types.hh"
#include "dvfs/controller.hh"
#include "dvfs/domain_map.hh"
#include "gpu/gpu_chip.hh"
#include "power/vf_table.hh"

namespace pcstall::sim
{
class ParallelExecutor;
} // namespace pcstall::sim

namespace pcstall::oracle
{

class SnapshotPool;

/** Options for the sweep. */
struct SweepOptions
{
    /** Shuffle frequencies across domains (paper's approach). If
     *  false, sample k runs every domain at state k. */
    bool shuffle = true;
    /** Also regress per-wavefront sensitivities (needed by ACCPC and
     *  the characterization studies; costs some bookkeeping). */
    bool waveLevel = true;
    /** Restore each sample from this pool's scratch chips, reused
     *  across sweeps. Null gives the sweep a pool of its own, whose
     *  restores are all first-use deep copies; the estimates are
     *  byte-identical either way. */
    SnapshotPool *pool = nullptr;
    /** Run the S independent samples on this executor. The reduction
     *  runs on the calling thread in submission order, so results
     *  stay byte-identical to the serial path regardless of the
     *  thread count. Null = serial. */
    sim::ParallelExecutor *executor = nullptr;
    /** Fingerprint-verify that the sweep leaves @p chip untouched
     *  even in NDEBUG builds (always verified in debug builds). */
    bool verifyRestore = false;
};

/**
 * Run the fork-pre-execute sweep for the epoch
 * [chip.now(), chip.now() + epoch_len) and return the accurate
 * estimates.
 *
 * @param chip       Simulator state at the epoch boundary. Left
 *                   untouched: each sample runs on a pooled scratch
 *                   chip restored from @p chip (see
 *                   SweepOptions::pool); verify builds check this
 *                   with state fingerprints.
 * @param domains    CU-to-clock-domain mapping for the sweep.
 * @param table      V/f operating points; one sample per state.
 * @param epoch_len  Length of the pre-executed epoch in ticks.
 * @param options    Sweep behavior (shuffle, wave fits, pooling,
 *                   in-cell parallelism, restore verification).
 * @return Per-domain I(f) curves and optional per-wave sensitivities.
 */
dvfs::AccurateEstimates
forkPreExecuteSweep(const gpu::GpuChip &chip,
                    const dvfs::DomainMap &domains,
                    const power::VfTable &table, Tick epoch_len,
                    const SweepOptions &options = SweepOptions{});

/**
 * Per-domain linear sensitivity (d instructions / d f_GHz) fitted
 * over the accurate I(f) points of one domain, with the fit's R^2
 * (Figure 5's metric).
 */
struct DomainSensitivity
{
    double sensitivity = 0.0;
    double intercept = 0.0;
    double r2 = 0.0;
};

/**
 * Fit a DomainSensitivity from a sweep's accurate estimates.
 *
 * @param est     Estimates returned by forkPreExecuteSweep().
 * @param table   V/f table the sweep sampled (supplies the f axis).
 * @param domain  Domain index to fit; must be < est.domainInstr.size().
 * @return Linear fit of instructions versus frequency for @p domain.
 */
DomainSensitivity domainSensitivity(const dvfs::AccurateEstimates &est,
                                    const power::VfTable &table,
                                    std::uint32_t domain);

} // namespace pcstall::oracle

#endif // PCSTALL_ORACLE_FORK_PRE_EXECUTE_HH
