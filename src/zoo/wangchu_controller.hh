/**
 * @file
 * WANGCHU: the analytical core/memory-overlap performance model of
 * Wang & Chu, "GPGPU Performance Estimation with Core and Memory
 * Frequency Scaling" (arXiv:1701.05308), recast as a per-epoch DVFS
 * policy. Their model decomposes kernel time into a core-clock
 * component, a memory component and their measured overlap:
 *
 *   T(f_core) = T_core * f1/f_core + T_mem - overlap(f_core) + T_other
 *
 * Here T_core is the CU's issue-busy time (scales with the core
 * clock), T_mem the union of in-flight-load intervals (fixed-clock
 * memory), the overlap scales with the core clock but can never
 * exceed the memory window, and T_other is the residual (barrier and
 * idle time, held frequency-invariant). At the elapsed frequency the
 * decomposition reproduces the epoch exactly, so same-state
 * predictions are the identity.
 *
 * The controller is memoryless - every decision is a pure function of
 * the elapsed epoch record - hence trivially replay-safe; there is no
 * predictor storage to corrupt, so --ecc has nothing to protect and a
 * divergence watchdog would only ever fall back from the model onto a
 * simpler one (the model *is* the simple one). No config knobs.
 */

#ifndef PCSTALL_ZOO_WANGCHU_CONTROLLER_HH
#define PCSTALL_ZOO_WANGCHU_CONTROLLER_HH

#include <string>
#include <vector>

#include "dvfs/controller.hh"

namespace pcstall::zoo
{

/** Analytical core+memory frequency-scaling controller. */
class WangChuController : public dvfs::DvfsController
{
  public:
    std::string name() const override { return "WANGCHU"; }

    std::vector<dvfs::DomainDecision>
    decide(const dvfs::EpochContext &ctx) override;

  private:
    /** decide() scratch: per-domain predictions at every state. */
    std::vector<std::vector<double>> instrAt;
};

/**
 * The model core: instructions one CU would have committed had the
 * elapsed epoch run at @p f2 (test hook; also used by decide()).
 */
double wangChuInstrAt(const gpu::CuEpochRecord &record, Tick epoch_len,
                      Freq f2);

} // namespace pcstall::zoo

#endif // PCSTALL_ZOO_WANGCHU_CONTROLLER_HH
