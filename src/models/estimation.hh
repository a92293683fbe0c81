/**
 * @file
 * CU-level frequency-sensitivity estimation models from prior work
 * (paper Section 2.3 / Table III): STALL, LEAD (leading loads), CRIT
 * (critical path) and CRISP. Each model decomposes an elapsed epoch
 * into an asynchronous (frequency-invariant) memory component and a
 * core component that scales with frequency:
 *
 *   T_epoch = T_async + T_core@f1
 *   I(f2)   = I(f1) * T_epoch / (T_async + T_core * f1/f2)
 *
 * The models differ only in how T_async is measured:
 *  - STALL: time the CU had no ready wave while gated by a load.
 *  - LEAD:  summed latencies of leading loads (loads issued when no
 *           other load was in flight).
 *  - CRIT:  the union of all in-flight-load intervals (critical path
 *           through memory, ignoring compute overlap).
 *  - CRISP: CRIT minus measured compute-memory overlap, plus store
 *           stalls (the GPU-specific corrections of MICRO'15).
 */

#ifndef PCSTALL_MODELS_ESTIMATION_HH
#define PCSTALL_MODELS_ESTIMATION_HH

#include <cstdint>
#include <span>

#include "common/types.hh"
#include "gpu/epoch_stats.hh"

namespace pcstall::dvfs
{
struct EpochContext;
} // namespace pcstall::dvfs

namespace pcstall::models
{

/** The reactive estimation models evaluated in the paper. */
enum class EstimationKind : std::uint8_t { Stall, Lead, Crit, Crisp };

/** Display name, matching Table III. */
const char *estimationKindName(EstimationKind kind);

/**
 * The asynchronous (frequency-invariant) time of an elapsed epoch for
 * one CU under the given model, clamped to [0, epoch_len].
 */
Tick cuAsyncTime(EstimationKind kind, const gpu::CuEpochRecord &record,
                 Tick epoch_len);

/**
 * Predicted instructions the CU would have committed in the elapsed
 * epoch had it run at frequency @p f2 (it ran at record.freq).
 */
double cuInstrAt(EstimationKind kind, const gpu::CuEpochRecord &record,
                 Tick epoch_len, Freq f2);

/**
 * Domain @p d's I(f) under the model: cuInstrAt() of the elapsed
 * ctx.record summed over the domain's CUs, written to @p out for
 * every state of ctx.table.
 */
void domainInstrAt(EstimationKind kind, const dvfs::EpochContext &ctx,
                   std::uint32_t d, std::span<double> out);

} // namespace pcstall::models

#endif // PCSTALL_MODELS_ESTIMATION_HH
