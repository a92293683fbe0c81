/**
 * @file
 * The traced run's own drivers: sim::ExperimentDriver::run and the
 * loop of trace::ReplayDriver::run, restated with a span around every
 * call into a layer, so host time splits into the timing model, the
 * oracle, the controllers and the ledger. Every traced cell is checked
 * bit for bit against the same cell run through bench::SweepRunner,
 * so any drift between these copies and the library's loops shows up
 * as failed cells.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dvfs/controller.hh"
#include "sim/experiment.hh"
#include "spans.hh"
#include "trace/format.hh"

namespace pcstall::perfbench
{

/** Forwards to an owned controller, timing each decide() as a span. */
class TimedController final : public dvfs::DvfsController
{
  public:
    TimedController(std::unique_ptr<dvfs::DvfsController> inner,
                    SpanRecorder &spans)
        : inner_(std::move(inner)), spans_(spans)
    {
    }

    std::string name() const override { return inner_->name(); }
    dvfs::SweepNeed sweepNeed() const override
    {
        return inner_->sweepNeed();
    }
    bool needsWaveLevel() const override
    {
        return inner_->needsWaveLevel();
    }
    std::vector<dvfs::DomainDecision>
    decide(const dvfs::EpochContext &ctx) override;
    void applyStorageFaults(faults::FaultInjector &injector) override
    {
        inner_->applyStorageFaults(injector);
    }
    std::uint64_t watchdogTrips() const override
    {
        return inner_->watchdogTrips();
    }
    std::uint64_t fallbackEpochs() const override
    {
        return inner_->fallbackEpochs();
    }
    std::uint64_t storageBitFlips() const override
    {
        return inner_->storageBitFlips();
    }
    std::uint64_t storageScrubs() const override
    {
        return inner_->storageScrubs();
    }

    const dvfs::DvfsController &inner() const { return *inner_; }

  private:
    std::unique_ptr<dvfs::DvfsController> inner_;
    SpanRecorder &spans_;
};

/** Deterministic work counts of the epochs a traced run simulated. */
struct GpuCounts
{
    std::uint64_t epochs = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    /** CU time with no ready wave, gated by a load (ticks). */
    std::int64_t loadStall = 0;
    /** CU time simulated: CUs x epoch span (ticks). */
    std::int64_t cuTime = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t samples = 0;
};

/**
 * sim::ExperimentDriver::run with spans. Oracle samples run on the
 * calling thread whatever RunConfig::oracleThreads says. When
 * @p observer is set it sees every epoch boundary (its onRunEnd() is
 * left to the caller); @p probe_restores times one side-pool restore
 * of the chip at every sweep boundary.
 */
sim::RunResult tracedLiveRun(const sim::RunConfig &cfg,
                             std::shared_ptr<const isa::Application> app,
                             dvfs::DvfsController &controller,
                             SpanRecorder &spans, GpuCounts &counts,
                             sim::EpochObserver *observer,
                             bool probe_restores);

/**
 * The replay loop of trace::ReplayDriver::run with spans, as a
 * what-if replay runs it (decisions are not verified against the
 * recording). @p error is set when the trace cannot drive
 * @p controller.
 */
sim::RunResult tracedReplay(const trace::TraceData &data,
                            dvfs::DvfsController &controller,
                            SpanRecorder &spans, std::string &error);

} // namespace pcstall::perfbench

#endif // PERFBENCH_TRACED_HH
