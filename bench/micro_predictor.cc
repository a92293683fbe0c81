/**
 * @file
 * Google-benchmark microbenchmarks of the hardware-path operations:
 * PC-table update/lookup (the per-epoch critical path of PCSTALL's
 * lookup mechanism, Section 4.4), the wavefront STALL estimator, the
 * CU-level estimation models, objective evaluation, the cost of
 * snapshotting the simulator state (the oracle "fork"), and the two
 * halves of the replay-cache hot path (docs/replay_studies.md): PCTR
 * trace decode and a full cached replay of a captured run.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/pcstall_controller.hh"
#include "dvfs/objective.hh"
#include "gpu/gpu_chip.hh"
#include "isa/kernel_builder.hh"
#include "models/estimation.hh"
#include "models/wave_estimator.hh"
#include "predict/pc_table.hh"
#include "sim/experiment.hh"
#include "trace/format.hh"
#include "trace/replay.hh"

using namespace pcstall;

namespace
{

void
BM_PcTableUpdate(benchmark::State &state)
{
    predict::PcSensitivityTable table{predict::PcTableConfig{}};
    std::uint64_t pc = 0;
    for (auto _ : state) {
        table.update(pc, 12.5);
        pc += 16;
    }
}
BENCHMARK(BM_PcTableUpdate);

void
BM_PcTableLookup(benchmark::State &state)
{
    predict::PcSensitivityTable table{predict::PcTableConfig{}};
    for (std::uint64_t pc = 0; pc < 128 * 16; pc += 16)
        table.update(pc, 12.5);
    std::uint64_t pc = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.lookup(pc));
        pc += 16;
    }
}
BENCHMARK(BM_PcTableLookup);

void
BM_WaveSensitivity(benchmark::State &state)
{
    gpu::WaveEpochRecord rec;
    rec.committed = 120;
    rec.memStall = 300'000;
    rec.active = true;
    const models::WaveEstimatorConfig cfg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            models::waveSensitivity(rec, cfg, tickUs,
                                    1'700 * freqMHz));
    }
}
BENCHMARK(BM_WaveSensitivity);

void
BM_CuEstimation(benchmark::State &state)
{
    gpu::CuEpochRecord rec;
    rec.committed = 3000;
    rec.loadStall = 200'000;
    rec.leadLoad = 150'000;
    rec.memInterval = 600'000;
    rec.overlap = 350'000;
    rec.storeStall = 50'000;
    rec.freq = 1'700 * freqMHz;
    const auto kind = static_cast<models::EstimationKind>(
        state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            models::cuInstrAt(kind, rec, tickUs, 2'200 * freqMHz));
    }
}
BENCHMARK(BM_CuEstimation)->DenseRange(0, 3);

void
BM_ChooseState(benchmark::State &state)
{
    const power::VfTable table = power::VfTable::paperTable();
    const power::PowerModel pm;
    std::vector<double> instr;
    for (std::size_t s = 0; s < table.numStates(); ++s)
        instr.push_back(1000.0 + 80.0 * static_cast<double>(s));
    dvfs::DomainScoreInputs in;
    in.instrAtState = instr;
    in.baselineInstr = 1400.0;
    in.baselineActivity.l1Hits = 300;
    in.baselineActivity.l2Misses = 40;
    const dvfs::StateCosts costs(table, pm, tickUs, 45.0);
    in.costs = &costs;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dvfs::chooseState(table, pm, in, dvfs::Objective::Ed2p));
    }
}
BENCHMARK(BM_ChooseState);

std::shared_ptr<const isa::Application>
snapshotApp()
{
    isa::KernelBuilder b("snap");
    const auto r = b.region("data", 32 << 20);
    b.grid(256, 4);
    b.loop(500);
    b.load(r, isa::AccessPattern::Streaming, 16);
    b.waitcnt(0);
    b.valu(4, 10);
    b.endLoop();
    auto app = std::make_shared<isa::Application>();
    app->name = "snap";
    app->launches.push_back(b.build());
    app->assignCodeBases();
    return app;
}

/** Cost of one oracle "fork" (GpuChip copy) vs CU count. */
void
BM_ChipSnapshot(benchmark::State &state)
{
    gpu::GpuConfig cfg;
    cfg.numCus = static_cast<std::uint32_t>(state.range(0));
    gpu::GpuChip chip(cfg, snapshotApp());
    chip.runUntil(2 * tickUs);
    for (auto _ : state) {
        gpu::GpuChip copy = chip;
        benchmark::DoNotOptimize(copy.now());
    }
}
BENCHMARK(BM_ChipSnapshot)->Arg(4)->Arg(16)->Arg(64);

/** Simulation throughput: one 1 us epoch of a 16-CU GPU. */
void
BM_SimulateEpoch(benchmark::State &state)
{
    gpu::GpuConfig cfg;
    cfg.numCus = 16;
    gpu::GpuChip chip(cfg, snapshotApp());
    Tick t = 0;
    for (auto _ : state) {
        t += tickUs;
        if (chip.runUntil(t)) {
            state.PauseTiming();
            chip = gpu::GpuChip(cfg, snapshotApp());
            t = 0;
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_SimulateEpoch);

/** Fixture for the replay-path benchmarks: one short PCSTALL run of
 *  the snapshot app captured to a PCTR trace on disk. */
struct CapturedTrace
{
    std::string path = "micro_predictor_trace.tmp.bin";
    trace::TraceData data;
};

const CapturedTrace &
capturedTrace()
{
    static const CapturedTrace fixture = [] {
        CapturedTrace out;
        sim::RunConfig cfg;
        cfg.gpu.numCus = 8;
        sim::ExperimentDriver driver(cfg);
        core::PcstallController controller(core::PcstallConfig{},
                                           cfg.gpu.numCus);
        const trace::TraceMeta meta = trace::makeTraceMeta(
            cfg, driver.table(), "snap", controller);
        trace::TraceWriter writer(out.path, meta);
        trace::TraceCapture capture(writer);
        driver.run(snapshotApp(), controller, &capture);
        trace::TraceReadResult read = trace::readTraceFile(out.path);
        if (!read.ok() || !writer.ok())
            std::abort();
        out.data = std::move(*read.trace);
        return out;
    }();
    return fixture;
}

/** Decode half of a replay-cache hit: parse a PCTR file from disk. */
void
BM_TraceDecode(benchmark::State &state)
{
    const CapturedTrace &fixture = capturedTrace();
    for (auto _ : state) {
        trace::TraceReadResult read =
            trace::readTraceFile(fixture.path);
        if (!read.ok())
            state.SkipWithError(read.error.c_str());
        benchmark::DoNotOptimize(read.trace->frames.size());
    }
    state.counters["epochs"] = static_cast<double>(
        fixture.data.trailer.frameCount);
}
BENCHMARK(BM_TraceDecode);

/** Replay half of a hit: re-drive a fresh controller through the
 *  decoded frames (what a warm --trace-cache sweep cell costs). */
void
BM_TraceReplay(benchmark::State &state)
{
    const CapturedTrace &fixture = capturedTrace();
    for (auto _ : state) {
        core::PcstallController controller(core::PcstallConfig{},
                                           fixture.data.meta.numCus);
        trace::ReplayDriver replayer(fixture.data);
        trace::ReplayOptions ropts;
        ropts.verifyDecisions = true;
        const trace::ReplayOutcome out =
            replayer.run(controller, ropts);
        if (!out.ok() || out.decisionMismatches != 0)
            state.SkipWithError("replay diverged from capture");
        benchmark::DoNotOptimize(out.result.energy);
    }
    state.counters["epochs"] = static_cast<double>(
        fixture.data.trailer.frameCount);
}
BENCHMARK(BM_TraceReplay);

} // namespace

BENCHMARK_MAIN();
