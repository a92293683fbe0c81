/** @file Unit tests for src/workloads: the Table II suite. */

#include <gtest/gtest.h>

#include "expect_fatal.hh"

#include "gpu/gpu_chip.hh"
#include "workloads/kernel_parser.hh"
#include "workloads/kernel_writer.hh"
#include "workloads/workloads.hh"

using namespace pcstall;
using namespace pcstall::workloads;

namespace
{

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.numCus = 4;
    p.scale = 0.5;
    return p;
}

} // namespace

TEST(Workloads, TableHasSixteenEntries)
{
    const auto &table = workloadTable();
    EXPECT_EQ(table.size(), 16u);
    int hpc = 0, mi = 0;
    for (const auto &info : table) {
        if (info.suite == "HPC")
            ++hpc;
        else if (info.suite == "MI")
            ++mi;
    }
    EXPECT_EQ(hpc, 9);
    EXPECT_EQ(mi, 7);
}

TEST(Workloads, KernelCountsMatchTableII)
{
    const auto p = smallParams();
    for (const auto &info : workloadTable()) {
        const auto app = makeWorkload(info.name, p);
        EXPECT_EQ(app.uniqueKernelCount(), info.uniqueKernels)
            << info.name;
    }
    EXPECT_EQ(makeWorkload("lulesh", p).uniqueKernelCount(), 27u);
    EXPECT_EQ(makeWorkload("minife", p).uniqueKernelCount(), 3u);
    EXPECT_EQ(makeWorkload("pennant", p).uniqueKernelCount(), 5u);
    EXPECT_EQ(makeWorkload("hacc", p).uniqueKernelCount(), 2u);
}

TEST(Workloads, AllValidateAndHaveCodeBases)
{
    const auto p = smallParams();
    for (const auto &app : makeAllWorkloads(p)) {
        ASSERT_FALSE(app.launches.empty()) << app.name;
        for (const auto &k : app.launches) {
            EXPECT_NO_FATAL_FAILURE(k.validate());
            EXPECT_GE(k.codeBase, 0x4000'0000ULL) << app.name;
        }
    }
}

TEST(Workloads, EveryWorkloadBuildsAtEveryScale)
{
    // Trip counts round per scale, so a loop's variation can round up
    // to its base count at small scales; every Table II workload must
    // still build a valid kernel at every scale from 0.01 to 1.
    WorkloadParams p;
    p.numCus = 64;
    std::vector<std::string> failures;
    for (int milli = 10; milli <= 1000; ++milli) {
        p.scale = milli / 1000.0;
        for (const auto &info : workloadTable()) {
            try {
                for (const auto &k : makeWorkload(info.name, p).launches)
                    k.validate();
            } catch (const FatalError &e) {
                failures.push_back(info.name + " @ " +
                                   std::to_string(p.scale) + ": " +
                                   e.what());
            }
        }
    }
    EXPECT_TRUE(failures.empty())
        << failures.size() << " failing builds, first: " << failures[0];
}

TEST(Workloads, GridsScaleWithCuCount)
{
    WorkloadParams small = smallParams();
    WorkloadParams big = smallParams();
    big.numCus = 16;
    const auto app_s = makeWorkload("comd", small);
    const auto app_b = makeWorkload("comd", big);
    EXPECT_EQ(app_b.launches[0].numWorkgroups,
              4 * app_s.launches[0].numWorkgroups);
}

TEST(Workloads, ScaleChangesWorkAmount)
{
    // Iterative apps scale by launch count (kernels per timestep are
    // fixed-size); streaming apps also scale trip counts.
    WorkloadParams one = smallParams();
    one.scale = 1.0;
    WorkloadParams half = smallParams();
    half.scale = 0.4;
    EXPECT_GT(makeWorkload("comd", one).launches.size(),
              makeWorkload("comd", half).launches.size());
    EXPECT_GT(makeWorkload("hpgmg", one).launches[0].loops[0].baseTrips,
              makeWorkload("hpgmg", half).launches[0].loops[0].baseTrips);
}

TEST(Workloads, QuickSHasDivergentTrips)
{
    const auto app = makeWorkload("quickS", smallParams());
    bool divergent = false;
    for (const auto &loop : app.launches[0].loops)
        if (loop.tripVariation > 0)
            divergent = true;
    EXPECT_TRUE(divergent);
}

TEST(Workloads, BwdPoolIsUniform)
{
    const auto app = makeWorkload("BwdPool", smallParams());
    for (const auto &launch : app.launches) {
        for (const auto &loop : launch.loops)
            EXPECT_EQ(loop.tripVariation, 0u);
        // Every launch is the same steady kernel.
        EXPECT_EQ(launch.name, app.launches[0].name);
        EXPECT_EQ(launch.code.size(), app.launches[0].code.size());
    }
}

TEST(Workloads, XsbenchIsLoadDominated)
{
    const auto app = makeWorkload("xsbench", smallParams());
    int loads = 0, valus = 0;
    for (const auto &ins : app.launches[0].code) {
        if (ins.op == isa::OpType::VMemLoad)
            ++loads;
        else if (ins.op == isa::OpType::VAlu)
            ++valus;
    }
    EXPECT_GT(loads, 0);
    EXPECT_LT(valus, 10);
}

TEST(Workloads, DgemmIsComputeDominated)
{
    // dgemm's FMA region is a long loop of pure compute; weigh static
    // instruction counts by loop trip counts to compare dynamic work.
    const auto app = makeWorkload("dgemm", smallParams());
    // Each unrolled k-tile carries an FMA loop an order of magnitude
    // longer than its tile-load loop.
    const auto &k = app.launches[0];
    std::uint32_t longest = 0, shortest = ~0u;
    for (const auto &loop : k.loops) {
        longest = std::max(longest, loop.baseTrips);
        shortest = std::min(shortest, loop.baseTrips);
    }
    EXPECT_GE(longest, 40u);
    EXPECT_GE(longest, shortest * 5);
}

TEST(Workloads, UnknownNameRejected)
{
    EXPECT_FALSE(isWorkload("nonexistent"));
    EXPECT_TRUE(isWorkload("comd"));
    EXPECT_FATAL(makeWorkload("nonexistent", smallParams()), "unknown workload");
}

TEST(Workloads, DeterministicForSameSeed)
{
    const auto a = makeWorkload("quickS", smallParams());
    const auto b = makeWorkload("quickS", smallParams());
    ASSERT_EQ(a.launches.size(), b.launches.size());
    EXPECT_EQ(a.launches[0].seed, b.launches[0].seed);
    EXPECT_EQ(a.launches[0].code.size(), b.launches[0].code.size());
}

TEST(KernelParser, ParsesWellFormedApplication)
{
    const std::string text = R"(
# CoMD-like timestep
kernel force
  grid 16 4
  seed 7
  region pos 16M
  region neigh 32M
  loop 22
    load neigh stream 16
    load pos random
    waitcnt 0
    valu 2 3
  endloop
  loop 85
    valu 4 4
    lds 8 1
  endloop
  store pos stream 16
endkernel

app comd = force force force
)";
    const auto result = parseApplication(text);
    ASSERT_TRUE(result.ok()) << result.error;
    const isa::Application &app = *result.app;
    EXPECT_EQ(app.name, "comd");
    ASSERT_EQ(app.launches.size(), 3u);
    EXPECT_EQ(app.uniqueKernelCount(), 1u);
    const isa::Kernel &k = app.launches[0];
    EXPECT_EQ(k.name, "force");
    EXPECT_EQ(k.numWorkgroups, 16u);
    EXPECT_EQ(k.seed, 7u);
    ASSERT_EQ(k.regions.size(), 2u);
    EXPECT_EQ(k.regions[1].sizeBytes, 32u << 20);
    EXPECT_EQ(k.loops.size(), 2u);
    EXPECT_NO_FATAL_FAILURE(k.validate());
    // Relaunches share a code base.
    EXPECT_EQ(app.launches[0].codeBase, app.launches[2].codeBase);
}

TEST(KernelParser, ParsedAppRunsOnTheGpu)
{
    const std::string text = R"(
kernel tiny
  grid 4 4
  region data 1M
  loop 50
    load data random
    waitcnt 0
    valu 4 4
  endloop
endkernel
app t = tiny tiny
)";
    const auto result = parseApplication(text);
    ASSERT_TRUE(result.ok()) << result.error;
    gpu::GpuConfig cfg;
    cfg.numCus = 2;
    gpu::GpuChip chip(cfg, std::make_shared<const isa::Application>(
                               *result.app));
    bool done = false;
    for (int e = 1; e <= 500 && !done; ++e)
        done = chip.runUntil(e * tickUs);
    EXPECT_TRUE(done);
    // 2 launches x 4 wgs x 4 waves x (50*(4+2) + branch...) > 0.
    EXPECT_GT(chip.totalCommitted(), 1000u);
}

TEST(KernelParser, DivergentLoopsAndPatterns)
{
    const std::string text = R"(
kernel mc
  grid 8 4
  region tbl 64M
  loop 40 30
    load tbl sharedhot
    waitcnt 0
    salu 2
  endloop
endkernel
app mc = mc
)";
    const auto result = parseApplication(text);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.app->launches[0].loops[0].tripVariation, 30u);
}

TEST(KernelParser, ReportsErrorsWithLineNumbers)
{
    auto expect_error = [](const std::string &text,
                           const std::string &fragment) {
        const auto result = parseApplication(text);
        EXPECT_FALSE(result.ok());
        EXPECT_NE(result.error.find(fragment), std::string::npos)
            << result.error;
    };
    expect_error("valu 4 4\n", "outside a kernel");
    expect_error("kernel k\nbogus 1\nendkernel\napp a = k\n",
                 "unknown statement");
    expect_error("kernel k\nvalu 4 1\nendkernel\napp a = missing\n",
                 "unknown kernel");
    expect_error("kernel k\nloop 5\nvalu 4 1\nendkernel\napp a = k\n",
                 "unclosed");
    expect_error("kernel k\nvalu 4 1\nendkernel\n", "missing 'app");
    expect_error("kernel k\nload nowhere stream\nendkernel\napp a = k\n",
                 "expected: load");
    expect_error("kernel k\nregion r 0\nendkernel\napp a = k\n",
                 "region");
}

TEST(KernelParser, SizeSuffixes)
{
    const std::string text = R"(
kernel k
  region a 512
  region b 16K
  region c 2M
  region d 1G
  load a stream
  waitcnt 0
endkernel
app s = k
)";
    const auto result = parseApplication(text);
    ASSERT_TRUE(result.ok()) << result.error;
    const auto &regions = result.app->launches[0].regions;
    EXPECT_EQ(regions[0].sizeBytes, 512u);
    EXPECT_EQ(regions[1].sizeBytes, 16u * 1024);
    EXPECT_EQ(regions[2].sizeBytes, 2u << 20);
    EXPECT_EQ(regions[3].sizeBytes, 1ull << 30);
}

TEST(KernelParser, FileNotFound)
{
    const auto result = parseApplicationFile("/nonexistent/file.k");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("cannot open"), std::string::npos);
}

namespace
{

/** Completion time of @p name at a static frequency (tiny scale). */
Tick
runtimeAt(const std::string &name, Freq freq)
{
    WorkloadParams p;
    p.numCus = 2;
    p.scale = 0.15;
    auto app = std::make_shared<const isa::Application>(
        makeWorkload(name, p));
    gpu::GpuConfig cfg;
    cfg.numCus = 2;
    cfg.defaultFreq = freq;
    gpu::GpuChip chip(cfg, app);
    for (int e = 1; e <= 5000; ++e)
        if (chip.runUntil(e * tickUs))
            break;
    return chip.lastCommitTick();
}

} // namespace

TEST(WorkloadCharacter, HaccIsFrequencySensitive)
{
    const double speedup =
        static_cast<double>(runtimeAt("hacc", 1'300 * freqMHz)) /
        static_cast<double>(runtimeAt("hacc", 2'200 * freqMHz));
    // Clock ratio is 1.69; a compute-bound app gets most of it.
    EXPECT_GT(speedup, 1.35);
}

TEST(WorkloadCharacter, XsbenchIsFrequencyInsensitive)
{
    const double speedup =
        static_cast<double>(runtimeAt("xsbench", 1'300 * freqMHz)) /
        static_cast<double>(runtimeAt("xsbench", 2'200 * freqMHz));
    EXPECT_LT(speedup, 1.25);
}

TEST(WorkloadCharacter, HpgmgIsFrequencyInsensitive)
{
    const double speedup =
        static_cast<double>(runtimeAt("hpgmg", 1'300 * freqMHz)) /
        static_cast<double>(runtimeAt("hpgmg", 2'200 * freqMHz));
    EXPECT_LT(speedup, 1.3);
}

TEST(WorkloadCharacter, DgemmMoreSensitiveThanPooling)
{
    const double dgemm_speedup =
        static_cast<double>(runtimeAt("dgemm", 1'300 * freqMHz)) /
        static_cast<double>(runtimeAt("dgemm", 2'200 * freqMHz));
    const double pool_speedup =
        static_cast<double>(runtimeAt("FwdPool", 1'300 * freqMHz)) /
        static_cast<double>(runtimeAt("FwdPool", 2'200 * freqMHz));
    EXPECT_GT(dgemm_speedup, pool_speedup);
}

TEST(KernelWriter, RoundTripsEveryTableIIWorkload)
{
    // write -> parse must reconstruct the same structure for every
    // built-in generator (the strongest property the format needs).
    const auto p = smallParams();
    for (const auto &info : workloadTable()) {
        const isa::Application original = makeWorkload(info.name, p);
        const std::string text = applicationToText(original);
        const auto parsed = parseApplication(text);
        ASSERT_TRUE(parsed.ok())
            << info.name << ": " << parsed.error << "\n" << text;
        const isa::Application &round = *parsed.app;
        EXPECT_EQ(round.name, original.name);
        ASSERT_EQ(round.launches.size(), original.launches.size())
            << info.name;
        EXPECT_EQ(round.uniqueKernelCount(),
                  original.uniqueKernelCount());
        for (std::size_t i = 0; i < round.launches.size(); ++i) {
            const isa::Kernel &a = original.launches[i];
            const isa::Kernel &b = round.launches[i];
            ASSERT_EQ(b.code.size(), a.code.size())
                << info.name << " launch " << i;
            EXPECT_EQ(b.numWorkgroups, a.numWorkgroups);
            EXPECT_EQ(b.wavesPerWorkgroup, a.wavesPerWorkgroup);
            EXPECT_EQ(b.seed, a.seed);
            ASSERT_EQ(b.loops.size(), a.loops.size());
            for (std::size_t l = 0; l < a.loops.size(); ++l) {
                EXPECT_EQ(b.loops[l].baseTrips, a.loops[l].baseTrips);
                EXPECT_EQ(b.loops[l].tripVariation,
                          a.loops[l].tripVariation);
            }
            for (std::size_t c = 0; c < a.code.size(); ++c) {
                EXPECT_EQ(b.code[c].op, a.code[c].op)
                    << info.name << " launch " << i << " ins " << c;
                EXPECT_EQ(b.code[c].latency, a.code[c].latency);
            }
        }
    }
}

TEST(KernelWriter, RoundTripBehaviourMatches)
{
    // Parsed-back applications must simulate identically.
    const auto p = smallParams();
    const isa::Application original = makeWorkload("quickS", p);
    const auto parsed = parseApplication(applicationToText(original));
    ASSERT_TRUE(parsed.ok()) << parsed.error;

    auto run = [](const isa::Application &app) {
        gpu::GpuConfig cfg;
        cfg.numCus = 2;
        gpu::GpuChip chip(
            cfg, std::make_shared<const isa::Application>(app));
        for (int e = 1; e <= 5000; ++e)
            if (chip.runUntil(e * tickUs))
                break;
        return std::make_pair(chip.totalCommitted(),
                              chip.lastCommitTick());
    };
    EXPECT_EQ(run(original), run(*parsed.app));
}

TEST(KernelParser, MalformedInputsFailCleanlyWithLineNumbers)
{
    // Every malformed script must produce a "line N:" diagnostic, not
    // a crash or a process exit (the builder's fatal() checks must be
    // unreachable from file input).
    auto expect_line_error = [](const std::string &text,
                                const std::string &fragment) {
        const auto result = parseApplication(text);
        ASSERT_FALSE(result.ok()) << "accepted: " << text;
        EXPECT_NE(result.error.find("line "), std::string::npos)
            << result.error;
        EXPECT_NE(result.error.find(fragment), std::string::npos)
            << result.error;
    };

    // Truncated files.
    expect_line_error("kernel k\n", "unterminated kernel");
    expect_line_error("kernel k\nvalu 4 1\n", "unterminated kernel");
    expect_line_error("kernel k\nloop 5\nvalu 4 1\n",
                      "unterminated kernel");
    expect_line_error("", "missing 'app");

    // Structurally empty bodies.
    expect_line_error("kernel k\nendkernel\napp a = k\n", "no body");
    expect_line_error("kernel k\nvalu 4 1\nloop 5\nendloop\n"
                      "endkernel\napp a = k\n",
                      "empty loop body");

    // Out-of-range grid.
    expect_line_error("kernel k\ngrid 0 4\nvalu 4 1\nendkernel\n"
                      "app a = k\n",
                      "at least one workgroup");
    expect_line_error("kernel k\ngrid 8 0\nvalu 4 1\nendkernel\n"
                      "app a = k\n",
                      "waves must be in [1, 64]");
    expect_line_error("kernel k\ngrid 8 65\nvalu 4 1\nendkernel\n"
                      "app a = k\n",
                      "waves must be in [1, 64]");

    // Degenerate loops.
    expect_line_error("kernel k\nloop 0\nvalu 4 1\nendloop\n"
                      "endkernel\napp a = k\n",
                      "at least one trip");
    expect_line_error("kernel k\nloop 5 5\nvalu 4 1\nendloop\n"
                      "endkernel\napp a = k\n",
                      "variation must be below");
    expect_line_error("kernel k\nvalu 4 1\nendloop\nendkernel\n"
                      "app a = k\n",
                      "endloop without loop");

    // A barrier inside a divergent loop would deadlock the CU.
    expect_line_error("kernel k\nloop 8 4\nvalu 4 1\nbarrier\n"
                      "endloop\nendkernel\napp a = k\n",
                      "divergent loop");

    // Out-of-range operation parameters.
    expect_line_error("kernel k\nvalu 0 1\nendkernel\napp a = k\n",
                      "latency must be in");
    expect_line_error("kernel k\nvalu 70000 1\nendkernel\napp a = k\n",
                      "latency must be in");
    expect_line_error("kernel k\nvalu 4 0\nendkernel\napp a = k\n",
                      "count must be >= 1");
    expect_line_error("kernel k\nsalu 0\nendkernel\napp a = k\n",
                      "count must be >= 1");
    expect_line_error("kernel k\nregion r 1M\n"
                      "load r strided 0\nwaitcnt 0\nendkernel\n"
                      "app a = k\n",
                      "stride must be in");
    expect_line_error("kernel k\nvalu 4 1\nwaitcnt 70000\nendkernel\n"
                      "app a = k\n",
                      "waitcnt bound");

    // Duplicate definitions.
    expect_line_error("kernel k\nvalu 4 1\nendkernel\n"
                      "kernel k\nvalu 4 1\nendkernel\napp a = k\n",
                      "duplicate kernel");
    expect_line_error("kernel k\nvalu 4 1\nendkernel\n"
                      "app a = k\napp b = k\n",
                      "duplicate app");

    // Unknown statements.
    expect_line_error("kernel k\nfrobnicate 1\nendkernel\napp a = k\n",
                      "unknown statement");
}

TEST(KernelParser, DiagnosticNamesTheOffendingLine)
{
    const auto result = parseApplication(
        "kernel k\nvalu 4 1\ngrid 0\nendkernel\napp a = k\n");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error.rfind("line 3:", 0), 0u) << result.error;
}

TEST(Workloads, LoadWorkloadResolvesNamesAndReportsErrors)
{
    const auto p = smallParams();

    const auto builtin = loadWorkload("comd", p);
    ASSERT_TRUE(builtin.ok()) << builtin.error;
    EXPECT_EQ(builtin.app->name, "comd");

    const auto missing_file = loadWorkload("/nonexistent/app.k", p);
    EXPECT_FALSE(missing_file.ok());
    EXPECT_NE(missing_file.error.find("/nonexistent/app.k"),
              std::string::npos)
        << missing_file.error;

    const auto unknown = loadWorkload("nonexistent", p);
    EXPECT_FALSE(unknown.ok());
    EXPECT_NE(unknown.error.find("unknown workload"),
              std::string::npos)
        << unknown.error;
}
