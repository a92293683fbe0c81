#include "workloads/workloads.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/kernel_builder.hh"
#include "workloads/kernel_parser.hh"

namespace pcstall::workloads
{

namespace
{

using isa::AccessPattern;
using isa::Application;
using isa::Kernel;
using isa::KernelBuilder;

/**
 * Iterative GPU applications launch their kernels once per timestep /
 * iteration / layer; every launch is a global synchronization point
 * that puts all wavefronts back in phase at PC 0. This is what makes
 * program behaviour repetitive across iterations (paper Figure 9) and
 * gives the PC-indexed predictor its hits, while the drain/refill
 * around each boundary is exactly where last-value prediction fails.
 */
void
repeatLaunch(Application &app, const Kernel &kernel, int launches)
{
    for (int i = 0; i < launches; ++i)
        app.launches.push_back(kernel);
}

/** Workgroups for @p rounds full-occupancy waves of the whole GPU. */
std::uint32_t
gridFor(const WorkloadParams &p, double rounds,
        std::uint32_t waves_per_wg = 0)
{
    if (waves_per_wg == 0)
        waves_per_wg = p.wavesPerWorkgroup;
    const double wgs_per_cu =
        static_cast<double>(p.waveSlotsPerCu / waves_per_wg);
    const double wgs = rounds * wgs_per_cu * p.numCus;
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::llround(wgs)));
}

/** Scale a trip count, keeping it at least 1. */
std::uint32_t
trips(const WorkloadParams &p, double base)
{
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::llround(base * p.scale)));
}

/** Scale a launch count, keeping it at least 1. */
int
launches(const WorkloadParams &p, double base)
{
    return std::max(1, static_cast<int>(std::llround(base * p.scale)));
}

constexpr std::uint64_t MiB = 1024 * 1024;

// =====================================================================
// HPC applications (ECP proxy apps)
// =====================================================================

/**
 * Molecular dynamics: one force kernel launched once per timestep.
 * Each launch alternates a memory-bound neighbour-gather phase with a
 * compute-bound force phase (the microsecond-scale phase alternation
 * of Figure 5).
 */
Application
makeComd(const WorkloadParams &p)
{
    KernelBuilder b("comd_force");
    const auto pos = b.region("positions", 16 * MiB);
    const auto neigh = b.region("neighbors", 32 * MiB);
    const auto force = b.region("forces", 16 * MiB);

    // Unrolled cell-pair phases: each gather/force region lasts about
    // one DVFS epoch and sits at its own PC range, so an epoch
    // starting inside region i consistently covers the i -> i+1
    // transition - PC-predictable but hostile to last-value
    // prediction (the paper's Figure 9 structure).
    b.grid(gridFor(p, 1.0), p.wavesPerWorkgroup).seed(p.seed ^ 0xC0);
    for (int cell = 0; cell < 4; ++cell) {
        b.loop(7); // gather neighbours (memory region, ~1.5 us)
            b.load(neigh, AccessPattern::Streaming, 16);
            b.load(pos, AccessPattern::Random);
            b.waitcnt(0);
            b.valu(2, 3);
        b.endLoop();
        b.loop(38); // force computation (compute region, ~1.2 us)
            b.valu(4, 4);
            b.lds(8, 1);
        b.endLoop();
    }
    b.loop(8); // scatter forces (short store region)
        b.store(force, AccessPattern::Streaming, 16);
        b.salu(2);
    b.endLoop();

    Application app;
    app.name = "comd";
    repeatLaunch(app, b.build(), launches(p, 8));
    app.assignCodeBases();
    return app;
}

/** Multigrid smoother: bandwidth-bound streaming sweeps per level. */
Application
makeHpgmg(const WorkloadParams &p)
{
    KernelBuilder b("hpgmg_smooth");
    const auto grid_in = b.region("grid_in", 48 * MiB);
    const auto grid_out = b.region("grid_out", 48 * MiB);

    b.grid(gridFor(p, 1.0), p.wavesPerWorkgroup).seed(p.seed ^ 0x41B1);
    b.loop(trips(p, 55));
        b.load(grid_in, AccessPattern::Streaming, 64);
        b.load(grid_in, AccessPattern::Streaming, 64);
        b.load(grid_in, AccessPattern::Streaming, 64);
        b.load(grid_in, AccessPattern::Streaming, 64);
        b.waitcnt(0);
        b.valu(2, 7);
        b.store(grid_out, AccessPattern::Streaming, 64);
        b.salu(1);
    b.endLoop();

    Application app;
    app.name = "hpgmg";
    repeatLaunch(app, b.build(), launches(p, 5));
    app.assignCodeBases();
    return app;
}

/** 27 distinct hydrodynamics kernels, alternating characters. */
Application
makeLulesh(const WorkloadParams &p)
{
    Application app;
    app.name = "lulesh";
    for (int k = 0; k < 27; ++k) {
        KernelBuilder b("lulesh_k" + std::to_string(k));
        const auto nodes = b.region("nodes", 24 * MiB);
        const auto elems = b.region("elems", 24 * MiB);

        b.grid(gridFor(p, 0.30), p.wavesPerWorkgroup)
            .seed(p.seed ^ (0x100ULL + static_cast<std::uint64_t>(k)));
        // Kernel character cycles through compute / balanced / memory.
        const int character = k % 3;
        if (character == 0) { // compute (e.g. CalcElemShapeFunction)
            b.loop(trips(p, 17));
                b.load(elems, AccessPattern::Streaming, 32);
                b.waitcnt(0);
                b.valu(4, 22 + (k % 5) * 4);
                b.store(elems, AccessPattern::Streaming, 32);
            b.endLoop();
        } else if (character == 1) { // balanced gather-compute
            b.loop(trips(p, 14));
                b.load(nodes, AccessPattern::Random);
                b.load(nodes, AccessPattern::Random);
                b.waitcnt(0);
                b.valu(4, 10 + (k % 4) * 2);
                b.store(elems, AccessPattern::Streaming, 32);
            b.endLoop();
        } else { // memory-bound scatter/gather
            b.loop(trips(p, 11));
                b.load(nodes, AccessPattern::Random);
                b.load(elems, AccessPattern::Strided, 256);
                b.waitcnt(0);
                b.valu(2, 4);
                b.store(nodes, AccessPattern::Strided, 256);
            b.endLoop();
        }
        app.launches.push_back(b.build());
    }
    app.assignCodeBases();
    return app;
}

/** Finite element mini-app: CG iterations of SpMV / dot / axpy. */
Application
makeMinife(const WorkloadParams &p)
{
    Application app;
    app.name = "minife";

    KernelBuilder spmv_b("minife_spmv");
    {
        const auto mat = spmv_b.region("matrix", 64 * MiB);
        const auto vec = spmv_b.region("vector", 8 * MiB);
        const auto out = spmv_b.region("result", 8 * MiB);
        spmv_b.grid(gridFor(p, 0.7), p.wavesPerWorkgroup)
            .seed(p.seed ^ 0x4DB1);
        spmv_b.loop(trips(p, 16));
            spmv_b.load(mat, AccessPattern::Streaming, 64);
            spmv_b.load(vec, AccessPattern::Random);
            spmv_b.load(vec, AccessPattern::Random);
            spmv_b.waitcnt(0);
            spmv_b.valu(4, 6);
            spmv_b.store(out, AccessPattern::Streaming, 64);
        spmv_b.endLoop();
    }
    KernelBuilder dot_b("minife_dot");
    {
        const auto x = dot_b.region("x", 8 * MiB);
        const auto y = dot_b.region("y", 8 * MiB);
        dot_b.grid(gridFor(p, 0.7), p.wavesPerWorkgroup)
            .seed(p.seed ^ 0x4DB2);
        dot_b.loop(trips(p, 12));
            dot_b.load(x, AccessPattern::Streaming, 32);
            dot_b.load(y, AccessPattern::Streaming, 32);
            dot_b.waitcnt(0);
            dot_b.valu(4, 8);
            dot_b.lds(8, 2);
        dot_b.endLoop();
        dot_b.barrier();
        dot_b.lds(8, 4);
        dot_b.valu(4, 6);
    }
    KernelBuilder axpy_b("minife_axpy");
    {
        const auto x = axpy_b.region("x", 8 * MiB);
        const auto y = axpy_b.region("y", 8 * MiB);
        axpy_b.grid(gridFor(p, 0.7), p.wavesPerWorkgroup)
            .seed(p.seed ^ 0x4DB3);
        axpy_b.loop(trips(p, 11));
            axpy_b.load(x, AccessPattern::Streaming, 32);
            axpy_b.load(y, AccessPattern::Streaming, 32);
            axpy_b.waitcnt(0);
            axpy_b.valu(4, 5);
            axpy_b.store(y, AccessPattern::Streaming, 32);
        axpy_b.endLoop();
    }

    const Kernel spmv = spmv_b.build();
    const Kernel dot = dot_b.build();
    const Kernel axpy = axpy_b.build();
    for (int iter = 0; iter < launches(p, 3); ++iter) {
        app.launches.push_back(spmv);
        app.launches.push_back(dot);
        app.launches.push_back(axpy);
    }
    app.assignCodeBases();
    return app;
}

/** Monte Carlo cross-section lookups: random-access memory bound. */
Application
makeXsbench(const WorkloadParams &p)
{
    KernelBuilder b("xsbench_lookup");
    const auto grids = b.region("nuclide_grids", 96 * MiB);
    const auto results = b.region("results", 8 * MiB);

    b.grid(gridFor(p, 1.0), p.wavesPerWorkgroup).seed(p.seed ^ 0xA5);
    b.loop(trips(p, 45));
        b.load(grids, AccessPattern::Random);
        b.load(grids, AccessPattern::Random);
        b.load(grids, AccessPattern::Random);
        b.load(grids, AccessPattern::Random);
        b.waitcnt(0);
        b.valu(2, 6);
        b.salu(2);
        b.store(results, AccessPattern::Streaming, 64);
    b.endLoop();

    Application app;
    app.name = "xsbench";
    repeatLaunch(app, b.build(), launches(p, 3));
    app.assignCodeBases();
    return app;
}

/**
 * Cosmology: a heavily compute-bound short-range force kernel
 * (launched per sub-step) plus a memory-bound grid-exchange kernel -
 * the spiky high-sensitivity profile of Figure 6(b).
 */
Application
makeHacc(const WorkloadParams &p)
{
    KernelBuilder force_b("hacc_force");
    {
        const auto part = force_b.region("particles", 16 * MiB);
        force_b.grid(gridFor(p, 1.0, 8), 8).seed(p.seed ^ 0xF0);
        for (int blk = 0; blk < 3; ++blk) {
            force_b.loop(4); // neighbour gather (short memory region)
                force_b.load(part, AccessPattern::Streaming, 16);
                force_b.load(part, AccessPattern::Random);
                force_b.waitcnt(0);
                force_b.valu(2, 2);
            force_b.endLoop();
            force_b.loop(50); // polynomial force burst (~1.5 us)
                force_b.valu(4, 5);
                force_b.lds(8, 1);
            force_b.endLoop();
        }
        force_b.barrier();
        force_b.loop(8);
            force_b.store(part, AccessPattern::Streaming, 16);
            force_b.salu(1);
        force_b.endLoop();
    }
    KernelBuilder ex_b("hacc_grid_exchange");
    {
        const auto grid = ex_b.region("grid", 32 * MiB);
        ex_b.grid(gridFor(p, 0.5), p.wavesPerWorkgroup)
            .seed(p.seed ^ 0xF1);
        ex_b.loop(trips(p, 20));
            ex_b.load(grid, AccessPattern::Strided, 512);
            ex_b.load(grid, AccessPattern::Strided, 512);
            ex_b.waitcnt(0);
            ex_b.valu(2, 4);
            ex_b.store(grid, AccessPattern::Strided, 512);
        ex_b.endLoop();
    }

    const Kernel force = force_b.build();
    const Kernel exchange = ex_b.build();
    Application app;
    app.name = "hacc";
    for (int step = 0; step < launches(p, 3); ++step) {
        app.launches.push_back(force);
        app.launches.push_back(force);
        app.launches.push_back(exchange);
    }
    app.assignCodeBases();
    return app;
}

/** Monte Carlo particle transport: extreme per-wave divergence. */
Application
makeQuickS(const WorkloadParams &p)
{
    KernelBuilder b("quicksilver_cycle");
    const auto mats = b.region("materials", 48 * MiB);
    const auto tallies = b.region("tallies", 8 * MiB);

    b.grid(gridFor(p, 1.0), p.wavesPerWorkgroup).seed(p.seed ^ 0x51B5);
    // Particle histories have wildly different lengths: the trip
    // variation is the source of the paper's highest inter-wavefront
    // sensitivity variation (Figure 11a), and the ragged per-launch
    // drain it causes is chaotic for reactive prediction.
    // Rounding at small scales can push the variation up to the base
    // count; keep it below so every wave runs at least one trip.
    const std::uint32_t base = trips(p, 40);
    b.loop(base, std::min(trips(p, 32), base - 1));
        b.load(mats, AccessPattern::Random);
        b.waitcnt(0);
        b.valu(4, 6);
        b.load(mats, AccessPattern::Random);
        b.waitcnt(0);
        b.valu(4, 5);
        b.store(tallies, AccessPattern::Streaming, 64);
        b.salu(2);
    b.endLoop();

    Application app;
    app.name = "quickS";
    repeatLaunch(app, b.build(), launches(p, 4));
    app.assignCodeBases();
    return app;
}

/** Unstructured mesh hydro: 5 kernels per cycle, 2 cycles. */
Application
makePennant(const WorkloadParams &p)
{
    Application app;
    app.name = "pennant";
    struct Spec { const char *name; int va; int loads; bool random; };
    static constexpr Spec specs[] = {
        {"pennant_gather", 6, 3, true},
        {"pennant_corner_force", 20, 1, false},
        {"pennant_sum_crnr", 8, 2, true},
        {"pennant_calc_accel", 14, 2, false},
        {"pennant_adv_pos", 10, 2, false},
    };
    std::vector<Kernel> kernels;
    for (std::size_t si = 0; si < std::size(specs); ++si) {
        const Spec &s = specs[si];
        KernelBuilder b(s.name);
        const auto mesh = b.region("mesh", 24 * MiB);
        const auto side = b.region("sides", 24 * MiB);
        b.grid(gridFor(p, 0.35), p.wavesPerWorkgroup)
            .seed(p.seed ^ mixHash(0x9E77ULL + si));
        b.loop(trips(p, 22));
            for (int l = 0; l < s.loads; ++l) {
                b.load(mesh, s.random ? AccessPattern::Random
                                      : AccessPattern::Streaming, 32);
            }
            b.waitcnt(0);
            b.valu(4, static_cast<std::uint32_t>(s.va));
            b.store(side, AccessPattern::Streaming, 32);
        b.endLoop();
        kernels.push_back(b.build());
    }
    for (int cycle = 0; cycle < launches(p, 2); ++cycle)
        for (const Kernel &k : kernels)
            app.launches.push_back(k);
    app.assignCodeBases();
    return app;
}

/** Discrete ordinates transport: one sweep kernel per octant. */
Application
makeSnapc(const WorkloadParams &p)
{
    KernelBuilder b("snap_sweep");
    const auto flux = b.region("flux", 32 * MiB);
    const auto xs = b.region("cross_sections", 16 * MiB);

    b.grid(gridFor(p, 1.0, 8), 8).seed(p.seed ^ 0x5C);
    b.loop(trips(p, 18));
        b.load(flux, AccessPattern::Streaming, 32);
        b.load(xs, AccessPattern::SharedHot);
        b.waitcnt(0);
        b.valu(4, 12);
        b.lds(8, 4);
        b.barrier();
        b.valu(4, 6);
        b.store(flux, AccessPattern::Streaming, 32);
    b.endLoop();

    Application app;
    app.name = "snapc";
    repeatLaunch(app, b.build(), launches(p, 8));
    app.assignCodeBases();
    return app;
}

// =====================================================================
// Machine intelligence applications (DeepBench / DNNMark)
// =====================================================================

/** Tiled double-precision GEMM: compute bound, heterogeneous tiles. */
Application
makeDgemm(const WorkloadParams &p)
{
    KernelBuilder b("dgemm_nn");
    const auto a = b.region("A", 32 * MiB);
    const auto bm = b.region("B", 32 * MiB);
    const auto c = b.region("C", 32 * MiB);

    b.grid(gridFor(p, 1.0, 16), 16).seed(p.seed ^ 0xD6);
    // Unrolled k-tiles: each tile's load/FMA pair is its own PC range
    // and lasts roughly one epoch.
    for (int tile = 0; tile < 5; ++tile) {
        b.loop(5); // tile loads (memory, kept in phase by barriers)
            b.load(a, AccessPattern::Streaming, 16);
            b.load(bm, AccessPattern::Streaming, 16);
            b.lds(8, 2);
        b.endLoop();
        b.waitcnt(0);
        b.barrier();
        b.loop(45); // FMA region (~1.4 us)
            b.valu(4, 4);
            b.lds(8, 1);
        b.endLoop();
        b.barrier();
    }
    b.store(c, AccessPattern::Streaming, 32);

    Application app;
    app.name = "dgemm";
    repeatLaunch(app, b.build(), launches(p, 4));
    app.assignCodeBases();
    return app;
}

/**
 * Batch-norm backward, one launch per layer: a memory-bound batch
 * reduction pass then a compute-bound normalization pass - the
 * sawtooth sensitivity profile of Figures 6(c) and 8.
 */
Application
makeBwdBN(const WorkloadParams &p)
{
    KernelBuilder b("batchnorm_bwd");
    const auto x = b.region("x", 6 * MiB);
    const auto dy = b.region("dy", 6 * MiB);
    const auto dx = b.region("dx", 6 * MiB);

    b.grid(gridFor(p, 1.0, 16), 16).seed(p.seed ^ 0xB1);
    // Two channel blocks, each a reduction pass (memory region) then
    // a normalization pass (compute region), each pass ~1-2 epochs.
    for (int blk = 0; blk < 2; ++blk) {
        b.loop(9);
            b.load(x, AccessPattern::Strided, 128);
            b.load(dy, AccessPattern::Strided, 128);
            b.waitcnt(0);
            b.valu(2, 2);
            b.lds(8, 1);
        b.endLoop();
        b.barrier();
        b.lds(8, 6);
        b.valu(4, 8);
        b.barrier();
        b.loop(30);
            b.load(x, AccessPattern::Streaming, 16);
            b.waitcnt(0);
            b.valu(4, 6);
            b.store(dx, AccessPattern::Streaming, 16);
        b.endLoop();
    }

    Application app;
    app.name = "BwdBN";
    repeatLaunch(app, b.build(), launches(p, 4));
    app.assignCodeBases();
    return app;
}

/** Pooling backward: perfectly steady streaming loop. */
Application
makeBwdPool(const WorkloadParams &p)
{
    KernelBuilder b("pool_bwd");
    const auto dy = b.region("dy", 8 * MiB);
    const auto dx = b.region("dx", 8 * MiB);

    b.grid(gridFor(p, 1.0), p.wavesPerWorkgroup).seed(p.seed ^ 0xB2);
    b.loop(trips(p, 45));
        b.load(dy, AccessPattern::Streaming, 16);
        b.waitcnt(0);
        b.valu(4, 6);
        b.store(dx, AccessPattern::Streaming, 16);
        b.salu(1);
    b.endLoop();

    Application app;
    app.name = "BwdPool";
    repeatLaunch(app, b.build(), launches(p, 5));
    app.assignCodeBases();
    return app;
}

/** Softmax backward, one launch per layer: rowwise reductions. */
Application
makeBwdSoft(const WorkloadParams &p)
{
    KernelBuilder b("softmax_bwd");
    const auto y = b.region("y", 6 * MiB);
    const auto dy = b.region("dy", 6 * MiB);
    const auto dx = b.region("dx", 6 * MiB);

    b.grid(gridFor(p, 1.0, 8), 8).seed(p.seed ^ 0xB3);
    for (int row = 0; row < 2; ++row) {
        // Rowwise dot-product reduction (memory region) ...
        b.loop(9);
            b.load(y, AccessPattern::Streaming, 32);
            b.load(dy, AccessPattern::Streaming, 32);
            b.waitcnt(0);
            b.valu(4, 3);
            b.lds(8, 1);
        b.endLoop();
        b.barrier();
        b.lds(8, 4);
        b.valu(4, 10);
        // ... then the elementwise scale (compute region).
        b.loop(24);
            b.valu(4, 4);
            b.store(dx, AccessPattern::Streaming, 32);
        b.endLoop();
    }

    Application app;
    app.name = "BwdSoft";
    repeatLaunch(app, b.build(), launches(p, 6));
    app.assignCodeBases();
    return app;
}

/** Batch-norm forward: lighter two-pass variant of BwdBN. */
Application
makeFwdBN(const WorkloadParams &p)
{
    KernelBuilder b("batchnorm_fwd");
    const auto x = b.region("x", 6 * MiB);
    const auto y = b.region("y", 6 * MiB);

    b.grid(gridFor(p, 1.0, 16), 16).seed(p.seed ^ 0xB4);
    for (int blk = 0; blk < 2; ++blk) {
        // Mean/variance pass (memory region) ...
        b.loop(8);
            b.load(x, AccessPattern::Strided, 128);
            b.waitcnt(0);
            b.valu(2, 2);
            b.lds(8, 1);
        b.endLoop();
        b.barrier();
        b.valu(4, 6);
        // ... then the normalization pass (balanced region).
        b.loop(22);
            b.load(x, AccessPattern::Streaming, 16);
            b.waitcnt(0);
            b.valu(4, 5);
            b.store(y, AccessPattern::Streaming, 16);
        b.endLoop();
    }

    Application app;
    app.name = "FwdBN";
    repeatLaunch(app, b.build(), launches(p, 4));
    app.assignCodeBases();
    return app;
}

/** Pooling forward: steady, lighter compute than BwdPool. */
Application
makeFwdPool(const WorkloadParams &p)
{
    KernelBuilder b("pool_fwd");
    const auto x = b.region("x", 8 * MiB);
    const auto y = b.region("y", 8 * MiB);

    b.grid(gridFor(p, 1.0), p.wavesPerWorkgroup).seed(p.seed ^ 0xB5);
    b.loop(trips(p, 50));
        b.load(x, AccessPattern::Streaming, 16);
        b.load(x, AccessPattern::Streaming, 16);
        b.waitcnt(0);
        b.valu(4, 4);
        b.store(y, AccessPattern::Streaming, 64);
        b.salu(1);
    b.endLoop();

    Application app;
    app.name = "FwdPool";
    repeatLaunch(app, b.build(), launches(p, 5));
    app.assignCodeBases();
    return app;
}

/** Softmax forward: bandwidth heavy; L2-thrashing at high clocks. */
Application
makeFwdSoft(const WorkloadParams &p)
{
    KernelBuilder b("softmax_fwd");
    // Working set deliberately ~1.5x the L2 so that raising CU clocks
    // raises the L2 re-reference rate past capacity (Section 6.2's
    // second-order effect at 2.2 GHz).
    const auto x = b.region("x", 6 * MiB);
    const auto y = b.region("y", 6 * MiB);

    b.grid(gridFor(p, 1.0), p.wavesPerWorkgroup).seed(p.seed ^ 0xB6);
    b.loop(trips(p, 55));
        b.load(x, AccessPattern::Random);
        b.load(x, AccessPattern::Random);
        b.waitcnt(0);
        b.valu(4, 7);
        b.lds(8, 1);
        b.store(y, AccessPattern::Random);
    b.endLoop();

    Application app;
    app.name = "FwdSoft";
    repeatLaunch(app, b.build(), launches(p, 5));
    app.assignCodeBases();
    return app;
}

} // namespace

const std::vector<WorkloadInfo> &
workloadTable()
{
    static const std::vector<WorkloadInfo> table = {
        {"comd", "Molecular Dynamics", "HPC", 1},
        {"hpgmg", "Full MultiGrid", "HPC", 1},
        {"lulesh", "Shock Hydrodynamics", "HPC", 27},
        {"minife", "Finite Element", "HPC", 3},
        {"xsbench", "Monte Carlo Transport", "HPC", 1},
        {"hacc", "Cosmology Code", "HPC", 2},
        {"quickS", "Monte Carlo Quicksilver", "HPC", 1},
        {"pennant", "Unstructured Mesh", "HPC", 5},
        {"snapc", "Discrete Ordinates", "HPC", 1},
        {"dgemm", "Double Prec. MatrixMul", "MI", 1},
        {"BwdBN", "Batch-Norm Back", "MI", 1},
        {"BwdPool", "Pooling Backward", "MI", 1},
        {"BwdSoft", "Softmax Backward", "MI", 1},
        {"FwdBN", "Batch-Norm Forward", "MI", 1},
        {"FwdPool", "Pooling Forward", "MI", 1},
        {"FwdSoft", "Softmax Forward", "MI", 1},
    };
    return table;
}

bool
isWorkload(const std::string &name)
{
    for (const WorkloadInfo &info : workloadTable())
        if (info.name == name)
            return true;
    return false;
}

isa::Application
makeWorkload(const std::string &name, const WorkloadParams &params)
{
    if (name == "comd") return makeComd(params);
    if (name == "hpgmg") return makeHpgmg(params);
    if (name == "lulesh") return makeLulesh(params);
    if (name == "minife") return makeMinife(params);
    if (name == "xsbench") return makeXsbench(params);
    if (name == "hacc") return makeHacc(params);
    if (name == "quickS") return makeQuickS(params);
    if (name == "pennant") return makePennant(params);
    if (name == "snapc") return makeSnapc(params);
    if (name == "dgemm") return makeDgemm(params);
    if (name == "BwdBN") return makeBwdBN(params);
    if (name == "BwdPool") return makeBwdPool(params);
    if (name == "BwdSoft") return makeBwdSoft(params);
    if (name == "FwdBN") return makeFwdBN(params);
    if (name == "FwdPool") return makeFwdPool(params);
    if (name == "FwdSoft") return makeFwdSoft(params);
    fatal("unknown workload '" + name + "'");
}

std::vector<isa::Application>
makeAllWorkloads(const WorkloadParams &params)
{
    std::vector<isa::Application> apps;
    for (const WorkloadInfo &info : workloadTable())
        apps.push_back(makeWorkload(info.name, params));
    return apps;
}

WorkloadLoadResult
loadWorkload(const std::string &spec, const WorkloadParams &params)
{
    WorkloadLoadResult out;
    if (isWorkload(spec)) {
        out.app = makeWorkload(spec, params);
        return out;
    }
    if (spec.find('/') != std::string::npos ||
        spec.find('.') != std::string::npos) {
        ParseResult parsed = parseApplicationFile(spec);
        if (!parsed.ok()) {
            out.error = spec + ": " + parsed.error;
            return out;
        }
        out.app = std::move(*parsed.app);
        return out;
    }
    out.error = "unknown workload '" + spec +
        "' (not a Table II name, and not a kernel-script path)";
    return out;
}

} // namespace pcstall::workloads
