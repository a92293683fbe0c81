/**
 * @file
 * Validation of the fork-pre-execute methodology (paper Section 5.1):
 * the per-domain performance reported by the frequency-shuffled
 * sampling processes is compared against re-executing the same epoch
 * at the selected frequencies. The paper reaches 97.6% agreement with
 * one sample per V/f state; a fully accurate method would need
 * |states|^|domains| samples.
 */

#include <cmath>
#include <iostream>

#include "common/rng.hh"
#include "common/stats_util.hh"
#include "gpu/gpu_chip.hh"
#include "harness.hh"
#include "oracle/fork_pre_execute.hh"
#include "oracle/snapshot_pool.hh"
#include "sim/parallel_executor.hh"
#include "sweep_runner.hh"

using namespace pcstall;

namespace
{

struct Row
{
    bool ok = false;
    std::size_t epochs = 0;
    double accuracy = 0.0;
    double worst = 1.0;
};

Row
validateWorkload(const std::string &name,
                 const bench::BenchOptions &opts,
                 const power::VfTable &table)
{
    Row row;
    const auto app = bench::makeApp(name, opts);
    if (!app)
        return row;
    gpu::GpuConfig gcfg = opts.runConfig().gpu;
    gpu::GpuChip chip(gcfg, app);
    const dvfs::DomainMap domains(gcfg.numCus, opts.cusPerDomain);

    // Each workload draws its frequency assignments from its own
    // seed-derived stream, so rows are independent of the order (and
    // the thread) they are computed on.
    Rng rng(Rng::split(opts.seed, name, "oracle-validation").next());

    oracle::SnapshotPool pool;
    std::unique_ptr<sim::ParallelExecutor> exec;
    if (opts.oracleThreads > 1)
        exec = std::make_unique<sim::ParallelExecutor>(opts.oracleThreads);
    oracle::SweepOptions sweep_opts;
    sweep_opts.pool = &pool;
    sweep_opts.executor = exec.get();

    double acc_sum = 0.0;
    std::size_t n = 0;
    Tick t = 0;
    gpu::EpochRecord harvest_scratch;
    while (row.epochs < 12) {
        const bool done = chip.runUntil(t + opts.epochLen);
        chip.harvestEpoch(t, harvest_scratch);
        t += opts.epochLen;
        if (done)
            break;
        ++row.epochs;

        // Sample the upcoming epoch, then re-execute it at a random
        // mixed frequency assignment and compare.
        const auto est = oracle::forkPreExecuteSweep(
            chip, domains, table, opts.epochLen, sweep_opts);
        gpu::GpuChip real = chip;
        std::vector<std::size_t> chosen(domains.numDomains());
        for (std::uint32_t d = 0; d < domains.numDomains(); ++d) {
            chosen[d] = static_cast<std::size_t>(
                rng.below(table.numStates()));
            const std::uint32_t first = domains.firstCu(d);
            for (std::uint32_t cu = first;
                 cu < first + domains.cusPerDomain(); ++cu) {
                real.setCuFrequency(
                    cu, table.state(chosen[d]).freq, 0);
            }
        }
        real.runUntil(t + opts.epochLen);
        const gpu::EpochRecord rec = real.harvestEpoch(t);

        for (std::uint32_t d = 0; d < domains.numDomains(); ++d) {
            const double actual = dvfs::domainCommitted(domains, d, rec);
            if (actual <= 0.0)
                continue;
            const double predicted = est.domainInstr[d][chosen[d]];
            const double acc = clampTo(
                1.0 - std::abs(predicted - actual) / actual, 0.0,
                1.0);
            acc_sum += acc;
            row.worst = std::min(row.worst, acc);
            ++n;
        }
    }
    row.accuracy = n > 0 ? acc_sum / static_cast<double>(n) : 0.0;
    row.ok = true;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain([&] {
        auto opts = bench::BenchOptions::parse(argc, argv);
        bench::banner("ORACLE VALIDATION",
                      "Fork-pre-execute sampling accuracy", opts);

        const power::VfTable table = power::VfTable::paperTable();
        const std::vector<std::string> names = opts.workloadNames();

        bench::SweepRunner runner(opts);
        const std::vector<Row> rows = runner.map<Row>(
            names.size(), [&](std::size_t i) {
                return validateWorkload(names[i], opts, table);
            });

        TableWriter out({"workload", "epochs", "mean accuracy",
                         "worst domain-epoch"});
        std::vector<double> all;
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (!rows[i].ok)
                continue;
            all.push_back(rows[i].accuracy);
            out.beginRow()
                .cell(names[i])
                .cell(static_cast<long long>(rows[i].epochs))
                .cell(formatPercent(rows[i].accuracy))
                .cell(formatPercent(rows[i].worst));
            out.endRow();
        }
        out.beginRow().cell("AVERAGE").cell("")
            .cell(formatPercent(mean(all))).cell("");
        out.endRow();
        bench::emit(opts, out);
        std::printf("\n(paper Section 5.1: 97.6%% accuracy with one "
                    "sample per V/f state)\n");
        return 0;
    });
}
