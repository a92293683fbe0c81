/**
 * @file
 * Figure 14: prediction accuracy of every Table III design at 1 us
 * epochs, measured as the paper does (Section 6.1): predicted
 * instructions for the chosen state vs instructions actually
 * committed, averaged over domains and epochs. ORACLE is ~100% by
 * construction; the paper reports reactive models at ~45-63%,
 * PCSTALL at up to 81% and ACCPC at ~90%.
 */

#include <iostream>
#include <sstream>

#include "common/stats_util.hh"
#include "harness.hh"
#include "sweep_runner.hh"

using namespace pcstall;

int
main(int argc, char **argv)
{
    return bench::guardedMain([&] {
        auto opts = bench::BenchOptions::parse(argc, argv);
        std::ostringstream title;
        title << "Prediction accuracy at "
              << static_cast<double>(opts.epochLen) /
                     static_cast<double>(tickUs)
              << " us epochs";
        bench::banner("FIGURE 14", title.str(), opts);

        bench::SweepRunner runner(opts);
        const std::vector<std::string> names = opts.workloadNames();
        const std::vector<std::string> designs =
            opts.designList(bench::designNames());
        std::vector<bench::SweepCell> cells;
        for (const std::string &name : names)
            for (const std::string &design : designs)
                cells.push_back(runner.cell(name, design));
        const std::vector<bench::CellOutcome> outcomes =
            runner.run(std::move(cells));

        std::vector<std::string> headers = {"workload"};
        for (const std::string &d : designs)
            headers.push_back(d);
        TableWriter table(headers);

        std::map<std::string, std::vector<double>> acc;
        for (std::size_t w = 0; w < names.size(); ++w) {
            const std::size_t row = w * designs.size();
            if (!outcomes[row].run.ok)
                continue;
            table.beginRow().cell(names[w]);
            for (std::size_t d = 0; d < designs.size(); ++d) {
                const bench::RunOutcome &run = outcomes[row + d].run;
                if (!run.ok) {
                    table.cell("-");
                    continue;
                }
                acc[designs[d]].push_back(
                    run.result.predictionAccuracy);
                table.cell(
                    formatPercent(run.result.predictionAccuracy));
            }
            table.endRow();
        }
        table.beginRow().cell("AVERAGE");
        for (const std::string &design : designs)
            table.cell(formatPercent(mean(acc[design])));
        table.endRow();
        bench::emit(opts, table);

        std::printf("\n(paper Fig 14: STALL/LEAD lowest, CRIT/CRISP "
                    "~60%%, ACCREAC 63%%, PCSTALL up to 81%%, ACCPC "
                    "~90%%, ORACLE 100%%)\n");
        return 0;
    });
}
