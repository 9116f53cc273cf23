/**
 * @file
 * Figure 6: off-package DRAM traffic in bytes per instruction for
 * every workload and cache scheme.
 *
 * Paper headline (Section 5.3): Banshee's off-package traffic is
 * 3.1 % lower than the best Alloy variant, 42.4 % lower than Unison
 * and 43.2 % lower than TDC.
 */

#include <cstdio>

#include "bench_util.hh"
#include "sim/report.hh"

using namespace banshee;
using namespace banshee::benchutil;

int
main(int argc, char **argv)
{
    BenchRun bench(argc, argv, "fig6_offpkg_traffic",
                   "Figure 6: off-package DRAM traffic "
                   "(bytes/instruction)",
                   "Banshee (MICRO'17), Fig. 6");
    const BenchOptions &opt = bench.opt;
    const Sweep &index = bench.run(schemeGrid(opt));

    const auto schemes = std::vector<std::string>{
        "Unison", "TDC", "Alloy 1", "Alloy 0.1", "Banshee"};
    std::vector<std::string> headers = {"workload"};
    for (const auto &s : schemes)
        headers.push_back(s);
    TablePrinter table(headers, 12);
    table.printHeader();

    std::map<std::string, double> sums;
    for (const auto &w : opt.workloads) {
        std::vector<std::string> row = {w};
        for (const auto &s : schemes) {
            const double bpi = index.at(w, s).offPkgTotalBpi();
            row.push_back(fmt(bpi));
            sums[s] += bpi;
        }
        table.printRow(row);
    }
    table.printRule();
    std::vector<std::string> row = {"average"};
    for (const auto &s : schemes)
        row.push_back(fmt(sums[s] / opt.workloads.size()));
    table.printRow(row);

    const double banshee = sums["Banshee"];
    std::printf("\nBanshee vs Alloy 1 : %+.1f%%  (paper: -3.1%%)\n",
                100.0 * (banshee / sums["Alloy 1"] - 1.0));
    std::printf("Banshee vs Unison  : %+.1f%%  (paper: -42.4%%)\n",
                100.0 * (banshee / sums["Unison"] - 1.0));
    std::printf("Banshee vs TDC     : %+.1f%%  (paper: -43.2%%)\n",
                100.0 * (banshee / sums["TDC"] - 1.0));
    return bench.finish();
}
